"""Quotients by the coset (Bourne) congruence, against a cell-by-cell walk.

``modules.quotient_projection`` is the one quotient: semiring quotients,
quotient modules and the cokernels of the cofree tower all go through it,
and it checks each distinct column once.  The references below check every
cell, as ``ideals.quotient`` used to.
"""

from itertools import product

import pytest

from ngamma import completion, homology
from ngamma.abgroups import SoundnessError
from ngamma.core import (
    GammaSemiringMorphism, NaryGammaSemiring, boolean_semiring, bundled_semirings,
    f2_semiring, gamma_scaled_z4, make_matrix_family, ternary_from_semiring, z4_ternary,
    zmod_semiring,
)
from ngamma.homology import RegularityError, cofree_coresolution
from ngamma.ideals import (
    GammaIdeal, all_ideals, coset_congruence, quotient, quotient_monoid,
)
from ngamma.modules import (
    BiGammaModule, ModuleMorphism, build_module, quotient_module, regular_bimodule,
)


def _families():
    fams = dict(bundled_semirings())
    fams.update({f"ternary z{m}": ternary_from_semiring(zmod_semiring(m)) for m in range(2, 9)})
    fams["gamma-scaled z4"] = gamma_scaled_z4()
    fams["m2b^2"] = make_matrix_family(boolean_semiring(), 2, 2)
    return fams


FAMILIES = _families()


def _walk_quotient(s: NaryGammaSemiring, ideal: GammaIdeal):
    """The semiring quotient with every cell of the walk checked."""
    cls, reps = coset_congruence(s.T, ideal.members)
    nclasses = len(reps)
    for x in range(s.T.size):
        for y in range(s.T.size):
            if cls[x] == cls[y]:
                for z in range(s.T.size):
                    if cls[s.T.add(x, z)] != cls[s.T.add(y, z)]:
                        raise SoundnessError(f"addition not constant on classes: {(x, y, z)}")
    n = s.n
    for j in range(n):
        for x in range(s.T.size):
            for y in range(s.T.size):
                if cls[x] != cls[y]:
                    continue
                for rest in s.t_tuples(n - 1):
                    for gs in s.g_tuples(n - 1):
                        a = s.mu(rest[:j] + (x,) + rest[j:], gs)
                        b = s.mu(rest[:j] + (y,) + rest[j:], gs)
                        if cls[a] != cls[b]:
                            raise SoundnessError("multiplication not constant on classes: "
                                                 f"{(j + 1, x, y, rest, gs)}")
    t = quotient_monoid(s.T, cls, reps)
    mu = []
    for xs in product(range(nclasses), repeat=n):
        for gs in s.g_tuples(n - 1):
            mu.append(cls[s.mu(tuple(reps[x] for x in xs), gs)])
    q = NaryGammaSemiring(n, t, s.gamma, tuple(mu),
                          name=f"{s.name}/{GammaIdeal(s, ideal.members)}")
    return q, GammaSemiringMorphism(s, q, tuple(cls))


def _walk_quotient_module(b: BiGammaModule, members, name: str) -> ModuleMorphism:
    """The same walk on a module's slot tables, tabulated cell by cell."""
    s = b.parent
    cls, reps = coset_congruence(b.M, members)
    for j in range(s.n):
        for x in range(b.M.size):
            for y in range(b.M.size):
                if cls[x] != cls[y]:
                    continue
                for rest in s.t_tuples(s.n - 1):
                    for gs in s.g_tuples(s.n - 1):
                        if cls[b.act(j, rest, x, gs)] != cls[b.act(j, rest, y, gs)]:
                            raise SoundnessError(f"action not constant on classes: "
                                                 f"{(j + 1, x, y, rest, gs)}")
    quot = build_module(s, quotient_monoid(b.M, cls, reps),
                        lambda j, rest, c, gs: cls[b.act(j, rest, reps[c], gs)], name)
    return ModuleMorphism(b, quot, tuple(cls))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_semiring_quotients_match_the_cell_walk(family):
    s = FAMILIES[family]
    for ideal in all_ideals(s):
        assert quotient(s, ideal) == _walk_quotient(s, ideal), str(ideal)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_quotient_modules_match_the_cell_walk(family):
    s = FAMILIES[family]
    reg = regular_bimodule(s)
    for ideal in all_ideals(s):
        want = _walk_quotient_module(reg, ideal.members, f"{s.name}.mod{ideal}")
        assert quotient_module(s, ideal) == want.target, str(ideal)


# Towers over M2(B)^2 are left out: each cofree module there enumerates
# 16^4 candidate maps.
@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "m2b^2"])
def test_tower_cokernels_match_the_cell_walk(family, monkeypatch):
    s = FAMILIES[family]
    seen = []

    def recording(b, members, name):
        proj = quotient_projection(b, members, name)
        seen.append((proj, _walk_quotient_module(b, members, name)))
        return proj

    quotient_projection = homology.quotient_projection
    monkeypatch.setattr(homology, "quotient_projection", recording)
    for ideal in all_ideals(s):
        try:
            cofree_coresolution(s, quotient_module(s, ideal), depth=2)
        except RegularityError:
            pass
    assert seen
    for got, want in seen:
        assert got == want


def test_quotient_by_a_non_ideal_names_the_split():
    # {0, 1} is an additive submonoid of binary M2(F2) but no ideal: the
    # product with 2 on the right leaves the class of 0 for the element 1.
    s = make_matrix_family(f2_semiring(), 2, 2)
    with pytest.raises(SoundnessError) as err:
        quotient(s, GammaIdeal(s, frozenset({0, 1})))
    assert str(err.value) == ("the action at slot 1 with carriers (2,) and parameters (0,) "
                              "is not constant on classes: it splits 0 ~ 1")


def test_semiring_quotient_reads_only_the_quotient_cells(count_calls):
    s = ternary_from_semiring(zmod_semiring(32))
    lookups = count_calls(NaryGammaSemiring, "mu")
    q, _ = quotient(s, GammaIdeal(s, frozenset(range(0, 32, 2))))
    assert q.T.size == 2
    assert lookups["mu"] <= q.T.size ** s.n * s.gamma.size ** (s.n - 1)


def test_cofree_coresolution_completes_each_monoid_once(count_calls):
    # Stage 0 embeds Z/4 into a cofree module on the same monoid, and every
    # later stage works on the one-element monoid, so the call's scope
    # completes two monoids in all; two per stage would be 2 * 4 = 8.
    s = z4_ternary()
    completed = count_calls(completion, "group_complete")
    tower = cofree_coresolution(s, regular_bimodule(s), depth=3)
    assert len(tower.terms) == 4
    assert completed["group_complete"] == 2
