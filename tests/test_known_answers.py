"""Known answers of the derived layer, pinned as a ledger.

``ext_via_bar(s, reg, reg, depth=4)`` is the bimodule Ext of the regular
module, so for a binary unital carrier A it is the Hochschild cohomology
HH^n(A) (Loday, *Cyclic Homology*, §1.1; Happel 1989 for the path algebra
T2).  Each entry lists the literature's invariant factors in degrees 0..4;
the ternary lift xyz of a commutative base is held to its base's values.
Where the engine is wrong today the entry is a strict xfail that names the
ROADMAP item to fix it; the fix turns it into a pass and drops the marker.

Products are held to HH(A x B) = HH(A) + HH(B).  The regularity entries
record ``is_regular`` on the ledger's families: every carrier whose answer
is wrong today fails it, and every regular one but M2(F2) builds its bar.

Lister's odd parts of checkerboard-graded matrix rings (``odd_part``) are
ternary carriers that are not folds of a binary ring.  Their entries pin
today's verdicts: each and its opposite validate and are regular, have
only the ideals 0 and T and no completely prime ideal, and none has a
neutral word; so does the copy relabelled by the reversal, which moves the
zero, with its regular module relabelled alike.  At depth 2 Ext and Tor of odd(M2(B)) are 0 in every degree,
since the Boolean completion is 0 (ROADMAP item 21), and the bars of
odd(M2(F2)) and odd(M3(F2)) refuse at slot 2 (ROADMAP items 18 and 23), on
the relabelled copies too.

Tor of the regular module against itself is left out: ``tor_via_bar``
reads a positional tensor balanced at one slot pair, so its Tor_0 is A,
not HH_0, until the enveloping ring is defined (ROADMAP item 12).
"""

import itertools

import pytest

from ngamma.bundled import bundled_workspace
from ngamma.core import (
    FiniteAddMonoid, NaryGammaSemiring, SoundnessError, StructuralError, boolean_semiring,
    f2_semiring, gamma_scaled_z4, is_regular, make_matrix_family, neutral_words, odd_part,
    opposite, product, relabel, ternary_from_semiring, trivial_gamma, truncated_nat_semiring,
    truncated_polynomial, upper_triangular, validate_semiring, zmod_semiring,
)
from ngamma.homology import bar_complex, ext_via_bar, tor_via_bar
from ngamma.ideals import all_ideals, spectrum
from ngamma.modules import regular_bimodule, relabel_module, validate_module

DEPTH = 4

FORCED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "each balanced bar term is M when the carrier has a neutral element, so Ext "
    "above degree 0 vanishes (ROADMAP item 2)"))
UNDESCENDED = pytest.mark.xfail(strict=True, raises=SoundnessError, reason=(
    "bar differential d_1 does not descend on a non-commutative carrier "
    "(ROADMAP items 2 and 18)"))
NOT_PROJECTIVE = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Z/2 is not projective over Z/4, so no bar resolves it (ROADMAP items 2 and 5)"))


def _degrees(first, above):
    return [first] + [above] * DEPTH


# name -> (binary builder, HH^0..HH^4, marks)
COMMUTATIVE = {
    "f2": (f2_semiring, _degrees((2,), ()), ()),
    "z4": (lambda: zmod_semiring(4), _degrees((4,), ()), ()),
    "f2[e]": (lambda: truncated_polynomial(2, 2), _degrees((2, 2), (2, 2)), FORCED),
    "f3[e]": (lambda: truncated_polynomial(3, 2), _degrees((3, 3), (3,)), FORCED),
    "f2[x]/x^3": (lambda: truncated_polynomial(2, 3), _degrees((2, 2, 2), (2, 2)), FORCED),
}
CASES = [pytest.param(lambda build=build, lift=lift: lift(build()), want,
                      id=f"{arity} {name}", marks=marks)
         for name, (build, want, marks) in COMMUTATIVE.items()
         for arity, lift in (("binary", lambda s: s), ("ternary", ternary_from_semiring))]
CASES += [
    pytest.param(lambda: upper_triangular(f2_semiring(), 2),
                 _degrees((2,), ()), id="binary t2(f2)", marks=UNDESCENDED),
    pytest.param(lambda: make_matrix_family(f2_semiring(), 2, 2),
                 _degrees((2,), ()), id="binary m2(f2)", marks=UNDESCENDED),
    # HH(A x B) = HH(A) + HH(B).
    pytest.param(lambda: product(f2_semiring(), f2_semiring()),
                 _degrees((2, 2), ()), id="binary f2 x f2"),
    pytest.param(lambda: product(*[ternary_from_semiring(f2_semiring())] * 2),
                 _degrees((2, 2), ()), id="ternary f2 x f2"),
    pytest.param(lambda: product(*[truncated_polynomial(2, 2)] * 2),
                 _degrees((2,) * 4, (2,) * 4), id="binary f2[e] x f2[e]", marks=FORCED),
]


@pytest.mark.parametrize("build, want", CASES)
def test_hochschild_cohomology_of_the_regular_module(build, want):
    s = build()
    reg = regular_bimodule(s)
    assert ext_via_bar(s, reg, reg, depth=DEPTH).factors() == want


@pytest.mark.parametrize("derived", [ext_via_bar, tor_via_bar], ids=["ext", "tor"])
@NOT_PROJECTIVE
def test_z4_mod2_over_ternary_z4_is_z2_in_every_degree(derived):
    m = bundled_workspace().module("z4_mod2")
    assert derived(m.parent, m, m, depth=DEPTH).factors() == _degrees((2,), (2,))


def test_ledger_builders_are_semirings_and_refuse_bad_parameters():
    for p, k in ((2, 1), (2, 2), (3, 2), (2, 3), (5, 2)):
        s = truncated_polynomial(p, k)
        assert (s.T.size, validate_semiring(s).ok) == (p ** k, True), (p, k)
    x = 2  # the element x of F_2[x]/(x^3): x * x = x^2, x * x^2 = 0
    s = truncated_polynomial(2, 3)
    assert (s.mu((x, x), (0,)), s.mu((x, 4), (0,))) == (4, 0)
    for base, m in ((f2_semiring(), 1), (f2_semiring(), 2), (boolean_semiring(), 2)):
        s = upper_triangular(base, m)
        assert (s.T.size, validate_semiring(s).ok) == (base.T.size ** (m * (m + 1) // 2), True), \
            (base.name, m)
    # T2(F2) on bits (a, b, c) = [[a, b], [0, c]]: e11 * e12 = e12, e12 * e11 = 0.
    t2 = upper_triangular(f2_semiring(), 2)
    assert (t2.mu((0b100, 0b010), (0,)), t2.mu((0b010, 0b100), (0,)), neutral_words(t2)) == \
        (0b010, 0, [(0b101, (0,))])
    for bad in ((1, 2), (4, 2), (9, 1), (2, 0)):
        with pytest.raises(StructuralError):
            truncated_polynomial(*bad)
    with pytest.raises(StructuralError):
        upper_triangular(f2_semiring(), 0)
    with pytest.raises(StructuralError):
        upper_triangular(NaryGammaSemiring(2, FiniteAddMonoid(2, (0, 1, 1, 0)), trivial_gamma(),
                                           (0, 1, 1, 1)), 2)


def _zero_multiplication(n):
    return NaryGammaSemiring(n, FiniteAddMonoid(2, (0, 1, 1, 0)), trivial_gamma(), (0,) * 2 ** n)


def _both(name, build, witness):
    return {f"binary {name}": (build, witness),
            f"ternary {name}": (lambda: ternary_from_semiring(build()), witness)}


# name -> (family, the first element that is not regular, or None)
REGULARITY = {
    **_both("f2", f2_semiring, None), **_both("boolean", boolean_semiring, None),
    **_both("z6", lambda: zmod_semiring(6), None),
    "ternary nat-cap2": (lambda: ternary_from_semiring(truncated_nat_semiring(2)), None),
    "binary m2(f2)": (lambda: make_matrix_family(f2_semiring(), 2, 2), None),
    "ternary m2(f2)": (lambda: make_matrix_family(f2_semiring(), 2, 3), None),
    **_both("z4", lambda: zmod_semiring(4), (2,)),
    "binary f2[e]": (lambda: truncated_polynomial(2, 2), (2,)),
    "binary f3[e]": (lambda: truncated_polynomial(3, 2), (3,)),
    "binary f2[x]/x^3": (lambda: truncated_polynomial(2, 3), (2,)),
    "binary t2(f2)": (lambda: upper_triangular(f2_semiring(), 2), (2,)),
    "gamma-scaled z4": (gamma_scaled_z4, (1,)),
    "binary zero multiplication": (lambda: _zero_multiplication(2), (1,)),
    "ternary zero multiplication": (lambda: _zero_multiplication(3), (1,)),
}


@pytest.mark.parametrize("build, witness", [pytest.param(*case, id=name)
                                            for name, case in REGULARITY.items()])
def test_regularity_names_the_first_element_that_is_not_regular(build, witness):
    check = is_regular(build())
    assert (check.ok, check.witness) == (witness is None, witness)


def test_carriers_with_forced_or_unprojective_answers_are_not_regular():
    carriers = [case.values[0]() for case in CASES if FORCED in case.marks]
    carriers.append(bundled_workspace().module("z4_mod2").parent)
    assert len(carriers) == 8
    assert [is_regular(s).ok for s in carriers] == [False] * 8


@pytest.mark.parametrize("name", [name for name, (_, witness) in REGULARITY.items()
                                  if witness is None])
def test_regular_families_build_the_bar_to_depth_4(name):
    # M2(F2) is regular, but its bar does not descend (ROADMAP items 2 and 18).
    s = REGULARITY[name][0]()
    if "m2(f2)" in name:
        with pytest.raises(SoundnessError, match="descend"):
            bar_complex(s, regular_bimodule(s), depth=DEPTH)
    else:
        bar_complex(s, regular_bimodule(s), depth=DEPTH)


ODD_PARTS = {"odd(m2(f2))": (f2_semiring, 2), "odd(m2(b))": (boolean_semiring, 2),
             "odd(m3(f2))": (f2_semiring, 3)}


@pytest.mark.parametrize("base, m", [pytest.param(*case, id=name)
                                     for name, case in ODD_PARTS.items()])
def test_odd_parts_are_regular_ternary_carriers_without_primes(base, m):
    s = odd_part(base(), m)
    assert (s.n, s.T.size) == (3, base().T.size ** (m * m // 2))
    assert validate_semiring(s).ok and is_regular(s).ok
    assert neutral_words(s) == []
    assert [sorted(i.members) for i in all_ideals(s)] == [[s.T.zero], list(range(s.T.size))]
    assert spectrum(s).primes == ()


def test_odd_part_of_m2_f2_is_the_off_diagonal_product():
    # Element 2a + b is [[0, a], [b, 0]], so mu((a,b), (c,d), (e,f)) = (ade, bcf).
    s = odd_part(f2_semiring(), 2)
    pairs = [(x >> 1, x & 1) for x in range(4)]
    for x, y, z in itertools.product(range(4), repeat=3):
        (a, b), (c, d), (e, f) = pairs[x], pairs[y], pairs[z]
        assert s.mu((x, y, z), (0, 0)) == 2 * (a & d & e) + (b & c & f)
    with pytest.raises(StructuralError):
        odd_part(f2_semiring(), 1)


@pytest.mark.parametrize("base, m", [pytest.param(*case, id=name)
                                     for name, case in ODD_PARTS.items()])
def test_odd_parts_have_opposites_without_primes(base, m):
    s = opposite(odd_part(base(), m))
    assert validate_semiring(s).ok and is_regular(s).ok
    assert len(all_ideals(s)) == 2
    assert spectrum(s).primes == ()


# Ext and Tor of the regular module at depth 2; None is the slot-2 refusal.
ODD_DERIVED = {"odd(m2(f2))": None, "odd(m2(b))": [(), (), ()], "odd(m3(f2))": None}


@pytest.mark.parametrize("derived", [ext_via_bar, tor_via_bar], ids=["ext", "tor"])
@pytest.mark.parametrize("name", ODD_PARTS)
def test_odd_parts_derived_outcomes_at_depth_2(name, derived):
    base, m = ODD_PARTS[name]
    s = odd_part(base(), m)
    reg = regular_bimodule(s)
    if ODD_DERIVED[name] is None:
        with pytest.raises(SoundnessError, match="no residual action descends at slot 2"):
            derived(s, reg, reg, depth=2)
    else:
        assert derived(s, reg, reg, depth=2).factors() == ODD_DERIVED[name]


def _reversed_odd_part(name):
    """odd_part relabelled by the reversal, and its regular module relabelled
    alike; the reversal moves the zero."""
    base, m = ODD_PARTS[name]
    s = odd_part(base(), m)
    perm = list(range(s.T.size))[::-1]
    t = relabel(s, perm)
    assert t.T.zero == perm[s.T.zero] != s.T.zero
    return t, relabel_module(regular_bimodule(s), perm, perm)


@pytest.mark.parametrize("name", ODD_PARTS)
def test_relabelled_odd_parts_are_regular_without_primes(name):
    s, reg = _reversed_odd_part(name)
    assert validate_semiring(s).ok and is_regular(s).ok and validate_module(reg).ok
    assert len(all_ideals(s)) == 2
    assert spectrum(s).primes == ()


@pytest.mark.parametrize("derived", [ext_via_bar, tor_via_bar], ids=["ext", "tor"])
@pytest.mark.parametrize("name", ODD_PARTS)
def test_relabelled_odd_parts_derived_outcomes_at_depth_2(name, derived):
    s, reg = _reversed_odd_part(name)
    if ODD_DERIVED[name] is None:
        with pytest.raises(SoundnessError, match="no residual action descends at slot 2"):
            derived(s, reg, reg, depth=2)
    else:
        assert derived(s, reg, reg, depth=2).factors() == ODD_DERIVED[name]
