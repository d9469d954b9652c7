import random
from collections import Counter
from itertools import combinations

import pytest
from test_validate_once import REGULAR_FAMILIES

from ngamma import core, ideals, oracle
from ngamma.core import (
    BoundExceeded, FiniteAddMonoid, NaryGammaSemiring, StructuralError,
    boolean_semiring, boolean_ternary, f2_semiring, f2_ternary, make_matrix_family,
    trivial_gamma, validate_morphism, validate_semiring, z4_ternary,
)
from ngamma.ideals import (
    GammaIdeal, all_ideals, check_ideal, generate_ideal, is_prime, quotient,
    spectrum, topology_report,
)


def test_generate_ideal_basics():
    s = f2_ternary()
    assert generate_ideal(s, []).members == {0}
    assert generate_ideal(s, [1]).members == {0, 1}


def test_generate_ideal_matrix_family_matches_subset_scan():
    s = make_matrix_family(boolean_semiring(), 2, 3)
    e11 = sum(v << (3 - i) for i, v in enumerate([1, 0, 0, 0]))  # matrix [[1,0],[0,0]]
    # Element encoding: entries row-major, first entry slowest.
    e11 = 0b1000
    closure = generate_ideal(s, [e11])
    assert check_ideal(s, closure.members).ok
    # Independent oracle: smallest ideal among all subsets containing the seed.
    best = None
    for mask in oracle.subset_scan_ideals(s):
        if mask >> e11 & 1:
            if best is None or bin(mask).count("1") < bin(best).count("1"):
                best = mask
    assert best is not None and best == closure.bitmask


def test_closure_adds_in_both_orders():
    # A non-commutative addition with 0 + 1 = 1 but 1 + 0 = 2, and mu zero:
    # {0, 1} is not closed, so the ideal generated by 1 must contain 2.
    add = (0, 1, 2,
           2, 1, 2,
           2, 2, 2)
    s = NaryGammaSemiring(2, FiniteAddMonoid(3, add, 0), trivial_gamma(), (0,) * 9)
    assert not check_ideal(s, {0, 1}).ok
    assert generate_ideal(s, [1]).members == {0, 1, 2}
    assert [i.bitmask for i in all_ideals(s)] == oracle.subset_scan_ideals(s) == [1, 5, 7]


def test_closure_inserts_the_zero():
    # mu(0, 0) = 1: the zero's own products belong to every ideal.
    s = NaryGammaSemiring(2, FiniteAddMonoid(2, (0, 1, 1, 0), 0), trivial_gamma(),
                          (1, 0, 0, 0))
    assert generate_ideal(s, []).members == {0, 1}
    assert [i.bitmask for i in all_ideals(s)] == oracle.subset_scan_ideals(s) == [3]


def test_generate_ideal_idempotent_and_monotone():
    for s in (f2_ternary(), z4_ternary(), boolean_ternary()):
        for seed_mask in range(1 << s.T.size):
            seed = [e for e in range(s.T.size) if seed_mask >> e & 1]
            i1 = generate_ideal(s, seed)
            assert generate_ideal(s, i1.members).members == i1.members
            for extra in range(s.T.size):
                bigger = generate_ideal(s, seed + [extra])
                assert i1.members <= bigger.members


def test_all_ideals_bundled():
    f2 = f2_ternary()
    assert [i.sorted_members() for i in all_ideals(f2)] == [[0], [0, 1]]
    b = boolean_ternary()
    assert [i.sorted_members() for i in all_ideals(b)] == [[0], [0, 1]]
    z4 = z4_ternary()
    assert [i.sorted_members() for i in all_ideals(z4)] == [[0], [0, 2], [0, 1, 2, 3]]


def test_all_ideals_closed_under_intersection():
    for s in (f2_ternary(), z4_ternary(), boolean_ternary()):
        ideals = all_ideals(s)
        masks = {i.bitmask for i in ideals}
        for a, b in combinations(ideals, 2):
            assert (a.bitmask & b.bitmask) in masks


def test_all_ideals_bound():
    s = make_matrix_family(boolean_semiring(), 2, 3)
    with pytest.raises(BoundExceeded):
        all_ideals(s, bound=8)


def test_quotient_by_zero_is_isomorphic_copy():
    for s in (f2_ternary(), z4_ternary()):
        q, proj = quotient(s, GammaIdeal(s, frozenset({0})))
        assert q.T.size == s.T.size
        assert q.mu_table == s.mu_table
        assert validate_morphism(proj).ok
        assert validate_semiring(q).ok


def test_quotient_by_whole_thing():
    s = f2_ternary()
    q, proj = quotient(s, GammaIdeal(s, frozenset({0, 1})))
    assert q.T.size == 1


def test_quotient_z4_by_02():
    s = z4_ternary()
    q, proj = quotient(s, GammaIdeal(s, frozenset({0, 2})))
    assert q.T.size == 2
    assert q.mu_table == f2_ternary().mu_table
    assert proj.map == (0, 1, 0, 1)
    assert validate_morphism(proj).ok


def test_is_prime():
    f2 = f2_ternary()
    assert is_prime(f2, GammaIdeal(f2, frozenset({0}))).ok
    z4 = z4_ternary()
    res = is_prime(z4, GammaIdeal(z4, frozenset({0})))
    assert not res.ok
    xs, gs = res.witness
    assert z4.mu(xs, gs) == 0 and 0 not in xs
    # (2,2,2) is the canonical violating tuple: 2*2*2 = 0 with no zero factor.
    assert z4.mu((2, 2, 2), (0, 0)) == 0
    assert is_prime(z4, GammaIdeal(z4, frozenset({0, 2}))).ok
    b = boolean_ternary()
    assert is_prime(b, GammaIdeal(b, frozenset({0}))).ok
    with pytest.raises(StructuralError):
        is_prime(f2, GammaIdeal(f2, frozenset({0, 1})))


def test_spectrum_bundled():
    f2 = f2_ternary()
    data = spectrum(f2)
    assert [p.sorted_members() for p in data.primes] == [[0]]
    assert data.closed_sets[GammaIdeal(f2, frozenset({0})).bitmask] == (0,)
    assert data.closed_sets[GammaIdeal(f2, frozenset({0, 1})).bitmask] == ()

    z4 = z4_ternary()
    data = spectrum(z4)
    assert [p.sorted_members() for p in data.primes] == [[0, 2]]

    b = boolean_ternary()
    assert [p.sorted_members() for p in spectrum(b).primes] == [[0]]


def test_spectrum_one_element_semiring():
    s = f2_ternary()
    q, _ = quotient(s, GammaIdeal(s, frozenset({0, 1})))
    data = spectrum(q)
    assert data.primes == ()


def test_primality_preserved_by_quotient():
    for s in (f2_ternary(), z4_ternary(), boolean_ternary()):
        for p in spectrum(s).primes:
            q, proj = quotient(s, p)
            zero_class = GammaIdeal(q, frozenset({q.T.zero}))
            if zero_class.is_proper():
                assert is_prime(q, zero_class).ok


def test_quotient_then_generate_image_is_zero_ideal():
    s = z4_ternary()
    ideal = GammaIdeal(s, frozenset({0, 2}))
    q, proj = quotient(s, ideal)
    image = {proj(x) for x in ideal.members}
    closed = generate_ideal(q, image)
    assert closed.members == {q.T.zero}


def test_topology_report():
    facts = topology_report(spectrum(z4_ternary()))
    assert all(f.endswith("True") for f in facts)


# ---------------------------------------------------------------------------
# Table reads by runs against per-cell references
# ---------------------------------------------------------------------------

def _cell_insertion_masks(s):
    """ins[y] by reading every cell through ``mu``."""
    ins = [0] * s.T.size
    for xs in s.t_tuples(s.n):
        for gs in s.g_tuples(s.n - 1):
            for x in xs:
                ins[x] |= 1 << s.mu(xs, gs)
    return ins


def _cell_close(t, ins, mask, seed):
    """The smallest ideal above ``mask`` and ``seed`` as a fixpoint over every
    pair sum, through ``FiniteAddMonoid.add``."""
    for e in seed:
        mask |= 1 << e
    while True:
        members = [e for e in range(t.size) if mask >> e & 1]
        grown = mask
        for a in members:
            grown |= ins[a]
            for b in members:
                grown |= 1 << t.add(a, b)
        if grown == mask:
            return mask
        mask = grown


def _cell_all_ideals(s):
    """Bitmasks of every ideal by the worklist over per-cell closures."""
    ins = _cell_insertion_masks(s)
    found = {_cell_close(s.T, ins, 0, [s.T.zero])}
    work = list(found)
    while work:
        mask = work.pop()
        for x in range(s.T.size):
            bigger = _cell_close(s.T, ins, mask, [x])
            if bigger not in found:
                found.add(bigger)
                work.append(bigger)
    return sorted(found)


def _cell_check_ideal(s, members):
    """Both ideal conditions, every insertion read through ``mu``."""
    mem = set(members)
    if s.T.zero not in mem:
        return core.AxiomCheck("ideal", False, ("missing zero",))
    for a in mem:
        for b in mem:
            if s.T.add(a, b) not in mem:
                return core.AxiomCheck("ideal", False, ("add", a, b))
    for y in sorted(mem):
        for j in range(s.n):
            for rest in s.t_tuples(s.n - 1):
                for gs in s.g_tuples(s.n - 1):
                    if s.mu(rest[:j] + (y,) + rest[j:], gs) not in mem:
                        return core.AxiomCheck("ideal", False, ("insert", j + 1, y, rest, gs))
    return core.AxiomCheck("ideal", True)


def _cell_is_prime(s, p):
    """Primality over every (xs, gs) in table order, through ``mu``."""
    if not p.is_proper():
        raise StructuralError("primality requires a proper ideal")
    for xs in s.t_tuples(s.n):
        for gs in s.g_tuples(s.n - 1):
            if s.mu(xs, gs) in p.members and not any(x in p.members for x in xs):
                return core.AxiomCheck("prime", False, (xs, gs))
    return core.AxiomCheck("prime", True)


def _members(mask, size):
    return frozenset(e for e in range(size) if mask >> e & 1)


def _semirings_and_mutants():
    """Every regular family, and seeded single-entry mutants of each."""
    for family, s in REGULAR_FAMILIES.items():
        rng = random.Random(f"ideals-by-runs/{family}")
        yield s
        for _ in range(6 if s.T.size <= 4 else 2):
            yield oracle.mutate_semiring(s, rng)


def test_table_reads_by_runs_equal_cell_references(monkeypatch):
    seen, rng = Counter(), random.Random("ideals-by-runs/subsets")
    for s in _semirings_and_mutants():
        size = s.T.size
        ins = _cell_insertion_masks(s)
        assert ideals._insertion_masks(s) == ins, s.name
        masks = _cell_all_ideals(s)
        assert [i.bitmask for i in all_ideals(s)] == masks, s.name
        seen["non-commutative"] += bool(s.T.validate())
        for seed in [[x] for x in range(size)] + [rng.sample(range(size), 2) for _ in range(4)]:
            assert generate_ideal(s, seed).bitmask == \
                _cell_close(s.T, ins, 0, [s.T.zero, *seed]), (s.name, seed)
        # Subsets to check: every ideal, additive closures of random seeds
        # (which pass the sum condition and test the insertions), and every
        # subset of a small carrier.
        subsets = [_members(m, size) for m in masks]
        subsets += [frozenset(s.T.additive_closure(rng.sample(range(size), k)))
                    for k in (1, 2) for _ in range(6)]
        if size <= 4:
            subsets += [_members(m, size) for m in range(1 << size)]
        for mem in subsets:
            got = check_ideal(s, mem)
            assert got == _cell_check_ideal(s, mem), (s.name, sorted(mem))
            if not got.ok:
                seen[f"{got.witness[0]} witness"] += 1
        # Primality of every proper subset above: the test reads p's members
        # only, so non-ideals give failing witnesses too.
        for mem in subsets:
            p = GammaIdeal(s, mem)
            if p.is_proper():
                got = is_prime(s, p)
                assert got == _cell_is_prime(s, p), (s.name, sorted(mem))
                seen["prime" if got.ok else "prime witness"] += 1
        with monkeypatch.context() as m:
            m.setattr(ideals, "_insertion_masks", _cell_insertion_masks)
            m.setattr(ideals, "_close", _cell_close)
            m.setattr(ideals, "is_prime", _cell_is_prime)
            want = spectrum(s)
            want_report = topology_report(want)
        got = spectrum(s)
        assert got == want and topology_report(got) == want_report, s.name
    assert min(seen[k] for k in ("non-commutative", "add witness", "insert witness",
                                 "prime witness", "prime")) >= 3, seen


def test_spectrum_reads_no_cell_by_call(monkeypatch):
    s = make_matrix_family(f2_semiring(), 2, 3)
    calls = []
    mu, add = core.NaryGammaSemiring.mu, core.FiniteAddMonoid.add
    monkeypatch.setattr(core.NaryGammaSemiring, "mu",
                        lambda self, *a: calls.append("mu") or mu(self, *a))
    monkeypatch.setattr(core.FiniteAddMonoid, "add",
                        lambda self, *a: calls.append("add") or add(self, *a))
    data = spectrum(s)
    assert calls == []
    assert [i.bitmask for i in data.ideals] == [1, (1 << 16) - 1]


# ---------------------------------------------------------------------------
# The closure exit: a closure whose queued elements cover the carrier is T
# ---------------------------------------------------------------------------

FULL16 = (1 << 16) - 1

# name: (builder, the exit fires on every closure from a reached ideal,
# (elements the closures of all_ideals add, elements they admit), ideal
# bitmasks, prime bitmasks).  A closure that admitted every element it adds
# would make as many admissions as it adds elements.
CLOSURE_CASES = {
    "binary m2f2": (lambda: make_matrix_family(f2_semiring(), 2, 2), True, (226, 43),
                    [1, FULL16], []),
    "ternary m2f2": (lambda: make_matrix_family(f2_semiring(), 2, 3), True, (226, 40),
                     [1, FULL16], []),
    "binary m2b": (lambda: make_matrix_family(boolean_semiring(), 2, 2), True, (226, 151),
                   [1, FULL16], []),
    "gamma-scaled z4": (core.gamma_scaled_z4, False, (12, 8), [0b1, 0b101, 0b1111], []),
    "ternary z12": (lambda: core.ternary_from_semiring(core.zmod_semiring(12)), False,
                    (289, 88),
                    [0b1, 0b1000001, 0b100010001, 0b1001001001, 0b10101010101, (1 << 12) - 1],
                    [0b1001001001, 0b10101010101]),
    "f2[x]/x^3": (lambda: core.truncated_polynomial(2, 3), False, (80, 24),
                  [0b1, 0b10001, 0b1010101, 0b11111111], [0b1010101]),
}


@pytest.mark.parametrize("case", list(CLOSURE_CASES))
def test_closures_stop_at_the_whole_carrier(monkeypatch, case):
    build, fires_always, counts, ideal_masks, prime_masks = CLOSURE_CASES[case]
    s = build()
    ref_ins = _cell_insertion_masks(s)
    # Each admitted element reads its insertion mask once, and nothing else
    # reads one, so the reads count the admissions.
    reads = [0]

    class Counting(list):
        def __getitem__(self, y):
            reads[0] += 1
            return list.__getitem__(self, y)

    masks, close, closures = ideals._insertion_masks, ideals._close, []

    def recording(t, ins, mask, seed):
        before = reads[0]
        out = close(t, ins, mask, seed)
        assert out == _cell_close(t, ref_ins, mask, seed)
        closures.append((bin(out & ~mask).count("1"), reads[0] - before))
        return out

    with monkeypatch.context() as m:
        m.setattr(ideals, "_insertion_masks", lambda s: Counting(masks(s)))
        m.setattr(ideals, "_close", recording)
        found = all_ideals(s)
    assert tuple(map(sum, zip(*closures))) == counts
    # The exit fires when a closure admits fewer elements than it adds; the
    # first closure, of the zero alone, is a proper ideal in every case.
    fired = [admitted < added for added, admitted in closures]
    assert not fired[0] and all(fired[1:]) == fires_always and any(fired[1:])

    data = spectrum(s)
    assert [i.bitmask for i in found] == [i.bitmask for i in data.ideals] == ideal_masks
    assert ideal_masks == oracle.subset_scan_ideals(s)
    assert [p.bitmask for p in data.primes] == prime_masks
    assert prime_masks == oracle.subset_scan_primes(s, ideal_masks)
    assert topology_report(data) == [
        "V(zero ideal) = all primes: True", "V(T) empty: True",
        "V(I and J) contains V(I) union V(J): True", "V(I+J) = V(I) intersect V(J): True"]
    assert [generate_ideal(s, [x]).bitmask for x in range(s.T.size)] == [
        _cell_close(s.T, ref_ins, 0, [s.T.zero, x]) for x in range(s.T.size)]
