from itertools import combinations

import pytest

from ngamma import oracle
from ngamma.core import (
    BoundExceeded, FiniteAddMonoid, NaryGammaSemiring, StructuralError,
    boolean_semiring, boolean_ternary, f2_ternary, make_matrix_family,
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
    assert data.closed_set_of(GammaIdeal(f2, frozenset({0}))) == (0,)
    assert data.closed_set_of(GammaIdeal(f2, frozenset({0, 1}))) == ()

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
