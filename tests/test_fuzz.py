"""Randomized cross-checks of the exact kernels against brute force."""

import random
from itertools import product

from hypothesis import given, settings, strategies as st

from ngamma import oracle
from ngamma.abgroups import AbGroup, GroupMap
from ngamma.core import (
    FiniteAddMonoid, GammaSemigroup, NaryGammaSemiring, congruence_closure,
)
from ngamma.homology import Complex, homology
from ngamma.ideals import all_ideals, generate_ideal
from ngamma.modules import _generator_counts, additive_maps


@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_homology_vs_bruteforce_on_random_complexes(m, a, b, c, rnd):
    g0 = AbGroup((m,) * a)
    g1 = AbGroup((m,) * b)
    g2 = AbGroup((m,) * c)
    d1 = GroupMap(g1, g0, [[rnd.randrange(m) for _ in range(b)] for _ in range(a)],
                  check=False)
    # Columns of d2 come from the kernel of d1 mod m, so d1 . d2 = 0.
    kernel_vecs = [v for v in product(range(m), repeat=b)
                   if d1(v) == g0.zero()]
    cols = [list(rnd.choice(kernel_vecs)) for _ in range(c)]
    d2 = GroupMap(g2, g1, [[cols[j][i] for j in range(c)] for i in range(b)],
                  check=False)
    chain = Complex([g0, g1, g2], {1: d1, 2: d2})
    hs = homology(chain)
    for r in range(3):
        assert hs[r].invariant_factors() == \
            oracle.homology_orders_bruteforce(chain, r)
    # les_check reads a chain complex as the cochain complex indexed backwards.
    reversal = chain.reversed()
    assert reversal.step == 1
    assert homology(reversal) == hs[::-1]


def _closure_bruteforce(size, pairs, maps):
    """Least relation containing pairs, reflexive, symmetric, transitive and
    closed under every translation map, by iteration to a fixed point."""
    rel = {(x, x) for x in range(size)} | set(pairs)
    while True:
        succ = {x: {y for (u, y) in rel if u == x} for x in range(size)}
        new = set(rel)
        new |= {(y, x) for (x, y) in rel}
        new |= {(t[x], t[y]) for t in maps for (x, y) in rel}
        new |= {(x, z) for (x, y) in rel for z in succ[y]}
        if new == rel:
            return rel
        rel = new


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_congruence_closure_matches_fixed_point(data):
    size = data.draw(st.integers(1, 30))
    elem = st.integers(0, size - 1)
    pairs = data.draw(st.lists(st.tuples(elem, elem), max_size=12))
    maps = data.draw(st.lists(st.lists(elem, min_size=size, max_size=size),
                              max_size=2))
    translate = (lambda u, v: [(t[u], t[v]) for t in maps]) if maps else None
    class_of, reps = congruence_closure(size, pairs, translate)
    rel = _closure_bruteforce(size, pairs, maps)
    smallest = [min(y for y in range(size) if (x, y) in rel) for x in range(size)]
    want_reps = sorted(set(smallest))
    assert reps == want_reps
    assert class_of == [want_reps.index(m) for m in smallest]


def _monoid_pool(size):
    pool = [FiniteAddMonoid(size, tuple((x + y) % size
                                        for x in range(size) for y in range(size))),
            FiniteAddMonoid(size, tuple(min(x + y, size - 1)
                                        for x in range(size) for y in range(size)))]
    if size == 4:
        elems = list(product(range(2), repeat=2))
        idx = {e: i for i, e in enumerate(elems)}
        pool.append(FiniteAddMonoid(4, tuple(
            idx[((p[0] + q[0]) % 2, (p[1] + q[1]) % 2)]
            for p in elems for q in elems)))
        pool.append(FiniteAddMonoid(4, tuple(
            idx[((p[0] + q[0]) % 2, min(p[1] + q[1], 1))]
            for p in elems for q in elems)))
    return pool


def test_generator_counts_sum_to_each_element():
    # The tensor ambient writes each right element as one fixed sum of the
    # additive generators; a generator is its own unit vector.
    for size in range(1, 5):
        for m in _monoid_pool(size):
            gens = m.additive_generators()
            counts = _generator_counts(m, gens)
            for x in range(m.size):
                assert m.sum(g for g, c in zip(gens, counts[x]) for _ in range(c)) == x
            for i, g in enumerate(gens):
                assert counts[g] == tuple(int(q == i) for q in range(len(gens)))


def _additive_maps_by_sum_expressions(src, dst):
    """Additive maps as enumerated through a fixpoint of sum expressions."""
    gens = src.additive_generators()
    expr = {src.zero: ("zero",)}
    for idx, g in enumerate(gens):
        if g not in expr:
            expr[g] = ("gen", idx)
        changed = True
        while changed:
            changed = False
            known = list(expr)
            for x in known:
                for y in known:
                    z = src.add(x, y)
                    if z not in expr:
                        expr[z] = ("sum", x, y)
                        changed = True
    out = []
    for images in product(range(dst.size), repeat=len(gens)):
        val = {}
        for e, tag in expr.items():
            if tag[0] == "zero":
                val[e] = dst.zero
            elif tag[0] == "gen":
                val[e] = images[tag[1]]
            else:
                val[e] = dst.add(val[tag[1]], val[tag[2]])
        f = tuple(val[e] for e in range(src.size))
        if all(f[src.add(x, y)] == dst.add(f[x], f[y])
               for x in range(src.size) for y in range(src.size)):
            out.append(f)
    return list(dict.fromkeys(out))


def test_additive_maps_match_the_sum_expression_enumerator():
    # The same maps in the same order, on every pair from the monoid pool.
    pool = [m for size in range(1, 5) for m in _monoid_pool(size)]
    for src in pool:
        for dst in pool:
            assert additive_maps(src, dst) == _additive_maps_by_sum_expressions(src, dst)


def test_group_order_statistics_on_random_orders():
    rng = random.Random(17)
    for _ in range(40):
        orders = tuple(rng.choice((2, 3, 4, 6, 8))
                       for _ in range(rng.randrange(1, 3)))
        g = AbGroup(orders)
        elems = list(g.elements())
        got = oracle.invariants_from_orders(elems, g.add, g.zero())
        assert got == g.invariant_factors()


@given(st.integers(1, 7), st.sampled_from((2, 3)), st.integers(1, 2),
       st.sampled_from((1.0, 0.3, 0.1, 0.02)), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_ideal_closure_matches_subset_scan(t, n, g, density, rnd):
    # Arbitrary tables: the addition need not commute or have its zero as
    # identity.  Entries other than the zero are drawn with probability
    # ``density``; sparse tables have many ideals, dense ones rarely more
    # than the full carrier.
    zero = rnd.randrange(t)

    def table(cells):
        return tuple(rnd.randrange(t) if rnd.random() < density else zero
                     for _ in range(cells))

    gamma = GammaSemigroup(g, tuple((a + b) % g for a in range(g) for b in range(g)))
    s = NaryGammaSemiring(n, FiniteAddMonoid(t, table(t * t), zero), gamma,
                          table(t ** n * g ** (n - 1)))
    masks = oracle.subset_scan_ideals(s)
    assert [i.bitmask for i in all_ideals(s)] == masks
    seed = [x for x in range(t) if rnd.random() < 0.3]
    over = [m for m in masks if all(m >> x & 1 for x in seed)]
    smallest = min(over, key=lambda m: bin(m).count("1"))
    assert all(m & smallest == smallest for m in over)
    assert generate_ideal(s, seed).bitmask == smallest
