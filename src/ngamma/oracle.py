"""Brute-force recomputations, independent of the engine's code paths.

Everything here uses direct definition scans: full-table axiom enumeration
with no generator reduction, subset scans for ideals, all-maps filters for
Hom and injectivity probes, an explicit shift-edge search for tensor
presentations, and element-listing homology with invariants reconstructed
from order statistics instead of normal forms.

The axiom, Hom and tensor scans still enumerate every instance, but read
each table cell once per call (mu through ``s.mu``, actions through
``b.act`` by ``action_columns``) and test each distinct constraint once.

Each scan refuses past its own bound, read when it runs: the carrier size of
a subset scan (ORACLE_CARRIER_BOUND), the |dst|^|src| tables of a map filter
(ORACLE_MAP_BOUND), the |y|^|x| maps of a completed hom filter
(ORACLE_HOM_BOUND) and the points of a tensor counter box (ORACLE_BOX_BOUND).
The engine caps other quantities, such as |dst|^g map candidates.
"""

from __future__ import annotations

import random
from itertools import product
from math import prod

from .core import (
    AxiomCheck, BoundExceeded, FiniteAddMonoid, GammaSemigroup, NaryGammaSemiring,
    SoundnessError,
)
from .modules import BiGammaModule
from .completion import CompletedModule

ORACLE_CARRIER_BOUND = 16
ORACLE_MAP_BOUND = 300000
ORACLE_HOM_BOUND = 100000
ORACLE_BOX_BOUND = 8000


# ---------------------------------------------------------------------------
# Axioms, the slow way
# ---------------------------------------------------------------------------

def naive_axiom_failures(s: NaryGammaSemiring) -> list[tuple[str, tuple]]:
    """Every axiom violation, by direct full enumeration.

    Each mu cell is read once, through ``s.mu``, into a local table; slot and
    parameter additivity, absorption and every bracketing of every word of
    length 2n - 1 read that table.
    """
    bad = []
    t, g, n = s.T, s.gamma, s.n
    for a in range(t.size):
        for b in range(t.size):
            if t.add(a, b) != t.add(b, a):
                bad.append(("monoid-commutative", (a, b)))
            for c in range(t.size):
                if t.add(t.add(a, b), c) != t.add(a, t.add(b, c)):
                    bad.append(("monoid-associative", (a, b, c)))
        if t.add(t.zero, a) != a:
            bad.append(("monoid-zero", (a,)))
    for a in range(g.size):
        for b in range(g.size):
            if g.add(a, b) != g.add(b, a):
                bad.append(("gamma-commutative", (a, b)))
            for c in range(g.size):
                if g.add(g.add(a, b), c) != g.add(a, g.add(b, c)):
                    bad.append(("gamma-associative", (a, b, c)))
    all_x = list(product(range(t.size), repeat=n))
    all_g = list(product(range(g.size), repeat=n - 1))
    mu = {(xs, gs): s.mu(xs, gs) for xs in all_x for gs in all_g}
    for xs in all_x:
        for gs in all_g:
            val = mu[xs, gs]
            for jj in range(n):
                for y in range(t.size):
                    ys = xs[:jj] + (y,) + xs[jj + 1:]
                    summed = xs[:jj] + (t.add(xs[jj], y),) + xs[jj + 1:]
                    if mu[summed, gs] != t.add(val, mu[ys, gs]):
                        bad.append(("slot-additivity", (jj, xs, y, gs)))
            for kk in range(n - 1):
                for d in range(g.size):
                    # Self-sums at idempotent parameters are exempt, matching
                    # the documented reading of parameter additivity.
                    if d == gs[kk] and g.add(d, d) == d:
                        continue
                    hs = gs[:kk] + (d,) + gs[kk + 1:]
                    summed = gs[:kk] + (g.add(gs[kk], d),) + gs[kk + 1:]
                    if mu[xs, summed] != t.add(val, mu[xs, hs]):
                        bad.append(("parameter-additivity", (kk, xs, gs, d)))
            if t.zero in xs and val != t.zero:
                bad.append(("zero-absorption", (xs, gs)))
            if g.has_zero and g.zero in gs and val != t.zero:
                bad.append(("gamma-zero-absorption", (xs, gs)))
    wlen = 2 * n - 1
    for xs in product(range(t.size), repeat=wlen):
        for gs in product(range(g.size), repeat=wlen - 1):
            vals = set()
            for i in range(wlen - n + 1):
                inner = mu[xs[i:i + n], gs[i:i + n - 1]]
                outer = xs[:i] + (inner,) + xs[i + n:]
                vals.add(mu[outer, gs[:i] + gs[i + n - 1:]])
            if len(vals) > 1:
                bad.append(("associativity", (xs, gs, tuple(sorted(vals)))))
    return bad


# ---------------------------------------------------------------------------
# Ideals and primes by subset scan
# ---------------------------------------------------------------------------

def subset_scan_ideals(s: NaryGammaSemiring) -> list[int]:
    """Bitmasks of every ideal, by scanning all carrier subsets."""
    size = s.T.size
    if size > ORACLE_CARRIER_BOUND:
        raise BoundExceeded(f"oracle subset scan of carrier size {size} "
                            f"exceeds its bound {ORACLE_CARRIER_BOUND}")
    out = []
    for mask in range(1 << size):
        members = {e for e in range(size) if mask >> e & 1}
        if s.T.zero not in members:
            continue
        if any(s.T.add(a, b) not in members for a in members for b in members):
            continue
        good = True
        for y in members:
            for jj in range(s.n):
                for rest in product(range(size), repeat=s.n - 1):
                    for gs in product(range(s.gamma.size), repeat=s.n - 1):
                        xs = rest[:jj] + (y,) + rest[jj:]
                        if s.mu(xs, gs) not in members:
                            good = False
                            break
                    if not good:
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            out.append(mask)
    return out


def subset_scan_primes(s: NaryGammaSemiring, ideals: list[int]) -> list[int]:
    """Bitmasks of every prime among ``ideals``, the ideal bitmasks of s as
    ``subset_scan_ideals`` returns them."""
    primes = []
    size = s.T.size
    for mask in ideals:
        members = {e for e in range(size) if mask >> e & 1}
        if len(members) == size:
            continue
        prime = True
        for xs in product(range(size), repeat=s.n):
            for gs in product(range(s.gamma.size), repeat=s.n - 1):
                if s.mu(xs, gs) in members and all(x not in members for x in xs):
                    prime = False
                    break
            if not prime:
                break
        if prime:
            primes.append(mask)
    return primes


# ---------------------------------------------------------------------------
# Hom and injectivity by filtering every map
# ---------------------------------------------------------------------------

def all_additive_maps(src: FiniteAddMonoid, dst: FiniteAddMonoid):
    """Additive maps among all |dst|^|src| tables, in ``itertools.product``
    order.

    Values are assigned in element order, and a partial table is dropped as
    soon as the zero law or a sum a + b = c among its assigned elements
    fails; a complete table has passed every sum and the zero law.
    """
    tables = dst.size ** src.size
    if tables > ORACLE_MAP_BOUND:
        raise BoundExceeded(f"oracle map enumeration of |dst|^|src| = {dst.size}^{src.size} "
                            f"= {tables} tables exceeds its bound {ORACLE_MAP_BOUND}")
    k = src.size
    # checks[i]: the sums that can be tested once element i is assigned
    checks = [[] for _ in range(k)]
    for a in range(k):
        for b in range(k):
            c = src.add(a, b)
            checks[max(a, b, c)].append((a, b, c))
    f: list[int] = []
    v = 0
    while True:
        if v == dst.size:
            if not f:
                return
            v = f.pop() + 1
            continue
        i = len(f)
        f.append(v)
        if (i != src.zero or v == dst.zero) and all(
                f[c] == dst.add(f[a], f[b]) for a, b, c in checks[i]):
            if i + 1 < k:
                v = 0
                continue
            yield tuple(f)
        v = f.pop() + 1


def action_columns(b: BiGammaModule) -> list[list[tuple[int, ...]]]:
    """The action of b, each cell read once through ``b.act``.

    columns[jj][f] is the tuple of b.act(jj, tother, m, gs) over the elements
    m, for the f-th filler (tother, gs) in ``product`` order: carriers outer,
    parameters inner.
    """
    s = b.parent
    fillers = list(product(product(range(s.T.size), repeat=s.n - 1),
                           product(range(s.gamma.size), repeat=s.n - 1)))
    return [[tuple(b.act(jj, tother, m, gs) for m in range(b.M.size))
             for tother, gs in fillers] for jj in range(s.n)]


def column_reader():
    """A function b -> action_columns(b) that reads each module once.

    It holds what it has read for as long as the caller keeps it, so one
    command makes one and lets the scans it runs share it.
    """
    read = {}

    def columns(b: BiGammaModule):
        # Keyed by identity; each entry keeps b alive, so no id is reused.
        if id(b) not in read:
            read[id(b)] = b, action_columns(b)
        return read[id(b)][1]
    return columns


def all_maps_hom(src: BiGammaModule, dst: BiGammaModule,
                 columns=action_columns) -> list[tuple[int, ...]]:
    """Additive equivariant maps found by filtering all additive maps.

    A map f is kept when f(src.act(..., m, ...)) = dst.act(..., f(m), ...)
    for every slot, filler and element; each distinct pair of a source and a
    target column, as ``columns`` gives them, is tested once.  The additive
    maps are listed first, so a refusal comes before any action is read.
    """
    additive = list(all_additive_maps(src.M, dst.M))
    pairs = list(dict.fromkeys(pair for scols, dcols in zip(columns(src), columns(dst))
                               for pair in zip(scols, dcols)))
    return [f for f in additive
            if all(f[sa[m]] == da[f[m]] for sa, da in pairs for m in range(src.M.size))]


def injectivity_probe(target: BiGammaModule, trials) -> list[AxiomCheck]:
    """Extension search for additive maps along inflations.

    Each trial is (conflation, maps) where maps is an explicit list of
    additive map tables A -> target, or None for all of them.  A trial passes
    when every map extends through the inflation to an additive map on the
    middle module.
    """
    out = []
    for tn, (conf, given) in enumerate(trials):
        a, b = conf.i.source, conf.i.target
        candidates = list(all_additive_maps(b.M, target.M))
        if given is None:
            given = all_additive_maps(a.M, target.M)
        failure = next((tuple(g) for g in given
                        if not any(all(h[conf.i(x)] == g[x] for x in range(a.M.size))
                                   for h in candidates)), None)
        out.append(AxiomCheck(f"injectivity trial {tn}", failure is None, failure))
    return out


def _multiple(x, k, add, zero):
    acc, base = zero, x
    while k:
        if k & 1:
            acc = add(acc, base)
        base = add(base, base)
        k >>= 1
    return acc


def _prime_list(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def invariants_from_orders(elements, add, zero) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from order statistics.

    For each prime p the counts |{x : p^e x = 0}| determine how many cyclic
    p-factors have exponent at least e; no normal forms are involved.
    """
    n = len(elements)
    if n <= 1:
        return ()
    per_prime: dict[int, list[int]] = {}
    for p in _prime_list(n):
        ms = [0]
        while True:
            e = len(ms)
            c = sum(1 for x in elements
                    if _multiple(x, p ** e, add, zero) == zero)
            me = 0
            while p ** me < c:
                me += 1
            if p ** me != c:
                raise SoundnessError(f"{c} elements are killed by {p}^{e}, "
                                     f"not a power of {p}")
            ms.append(me)
            if me == ms[-2]:
                break
        rs = [ms[e] - ms[e - 1] for e in range(1, len(ms))]
        facs = []
        for e in range(1, len(rs) + 1):
            exact = rs[e - 1] - (rs[e] if e < len(rs) else 0)
            facs += [p ** e] * exact
        per_prime[p] = sorted(facs)
    width = max((len(v) for v in per_prime.values()), default=0)
    out = []
    for kpos in range(width):
        f = 1
        for p, facs in per_prime.items():
            idx = kpos - (width - len(facs))
            if idx >= 0:
                f *= facs[idx]
        out.append(f)
    return tuple(f for f in out if f > 1)


def hom_group_bruteforce(x: CompletedModule, y: CompletedModule) -> tuple[int, ...]:
    """Invariant factors of the equivariant hom group by filtering all maps."""
    xs = list(x.group.elements())
    ys = list(y.group.elements())
    maps = len(ys) ** len(xs)
    if maps > ORACLE_HOM_BOUND:
        raise BoundExceeded(f"oracle hom-group enumeration of |y|^|x| = {len(ys)}^{len(xs)} "
                            f"= {maps} maps exceeds its bound {ORACLE_HOM_BOUND}")
    homs = []
    for values in product(ys, repeat=len(xs)):
        f = dict(zip(xs, values))
        if f[x.group.zero()] != y.group.zero():
            continue
        if any(f[x.group.add(u, v)] != y.group.add(f[u], f[v])
               for u in xs for v in xs):
            continue
        ok = True
        for slot in range(len(x.ops)):
            for w in range(len(x.ops[slot])):
                opx, opy = x.op(slot, w), y.op(slot, w)
                if any(f[opx(u)] != opy(f[u]) for u in xs):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(values)
    def addmap(f1, f2):
        return tuple(y.group.add(a, b) for a, b in zip(f1, f2))
    zero = tuple(y.group.zero() for _ in xs)
    return invariants_from_orders(homs, addmap, zero)


# ---------------------------------------------------------------------------
# Tensor presentations by shift-edge search
# ---------------------------------------------------------------------------

def tensor_presentation(left: BiGammaModule, right: BiGammaModule, j: int, k: int,
                        columns=action_columns):
    """The counter box and relations of the presented tensor monoid.

    Returns (caps, wraps, relations).  Generator i is the i-th nonzero pair
    (a, b); its count runs from 0 to caps[i], the length of its joint orbit,
    and count caps[i] equals count wraps[i], where the orbit turns periodic.
    relations holds one copy of each unordered pair of distinct count
    vectors that the additivity and slot-(j, k) balancing relations identify.
    The balancing relations of each distinct pair of a slot-j column of left
    and a slot-k column of right, as ``columns`` gives them, are added once;
    no action is read before the box bound is checked.
    """
    mz, nz = left.M.zero, right.M.zero
    gens = [(a, b) for a in range(left.M.size) for b in range(right.M.size)
            if a != mz and b != nz]
    if not gens:
        return [], [], []  # a one-point box, on which every relation is a loop
    gidx = {g: i for i, g in enumerate(gens)}

    def joint_orbit(a, b):
        seen = []
        x, y = mz, nz
        while (x, y) not in seen:
            seen.append((x, y))
            x, y = left.M.add(x, a), right.M.add(y, b)
        idx = seen.index((x, y))
        return idx, len(seen) - idx

    caps = []
    wraps = []
    for (a, b) in gens:
        idx, per = joint_orbit(a, b)
        caps.append(idx + per)
        wraps.append(idx)
    box = prod(c + 1 for c in caps)
    if box > ORACLE_BOX_BOUND:
        raise BoundExceeded(f"oracle tensor box of {box} points "
                            f"exceeds its bound {ORACLE_BOX_BOUND}")

    def one_hot(a, b):
        out = [0] * len(gens)
        if a != mz and b != nz:
            out[gidx[(a, b)]] = 1
        return out

    relations = []
    for a1 in range(left.M.size):
        for a2 in range(left.M.size):
            for b in range(right.M.size):
                lhs = one_hot(left.M.add(a1, a2), b)
                rhs = [p + q for p, q in zip(one_hot(a1, b), one_hot(a2, b))]
                relations.append((lhs, rhs))
    for a in range(left.M.size):
        for b1 in range(right.M.size):
            for b2 in range(right.M.size):
                lhs = one_hot(a, right.M.add(b1, b2))
                rhs = [p + q for p, q in zip(one_hot(a, b1), one_hot(a, b2))]
                relations.append((lhs, rhs))
    for lact, ract in dict.fromkeys(zip(columns(left)[j], columns(right)[k])):
        for a in range(left.M.size):
            for b in range(right.M.size):
                relations.append((one_hot(lact[a], b), one_hot(a, ract[b])))
    # Every relation adds its edges in both directions, so one copy of each
    # unordered pair gives the same edges, and lhs == rhs only gives loops.
    relations = list(dict.fromkeys(tuple(sorted((tuple(lhs), tuple(rhs))))
                                   for lhs, rhs in relations if lhs != rhs))
    return caps, wraps, relations


def tensor_class_count(left: BiGammaModule, right: BiGammaModule, j: int, k: int,
                       columns=action_columns) -> int:
    """Size of the presented tensor monoid via explicit relation edges.

    Vectors of generator multiplicities live in a box bounded by each
    generator's joint orbit; every relation instance contributes edges at
    every shift, and wrap edges fold the orbit periodicity in.  The class
    count is the number of connected components.
    """
    caps, wraps, relations = tensor_presentation(left, right, j, k, columns)
    sizes = [c + 1 for c in caps]
    weights = [prod(sizes[i + 1:]) for i in range(len(sizes))]

    def settle(i, v):
        # A count past its cap wraps into the periodic part of its orbit.
        return wraps[i] + (v - wraps[i]) % (caps[i] - wraps[i]) if v > caps[i] else v

    # Each kind of edge moves every count on its own, so it is the product
    # of one list of (old, new) moves per count.  A wrap edge takes count i
    # from caps[i] to wraps[i].  A relation direction src -> dst applies
    # where every count v is at least src's; it sends v to v - src + dst.
    # Off the support of src and dst every move is v -> v.
    kinds = [[[(caps[c], wraps[c])] if c == i else [(v, v) for v in range(size)]
              for c, size in enumerate(sizes)] for i in range(len(caps))]
    for lhs, rhs in relations:
        for src, dst in ((lhs, rhs), (rhs, lhs)):
            kinds.append([[(v, settle(c, v - a + b)) for v in range(a, size)]
                          for c, (a, b, size) in enumerate(zip(src, dst, sizes))])

    parent = list(range(prod(sizes)))

    def find(z):
        while parent[z] != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    for moves_per_count in kinds:
        edges = [(0, 0)]
        for moves, w in zip(moves_per_count, weights):
            edges = [(u + v * w, x + y * w) for u, x in edges for v, y in moves]
        for u, x in edges:
            ru, rx = find(u), find(x)
            if ru != rx:
                parent[max(ru, rx)] = min(ru, rx)

    return len({find(z) for z in range(len(parent))})


# ---------------------------------------------------------------------------
# Homology by element listing
# ---------------------------------------------------------------------------

def homology_orders_bruteforce(chain, degree: int) -> tuple[int, ...]:
    """Invariant factors at one degree by enumerating cycles and boundaries."""
    g = chain.groups[degree]
    dout = chain.d(degree)
    din = chain.d(degree + 1)
    cycles = [v for v in g.elements() if dout.dst.is_zero(dout(v))]
    if degree + 1 <= chain.top:
        boundaries = sorted({din(v) for v in chain.groups[degree + 1].elements()})
    else:
        boundaries = [g.zero()]
    bset = set(boundaries)
    reps = []
    seen = set()
    for v in cycles:
        if v in seen:
            continue
        coset = {g.add(v, b) for b in bset}
        seen |= coset
        reps.append(min(coset))

    def addcls(u, v):
        return min({g.add(g.add(u, v), b) for b in bset})

    return invariants_from_orders(reps, addcls, min(bset))


# ---------------------------------------------------------------------------
# Mutation drawing
# ---------------------------------------------------------------------------

def mutate_semiring(s: NaryGammaSemiring, rng: random.Random) -> NaryGammaSemiring:
    """One random single-entry table perturbation."""
    tsz, gsz = s.T.size, s.gamma.size
    npick = rng.randrange(len(s.T.add_table) + len(s.gamma.add_table)
                          + len(s.mu_table))
    if npick < len(s.T.add_table):
        table = list(s.T.add_table)
        new = rng.randrange(tsz - 1)
        if new >= table[npick]:
            new += 1
        table[npick] = new
        return NaryGammaSemiring(s.n, FiniteAddMonoid(tsz, tuple(table), s.T.zero),
                                 s.gamma, s.mu_table, name=s.name + "*")
    npick -= len(s.T.add_table)
    if npick < len(s.gamma.add_table):
        if gsz == 1:
            # No distinct value exists; fall through to mu mutation.
            return _mutate_mu(s, rng)
        table = list(s.gamma.add_table)
        new = rng.randrange(gsz - 1)
        if new >= table[npick]:
            new += 1
        table[npick] = new
        gam = GammaSemigroup(gsz, tuple(table), s.gamma.has_zero, s.gamma.zero)
        return NaryGammaSemiring(s.n, s.T, gam, s.mu_table, name=s.name + "*")
    return _mutate_mu(s, rng)


def _mutate_mu(s: NaryGammaSemiring, rng: random.Random) -> NaryGammaSemiring:
    table = list(s.mu_table)
    pos = rng.randrange(len(table))
    new = rng.randrange(s.T.size - 1)
    if new >= table[pos]:
        new += 1
    table[pos] = new
    return NaryGammaSemiring(s.n, s.T, s.gamma, tuple(table), name=s.name + "*")
