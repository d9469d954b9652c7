"""Ideals, quotients, and the prime spectrum of a finite n-ary semiring.

An ideal is an additive submonoid closed under inserting any of its elements
into any multiplication slot.  Quotients use the standard semiring congruence
(x ~ y when x+i = y+j for ideal elements i, j), since cosets of a submonoid
need not partition the carrier.
"""

from __future__ import annotations

from itertools import product

from .core import (
    AxiomCheck, BoundExceeded, FiniteAddMonoid, GammaSemiringMorphism,
    NaryGammaSemiring, Record, StructuralError, congruence_closure, flatten_index, _set,
)

DEFAULT_SIZE_BOUND = 16


class GammaIdeal(Record):
    _fields = ("parent", "members")

    def __init__(self, parent: NaryGammaSemiring, members: frozenset[int]):
        _set(self, "parent", parent)
        _set(self, "members", members)

    @property
    def bitmask(self) -> int:
        return sum(1 << e for e in self.members)

    def is_proper(self) -> bool:
        return len(self.members) < self.parent.T.size

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __str__(self):
        return "{" + ",".join(map(str, self.sorted_members())) + "}"


def check_ideal(s: NaryGammaSemiring, members) -> AxiomCheck:
    """Both ideal conditions against an explicit subset; only the first
    member whose insertion mask escapes it is walked for the witness."""
    mem = set(members)
    if s.T.zero not in mem:
        return AxiomCheck("ideal", False, ("missing zero",))
    for a in mem:
        for b in mem:
            if s.T.add(a, b) not in mem:
                return AxiomCheck("ideal", False, ("add", a, b))
    ins, outside = _insertion_masks(s), ~sum(1 << y for y in mem)
    n = s.n
    for y in sorted(mem):
        if not ins[y] & outside:
            continue
        for j in range(n):
            for rest in s.t_tuples(n - 1):
                for gs in s.g_tuples(n - 1):
                    xs = rest[:j] + (y,) + rest[j:]
                    if s.mu(xs, gs) not in mem:
                        return AxiomCheck("ideal", False, ("insert", j + 1, y, rest, gs))
    return AxiomCheck("ideal", True)


def _insertion_masks(s: NaryGammaSemiring) -> list[int]:
    """ins[y]: bitmask of every product with y in some carrier slot.  The
    entries with y in slot p are one run of ``stride`` entries per block of
    the table; each run is sliced whole, or each offset across blocks."""
    size, table = s.T.size, s.mu_table
    seen = [set() for _ in range(size)]
    stride = len(table)
    for _ in range(s.n):
        block, stride = stride, stride // size
        for y, vals in enumerate(seen):
            if stride * block < len(table):  # fewer offsets than blocks
                for k in range(y * stride, (y + 1) * stride):
                    vals.update(table[k::block])
            else:
                for k in range(y * stride, len(table), block):
                    vals.update(table[k:k + stride])
    return [sum(1 << v for v in vals) for vals in seen]


def _members(mask: int, size: int) -> list[int]:
    return [e for e in range(size) if mask >> e & 1]


def _close(t: FiniteAddMonoid, ins, mask: int, seed) -> int:
    """Smallest ideal containing an ideal ``mask`` and ``seed``, as a bitmask.

    Each element on entry is summed in both orders against every member,
    itself included, so every pair is covered once its later element enters;
    y's row and column of the addition table are sliced once.  An element is
    queued once, and every queued element lies in the closure, so once the
    queued elements cover the carrier the closure is the whole carrier (an
    ideal) and is returned without admitting the rest.
    """
    size, add = t.size, t.add_table
    full = (1 << size) - 1
    members = _members(mask, size)
    queued = mask
    for y in seed:
        queued |= 1 << y
    frontier = _members(queued & ~mask, size)
    while frontier:
        if queued == full:
            return full
        y = frontier.pop()
        mask |= 1 << y
        members.append(y)
        row, col = add[y * size:(y + 1) * size], add[y::size]
        new = ins[y]
        for a in members:
            new |= 1 << row[a] | 1 << col[a]
        fresh = new & ~queued
        queued |= fresh
        while fresh:
            frontier.append((fresh & -fresh).bit_length() - 1)
            fresh &= fresh - 1
    return mask


def _ideal(s: NaryGammaSemiring, mask: int) -> GammaIdeal:
    return GammaIdeal(s, frozenset(_members(mask, s.T.size)))


def generate_ideal(s: NaryGammaSemiring, seed) -> GammaIdeal:
    """Smallest ideal containing the seed."""
    return _ideal(s, _close(s.T, _insertion_masks(s), 0, [s.T.zero, *seed]))


def all_ideals(s: NaryGammaSemiring, bound: int = DEFAULT_SIZE_BOUND) -> list[GammaIdeal]:
    """Every ideal, in ascending bitmask order; refuses oversized carriers.

    A worklist from the smallest ideal: each ideal found is closed with each
    non-member in turn.  Any ideal J is reached, since closing a reached
    I ⊊ J with some x in J∖I gives a larger ideal that stays inside J.
    """
    size = s.T.size
    if size > bound:
        raise BoundExceeded(f"carrier size {size} exceeds the bound {bound}")
    ins = _insertion_masks(s)
    start = _close(s.T, ins, 0, [s.T.zero])
    found, work = {start}, [start]
    while work:
        mask = work.pop()
        for x in _members(~mask, size):
            bigger = _close(s.T, ins, mask, [x])
            if bigger not in found:
                found.add(bigger)
                work.append(bigger)
    return [_ideal(s, mask) for mask in sorted(found)]


def coset_congruence(monoid: FiniteAddMonoid, members):
    """(class_of, reps) for x ~ y iff x+i = y+j with i, j in ``members``."""
    size = monoid.size
    cosets = [{monoid.add(x, i) for i in members} for x in range(size)]
    return congruence_closure(size, ((x, y) for x in range(size)
                                     for y in range(x + 1, size)
                                     if cosets[x] & cosets[y]))


def quotient_monoid(monoid: FiniteAddMonoid, cls, reps) -> FiniteAddMonoid:
    """The monoid on classes, added through their representatives."""
    k = len(reps)
    return FiniteAddMonoid(k, tuple(cls[monoid.add(reps[a], reps[b])]
                                    for a in range(k) for b in range(k)),
                           cls[monoid.zero])


def quotient(s: NaryGammaSemiring, ideal: GammaIdeal):
    """(quotient semiring, projection morphism).

    ``modules.quotient_projection`` checks that the multiplication descends;
    the quotient table is then read at class representatives.
    """
    from .modules import quotient_projection, regular_bimodule

    if ideal.parent is not s and ideal.parent != s:
        raise StructuralError("ideal belongs to a different semiring")
    name = f"{s.name}/{GammaIdeal(s, ideal.members)}"
    proj = quotient_projection(regular_bimodule(s), ideal.members, name)
    cls, t = proj.map, proj.target.M
    # Classes are numbered by their least member.
    reps = [cls.index(c) for c in range(t.size)]
    mu = tuple(cls[s.mu(tuple(reps[x] for x in xs), gs)]
               for xs in product(range(len(reps)), repeat=s.n) for gs in s.g_tuples(s.n - 1))
    q = NaryGammaSemiring(s.n, t, s.gamma, mu, name=name)
    return q, GammaSemiringMorphism(s, q, cls)


def is_prime(s: NaryGammaSemiring, p: GammaIdeal) -> AxiomCheck:
    """Exhaustive primality test; failure carries the first violating tuple.
    Only tuples of non-members can violate it, so only their rows are read."""
    if not p.is_proper():
        raise StructuralError("primality requires a proper ideal")
    size, cells, table = s.T.size, s.gamma.size ** (s.n - 1), s.mu_table
    non = [x for x in range(size) if x not in p.members]
    for head in product(non, repeat=s.n - 1):
        base = flatten_index(head, s.sizes) * size
        for x in non:
            row = table[(base + x) * cells:(base + x + 1) * cells]
            if not p.members.isdisjoint(row):
                gs = next(gs for gs, v in zip(s.g_tuples(s.n - 1), row) if v in p.members)
                return AxiomCheck("prime", False, (head + (x,), gs))
    return AxiomCheck("prime", True)


class SpectrumData(Record):
    """``closed_sets`` maps each ideal's bitmask to the indices into
    ``primes`` of V(I), in ideal order."""

    _fields = ("semiring", "ideals", "primes", "closed_sets")

    def __init__(self, semiring: NaryGammaSemiring, ideals: tuple[GammaIdeal, ...],
                 primes: tuple[GammaIdeal, ...], closed_sets: dict[int, tuple[int, ...]]):
        _set(self, "semiring", semiring)
        _set(self, "ideals", ideals)
        _set(self, "primes", primes)
        _set(self, "closed_sets", closed_sets)


def spectrum(s: NaryGammaSemiring, bound: int = DEFAULT_SIZE_BOUND) -> SpectrumData:
    ideals = all_ideals(s, bound)
    primes = tuple(i for i in ideals if i.is_proper() and is_prime(s, i).ok)
    closed = {ideal.bitmask: tuple(k for k, p in enumerate(primes)
                                   if ideal.members <= p.members) for ideal in ideals}
    return SpectrumData(s, tuple(ideals), primes, closed)


def topology_report(data: SpectrumData) -> list[str]:
    """Observed topology facts; computed extensionally, never assumed."""
    facts = []
    by_mask = data.closed_sets
    zero_mask = 1 << data.semiring.T.zero
    full = tuple(range(len(data.primes)))
    facts.append(f"V(zero ideal) = all primes: {by_mask.get(zero_mask) == full}")
    top_mask = (1 << data.semiring.T.size) - 1
    if top_mask in by_mask:
        facts.append(f"V(T) empty: {by_mask[top_mask] == ()}")
    ok_union = all(set(by_mask[m1]) | set(by_mask[m2]) <= set(by_mask[m1 & m2])
                   for m1 in by_mask for m2 in by_mask if m1 & m2 in by_mask)
    facts.append(f"V(I and J) contains V(I) union V(J): {ok_union}")
    t, ins = data.semiring.T, _insertion_masks(data.semiring)
    joins = ((m1, m2, _close(t, ins, m1, _members(m2, t.size)))
             for m1 in by_mask for m2 in by_mask)
    ok_inter = all(set(by_mask[join]) == set(by_mask[m1]) & set(by_mask[m2])
                   for m1, m2, join in joins if join in by_mask)
    facts.append(f"V(I+J) = V(I) intersect V(J): {ok_inter}")
    return facts
