"""Finite two-sided modules over an n-ary parameterized semiring.

A module is a finite additive monoid together with one action table per
multiplication slot: slot j's table inserts the module element into position
j of the multiplication alongside n-1 carrier elements and a full parameter
tuple.  Hom modules enumerate equivariant additive maps; tensor modules are
commutative monoids computed by congruence closure on one left element per
additive generator of the right factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from math import prod

from .abgroups import SoundnessError
from .core import (
    AxiomCheck, AxiomReport, BoundExceeded, FiniteAddMonoid,
    NaryGammaSemiring, StructuralError, congruence_closure, first_incoherent_word,
    flatten_index, table_failures, unflatten_index,
)
from .ideals import GammaIdeal, coset_congruence, quotient_monoid


@dataclass(frozen=True)
class BiGammaModule:
    parent: NaryGammaSemiring
    M: FiniteAddMonoid
    act_tables: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        n = self.parent.n
        if len(self.act_tables) != n:
            raise StructuralError("one action table per slot is required")
        for j, tbl in enumerate(self.act_tables):
            if len(tbl) != prod(self._sizes[j]):
                raise StructuralError(f"slot {j + 1} action table has wrong size")
            if any(not (0 <= v < self.M.size) for v in tbl):
                raise StructuralError(f"slot {j + 1} action entry out of range")

    def _layout(self, j: int) -> list:
        """The monoid of each argument of slot j's table, slowest first.

        Carrier elements fill the n multiplication slots with the module
        element at slot j; the n-1 parameters follow.
        """
        s = self.parent
        return [s.T] * j + [self.M] + [s.T] * (s.n - 1 - j) + [s.gamma] * (s.n - 1)

    @cached_property
    def _sizes(self) -> tuple[tuple[int, ...], ...]:
        """Argument sizes of every slot table, per ``_layout``."""
        return tuple(tuple(m.size for m in self._layout(j)) for j in range(self.parent.n))

    def act(self, j: int, tother, m: int, gs) -> int:
        args = tuple(tother[:j]) + (m,) + tuple(tother[j:]) + tuple(gs)
        return self.act_tables[j][flatten_index(args, self._sizes[j])]

    @property
    def size(self) -> int:
        return self.M.size


def build_module(parent: NaryGammaSemiring, monoid: FiniteAddMonoid, act_fn,
                 name: str = "") -> BiGammaModule:
    """Tabulate act_fn(j, tother, m, gs) into dense slot tables."""
    n = parent.n
    tables = []
    for j in range(n):
        tbl = []
        # Flattening must match _layout: m interleaved at position j.
        for prefix in product(range(parent.T.size), repeat=j):
            for m in range(monoid.size):
                for suffix in product(range(parent.T.size), repeat=n - 1 - j):
                    for gs in parent.g_tuples(n - 1):
                        tbl.append(act_fn(j, prefix + suffix, m, gs))
        tables.append(tuple(tbl))
    return BiGammaModule(parent, monoid, tuple(tables), name=name)


def regular_bimodule(s: NaryGammaSemiring) -> BiGammaModule:
    """The carrier acting on itself through the multiplication.

    Slot j's layout (carriers with m at position j, then parameters) is the
    multiplication table's own, so every slot table is ``mu_table``.
    """
    return BiGammaModule(s, s.T, (s.mu_table,) * s.n, name=f"{s.name}.regular")


def zero_module(s: NaryGammaSemiring) -> BiGammaModule:
    one = FiniteAddMonoid(1, (0,), 0)
    return build_module(s, one, lambda j, tother, m, gs: 0, name=f"{s.name}.zero")


def ideal_submodule(s: NaryGammaSemiring, ideal: GammaIdeal) -> BiGammaModule:
    """An ideal as a module, elements re-indexed in ascending order."""
    members = ideal.sorted_members()
    index = {e: i for i, e in enumerate(members)}
    add = tuple(index[s.T.add(members[a], members[b])]
                for a in range(len(members)) for b in range(len(members)))
    monoid = FiniteAddMonoid(len(members), add, index[s.T.zero])
    return build_module(
        s, monoid,
        lambda j, tother, m, gs: index[s.mu(tother[:j] + (members[m],) + tother[j:], gs)],
        name=f"{s.name}.ideal{ideal}")


def quotient_module(s: NaryGammaSemiring, ideal: GammaIdeal) -> BiGammaModule:
    """The quotient carrier as a module over the original semiring."""
    cls, reps = coset_congruence(s.T, ideal.members)
    return build_module(
        s, quotient_monoid(s.T, cls, reps),
        lambda j, tother, m, gs: cls[s.mu(tother[:j] + (reps[m],) + tother[j:], gs)],
        name=f"{s.name}.mod{ideal}")


def direct_sum_modules(mods: list[BiGammaModule], name: str = ""):
    """(sum module, injections, projections); actions are componentwise."""
    parent = mods[0].parent
    if any(m.parent != parent for m in mods):
        raise StructuralError("summands live over different semirings")
    sizes = [m.M.size for m in mods]
    elems = list(product(*[range(sz) for sz in sizes]))
    index = {e: i for i, e in enumerate(elems)}
    add = tuple(index[tuple(m.M.add(a, b) for m, a, b in zip(mods, ea, eb))]
                for ea in elems for eb in elems)
    zero = index[tuple(m.M.zero for m in mods)]
    monoid = FiniteAddMonoid(len(elems), add, zero)
    total = build_module(
        parent, monoid,
        lambda j, tother, m, gs: index[tuple(
            mod.act(j, tother, comp, gs) for mod, comp in zip(mods, elems[m]))],
        name=name or "(+)".join(m.name for m in mods))
    injections = []
    projections = []
    for pos, mod in enumerate(mods):
        inj = tuple(index[tuple(mm.M.zero if q != pos else a for q, mm in enumerate(mods))]
                    for a in range(mod.M.size))
        prj = tuple(elems[e][pos] for e in range(len(elems)))
        injections.append(ModuleMorphism(mod, total, inj))
        projections.append(ModuleMorphism(total, mod, prj))
    return total, injections, projections


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_module(b: BiGammaModule) -> AxiomReport:
    checks = []
    issues = b.M.validate()
    checks.append(AxiomCheck("module monoid laws", not issues,
                             issues[0] if issues else None))
    n = b.parent.n
    for axiom, law in (("module additivity", lambda j: {"additive": (j,)}),
                       ("carrier-slot additivity",
                        lambda j: {"additive": [p for p in range(n) if p != j]}),
                       ("parameter-slot additivity",
                        lambda j: {"additive": range(n, 2 * n - 1)}),
                       ("zero absorption", lambda j: {"absorbing": range(2 * n - 1)})):
        wit = next(((j + 1,) + w for j, table in enumerate(b.act_tables)
                    for w in table_failures(table, b._layout(j), b.M, **law(j))), None)
        checks.append(AxiomCheck(axiom, wit is None, wit))
    additive_ok = all(c.ok for c in checks)
    checks.append(_check_module_words(b, generators_only=additive_ok))
    return AxiomReport(tuple(checks))


def _check_module_words(b: BiGammaModule, generators_only: bool) -> AxiomCheck:
    """Bracket independence of length-(2n-1) words holding one module element.

    Covers both mixed associativity (nested actions against products) and
    compatibility between different slots.  Multiadditivity justifies the
    restriction to additive generators whenever the additivity checks passed.
    Words are walked with the module letter's place p slowest, then the
    carrier letters, then the module letter.
    """
    s = b.parent
    tgens = s.T.additive_generators() if generators_only else list(s.T.elements())
    mgens = b.M.additive_generators() if generators_only else list(range(b.M.size))
    tgens, mgens = tgens or [s.T.zero], mgens or [b.M.zero]
    wlen = 2 * s.n - 1
    for p in range(wlen):
        words = (ts[:p] + (m,) + ts[p:]
                 for ts in product(tgens, repeat=wlen - 1) for m in mgens)
        hit = first_incoherent_word(s, words, p, b.act_tables, b.M.size)
        if hit is not None:
            xs, gs, vals = hit
            return AxiomCheck("positional coherence", False,
                              (p, xs[:p] + xs[p + 1:], xs[p], gs, sorted(set(vals))))
    return AxiomCheck("positional coherence", True)


# ---------------------------------------------------------------------------
# Morphisms and conflations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModuleMorphism:
    source: BiGammaModule
    target: BiGammaModule
    map: tuple[int, ...]

    def __post_init__(self):
        if self.source.parent != self.target.parent:
            raise StructuralError("module morphism endpoints have different parents")
        if len(self.map) != self.source.M.size:
            raise StructuralError("module morphism table has wrong size")

    def __call__(self, m: int) -> int:
        return self.map[m]


def validate_module_morphism(f: ModuleMorphism) -> AxiomReport:
    src, dst = f.source, f.target
    wit = ("zero",) if f(src.M.zero) != dst.M.zero else next(
        ((a, b) for a in range(src.M.size) for b in range(src.M.size)
         if f(src.M.add(a, b)) != dst.M.add(f(a), f(b))), None)
    add = AxiomCheck("morphism additivity", wit is None, wit)
    wit = _equivariance_failure(f)
    return AxiomReport((add, AxiomCheck("morphism equivariance", wit is None, wit)))


def _equivariance_failure(f: ModuleMorphism):
    """The first (slot, tother, m, gs) with f(act(m)) != act(f(m)), or None.

    Slot j's source and target tables differ only in the size of the module
    coordinate, so each setting of the other arguments is one column of m in
    the source, walked by that coordinate's stride, against the entries at
    f(m) in the target.  Settings go in table order with m fastest, which is
    the (slot, tother, gs, m) order of the witness.
    """
    src, dst, fm = f.source, f.target, f.map
    n = src.parent.n
    ms, md = src.M.size, dst.M.size
    for j in range(n):
        stab, dtab = src.act_tables[j], dst.act_tables[j]
        stride = prod(src._sizes[j][j + 1:])
        target_offsets = [v * stride for v in fm]
        for outer in range(len(stab) // (ms * stride)):
            for inner in range(stride):
                sbase = outer * ms * stride + inner
                dbase = outer * md * stride + inner
                got = [fm[v] for v in stab[sbase:sbase + ms * stride:stride]]
                want = [dtab[dbase + off] for off in target_offsets]
                if got != want:
                    m = next(m for m in range(ms) if got[m] != want[m])
                    args = unflatten_index(sbase + m * stride, src._sizes[j])
                    return (j + 1, args[:j] + args[j + 1:n], m, args[n:])
    return None


def identity_module_morphism(b: BiGammaModule) -> ModuleMorphism:
    return ModuleMorphism(b, b, tuple(range(b.M.size)))


def compose_module_morphisms(g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    if f.target != g.source:
        raise StructuralError("composed morphisms do not meet at one module")
    return ModuleMorphism(f.source, g.target,
                          tuple(g(f(m)) for m in range(f.source.M.size)))


@dataclass(frozen=True)
class Conflation:
    """Inflation-deflation pair A -> B -> C."""

    i: ModuleMorphism
    p: ModuleMorphism

    def __post_init__(self):
        if self.i.target != self.p.source:
            raise StructuralError("conflation legs do not share the middle module")


def check_conflation(c: Conflation) -> AxiomCheck:
    a, b, cc = c.i.source, c.i.target, c.p.target
    if not validate_module_morphism(c.i).ok:
        return AxiomCheck("conflation", False, ("inflation invalid",))
    if not validate_module_morphism(c.p).ok:
        return AxiomCheck("conflation", False, ("deflation invalid",))
    if len({c.i(x) for x in range(a.M.size)}) != a.M.size:
        return AxiomCheck("conflation", False, ("inflation not injective",))
    if {c.p(x) for x in range(b.M.size)} != set(range(cc.M.size)):
        return AxiomCheck("conflation", False, ("deflation not surjective",))
    for x in range(a.M.size):
        if c.p(c.i(x)) != cc.M.zero:
            return AxiomCheck("conflation", False, ("composite nonzero", x))
    img = {c.i(x) for x in range(a.M.size)}
    ker = {y for y in range(b.M.size) if c.p(y) == cc.M.zero}
    if img != ker:
        return AxiomCheck("conflation", False, ("middle exactness", sorted(img), sorted(ker)))
    return AxiomCheck("conflation", True)


# ---------------------------------------------------------------------------
# Additive and equivariant map enumeration
# ---------------------------------------------------------------------------

def additive_maps(src: FiniteAddMonoid, dst: FiniteAddMonoid,
                  bound: int = 200000) -> list[tuple[int, ...]]:
    """All additive maps src -> dst, in deterministic order.

    Candidates are assignments on a generating set, propagated through sum
    expressions and then checked in full, so the search space is
    |dst| ** #generators rather than |dst| ** |src|.
    """
    gens = src.additive_generators()
    if dst.size ** max(len(gens), 0) > bound:
        raise BoundExceeded("additive map enumeration exceeds its bound")
    expr: dict[int, tuple] = {src.zero: ("zero",)}
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
    if len(expr) != src.size:
        raise SoundnessError("additive generators do not cover the carrier")

    out = []
    for images in product(range(dst.size), repeat=len(gens)):
        # Insertion order is topological: a sum is recorded only after both
        # of its summands.
        val: dict[int, int] = {}
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
    seen = set()
    uniq = []
    for f in out:
        if f not in seen:
            seen.add(f)
            uniq.append(f)
    return uniq


def is_equivariant(f, src: BiGammaModule, dst: BiGammaModule) -> bool:
    s = src.parent
    n = s.n
    for j in range(n):
        for tother in s.t_tuples(n - 1):
            for gs in s.g_tuples(n - 1):
                for m in range(src.M.size):
                    if f[src.act(j, tother, m, gs)] != dst.act(j, tother, f[m], gs):
                        return False
    return True


def equivariant_maps(src: BiGammaModule, dst: BiGammaModule,
                     bound: int = 200000) -> list[tuple[int, ...]]:
    return [f for f in additive_maps(src.M, dst.M, bound)
            if is_equivariant(f, src, dst)]


@dataclass(frozen=True)
class HomModule:
    """Equivariant additive maps as a module; ``maps[i]`` is element i."""

    module: BiGammaModule
    maps: tuple[tuple[int, ...], ...]


def _maps_module(s: NaryGammaSemiring, maps, coeff: FiniteAddMonoid, domain_size: int,
                 argument, what: str, name: str) -> HomModule:
    """Maps into ``coeff`` under pointwise addition, acting by precomposition.

    The action of (slot, tother, gs) sends f to x -> f(argument(slot, tother,
    x, gs)) for x in range(domain_size).
    """
    index = {f: i for i, f in enumerate(maps)}
    add = []
    for f in maps:
        for g in maps:
            h = tuple(coeff.add(a, b) for a, b in zip(f, g))
            if h not in index:
                raise SoundnessError(f"{what} set not closed under addition")
            add.append(index[h])
    zero_map = tuple(coeff.zero for _ in range(domain_size))
    monoid = FiniteAddMonoid(len(maps), tuple(add), index[zero_map])

    def act(slot, tother, fidx, gs):
        f = maps[fidx]
        composed = tuple(f[argument(slot, tother, x, gs)] for x in range(domain_size))
        if composed not in index:
            raise SoundnessError(f"{what} action leaves the enumerated maps")
        return index[composed]

    return HomModule(build_module(s, monoid, act, name=name), tuple(maps))


def hom_gamma(src: BiGammaModule, dst: BiGammaModule, j: int = 0, k: int = 0,
              bound: int = 200000) -> HomModule:
    """The internal Hom module on fully equivariant additive maps.

    Slot i of the result acts by inserting the carrier material into slot i
    of the argument's action.  This assumes the multiplication commutes:
    only then does that agree with acting on values, so that the designated
    slot pair only records orientation.  On a non-commutative carrier (binary
    M2(F2)) the precomposed maps need not be equivariant, and the call raises
    SoundnessError "hom action leaves the enumerated maps".
    """
    s = src.parent
    if s != dst.parent:
        raise StructuralError("hom endpoints live over different semirings")
    return _maps_module(s, equivariant_maps(src, dst, bound), dst.M, src.M.size,
                        src.act, "hom",
                        f"Hom({src.name},{dst.name})[{j + 1},{k + 1}]")


def cofree(s: NaryGammaSemiring, coeff: FiniteAddMonoid,
           bound: int = 200000, name: str = "") -> HomModule:
    """All additive maps from the carrier into a coefficient monoid.

    Slot i acts by inserting material into slot i of the argument, so the
    result is the coinduced module of the underlying additive structure.
    """
    return _maps_module(
        s, additive_maps(s.T, coeff, bound), coeff, s.T.size,
        lambda slot, tother, x, gs: s.mu(tother[:slot] + (x,) + tother[slot:], gs),
        "cofree", name or f"cofree({s.name})")


# ---------------------------------------------------------------------------
# Positional tensor by congruence closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorModule:
    module: BiGammaModule
    beta: tuple[tuple[int, ...], ...]
    """beta[m][n] is the image element of the generating pair."""

    def pair(self, m: int, n: int) -> int:
        return self.beta[m][n]


def _generator_counts(monoid: FiniteAddMonoid, gens) -> list[tuple[int, ...]]:
    """For each element, one fixed count vector c with element = sum c[i]*gens[i].

    Breadth-first from zero, adding generators in order, so each count vector
    is a shortest sum.
    """
    counts = {monoid.zero: (0,) * len(gens)}
    queue = [monoid.zero]
    for x in queue:
        for i, g in enumerate(gens):
            y = monoid.add(x, g)
            if y not in counts:
                counts[y] = counts[x][:i] + (counts[x][i] + 1,) + counts[x][i + 1:]
                queue.append(y)
    if len(counts) != monoid.size:
        raise SoundnessError("additive generators do not cover the carrier")
    return [counts[x] for x in range(monoid.size)]


class TensorCongruence:
    """The presented monoid underlying a positional tensor.

    Every element of L (x) R is a sum over the additive generators g of R of
    a_g (x) g, so the ambient is L^G: one left element per right generator,
    added coordinatewise and flat-indexed by ``flatten_index``.  The pair
    (a, b) is the vector (c_g(b)*a)_g for one fixed sum b = sum c_g(b)*g, so
    left additivity holds in the ambient; union-find closes right additivity
    and slot-(j,k) balancing under translation by (x at position g) for x in
    L's generators.  Classes are numbered by the lexicographically least
    multiplicity vector over the nonzero pairs (a-major) that sums to them,
    which depends only on the quotient and beta.  ``residual_module``
    attaches residual actions from generator images that the callers supply;
    the plain tensor and scalar extension supply different ones.
    """

    def __init__(self, left: BiGammaModule, right: BiGammaModule,
                 j: int, k: int, element_bound: int = 200000):
        s = left.parent
        if s != right.parent:
            raise StructuralError("tensor factors live over different semirings")
        self.left = left
        self.right = right
        lm, rm = left.M, right.M
        self._rgens = rm.additive_generators()
        self._sizes = (lm.size,) * len(self._rgens)
        total = prod(self._sizes)
        if total > element_bound:
            raise BoundExceeded(
                f"tensor ambient |L|^g = {lm.size}^{len(self._rgens)} = {total} "
                f"exceeds the element bound {element_bound}")
        counts = _generator_counts(rm, self._rgens)
        self._vecs = [[tuple(lm.sum([a] * c) for c in counts[b]) for b in range(rm.size)]
                      for a in range(lm.size)]
        self._zero = self._vecs[lm.zero][rm.zero]
        self.pairs = [(a, b) for a in range(lm.size) for b in range(rm.size)
                      if a != lm.zero and b != rm.zero]

        gv = self.gen_vec
        relations = [(gv(a, rm.add(b1, b2)), self._add(gv(a, b1), gv(a, b2)))
                     for a in range(lm.size) for b1 in range(rm.size) for b2 in range(rm.size)]
        n = s.n
        relations += [(gv(left.act(j, tother, a, gs), b), gv(a, right.act(k, tother, b, gs)))
                      for tother in s.t_tuples(n - 1) for gs in s.g_tuples(n - 1)
                      for a in range(lm.size) for b in range(rm.size)]
        # Adding x at position p moves the flat index by a multiple of p's
        # stride, |L|^(G-1-p).
        shifts = [(p, lm.size ** (len(self._rgens) - 1 - p), lm.add_table[x::lm.size])
                  for p in range(len(self._rgens)) for x in lm.additive_generators()]

        def translate(u, v):
            uv, vv = self._vec(u), self._vec(v)
            return [(u + (plus[uv[p]] - uv[p]) * stride, v + (plus[vv[p]] - vv[p]) * stride)
                    for p, stride, plus in shifts]

        uf_class, uf_reps = congruence_closure(
            total, dict.fromkeys((self._index(u), self._index(v)) for u, v in relations),
            translate)
        nq = len(uf_reps)
        add = [[uf_class[self._index(self._add(self._vec(r1), self._vec(r2)))]
                for r2 in uf_reps] for r1 in uf_reps]
        # Backward pass: ``order`` lists the classes reachable from the pairs
        # after the current one, least multiplicity vector first; a class
        # r*g + y keeps its least (r, position of y) key.
        zero = uf_class[self._index(self._zero)]
        order = [zero]
        for a, b in reversed(self.pairs):
            g, multiples = uf_class[self._index(gv(a, b))], [zero]
            while (m := add[multiples[-1]][g]) not in multiples:
                multiples.append(m)
            order = list(dict.fromkeys(add[m][y] for m in multiples for y in order))
        rank = {c: i for i, c in enumerate(order)}
        self.class_of = [rank[c] for c in uf_class]
        self.reps = [uf_reps[c] for c in order]
        self.monoid = FiniteAddMonoid(
            nq, tuple(rank[add[c1][c2]] for c1 in order for c2 in order), rank[zero])

    def _vec(self, idx: int) -> tuple[int, ...]:
        return unflatten_index(idx, self._sizes)

    def _index(self, vec) -> int:
        return flatten_index(vec, self._sizes)

    def _add(self, u, v) -> tuple[int, ...]:
        return tuple(self.left.M.add(x, y) for x, y in zip(u, v))

    def gen_vec(self, a: int, b: int) -> tuple[int, ...]:
        return self._vecs[a][b]

    def _class(self, vec) -> int:
        return self.class_of[self._index(vec)]

    def pair_class(self, a: int, b: int) -> int:
        return self._class(self.gen_vec(a, b))

    def _extension(self, images) -> list[int] | None:
        """The additive map on classes sending each nonzero pair's class to
        the class of its image, as a table, or None if there is none.

        A class goes to the sum of the images of the nonzero parts (x at
        generator g) of one representative.  That is the map exactly when
        the table is additive and agrees with the images on every pair.
        """
        image = dict(zip(self.pairs, images))
        lzero, q = self.left.M.zero, self.monoid

        def extend(rep):
            parts = (image[x, g] for x, g in zip(self._vec(rep), self._rgens) if x != lzero)
            return self._class(reduce(self._add, parts, self._zero))

        table = [extend(rep) for rep in self.reps]
        additive = all(table[q.add(c1, c2)] == q.add(table[c1], table[c2])
                       for c1 in range(q.size) for c2 in range(q.size))
        if additive and all(table[self.pair_class(a, b)] == self._class(image[a, b])
                            for a, b in self.pairs):
            return table
        return None

    def residual_module(self, s: NaryGammaSemiring, image_fn, name: str) -> TensorModule:
        """The quotient as a module over ``s``.

        ``image_fn(slot, tother, gs)`` gives the generator images of one
        residual action.  Actions are keyed by their tuple of images, so each
        distinct one is checked for descent and tabulated on classes once.
        Raises SoundnessError naming the first action that does not descend.
        """
        n = s.n
        tables, table_of = {}, {}
        for slot in range(n):
            for tother in s.t_tuples(n - 1):
                for gs in s.g_tuples(n - 1):
                    img = image_fn(slot, tother, gs)
                    key = tuple(tuple(img(a, b)) for a, b in self.pairs)
                    if key not in tables:
                        tables[key] = self._extension(key)
                        if tables[key] is None:
                            raise SoundnessError(
                                f"the action at slot {slot + 1} with carriers {tother} "
                                f"and parameters {gs} does not descend")
                    table_of[slot, tother, gs] = tables[key]
        module = build_module(
            s, self.monoid,
            lambda slot, tother, cls, gs: table_of[slot, tother, gs][cls],
            name=name)
        beta = tuple(tuple(self.pair_class(a, b) for b in range(self.right.M.size))
                     for a in range(self.left.M.size))
        return TensorModule(module, beta)


def tensor_positional(left: BiGammaModule, right: BiGammaModule,
                      j: int, k: int, element_bound: int = 200000,
                      name: str = "") -> TensorModule:
    """Quotient of pairwise generators by bilinearity and slot balancing.

    Material acting in slot ``j`` of the left factor may be re-read as acting
    in slot ``k`` of the right factor with the same carrier tuple and
    parameters, in the same linear order; the remaining slots act through the
    right factor (falling back to the left when that fails to descend).
    """
    core = TensorCongruence(left, right, j, k, element_bound)
    name = name or f"{left.name}(x){right.name}[{j + 1},{k + 1}]"

    def through_right(slot, tother, gs):
        return lambda a, b: core.gen_vec(a, right.act(slot, tother, b, gs))

    def through_left(slot, tother, gs):
        return lambda a, b: core.gen_vec(left.act(slot, tother, a, gs), b)

    failures = []
    for side, image_fn in (("right", through_right), ("left", through_left)):
        try:
            return core.residual_module(left.parent, image_fn, name)
        except SoundnessError as exc:
            failures.append(f"through the {side} factor, {exc}")
    raise SoundnessError("no residual action descends to the tensor quotient: "
                         + "; ".join(failures))


# ---------------------------------------------------------------------------
# Injectivity probing
# ---------------------------------------------------------------------------

def injectivity_probe(target: BiGammaModule, trials,
                      bound: int = 200000) -> list[AxiomCheck]:
    """Extension search for additive maps along inflations.

    Each trial is (conflation, maps) where maps is an explicit list of
    additive map tables A -> target, or None for all of them.  A trial passes
    when every map extends through the inflation to an additive map on the
    middle module.
    """
    out = []
    for tn, (conf, given) in enumerate(trials):
        a, b = conf.i.source, conf.i.target
        candidates = additive_maps(b.M, target.M, bound)
        if given is None:
            given = additive_maps(a.M, target.M, bound)
        failure = None
        for g in given:
            found = False
            for h in candidates:
                if all(h[conf.i(x)] == g[x] for x in range(a.M.size)):
                    found = True
                    break
            if not found:
                failure = tuple(g)
                break
        out.append(AxiomCheck(f"injectivity trial {tn}", failure is None, failure))
    return out
