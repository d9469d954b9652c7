"""Finite two-sided modules over an n-ary parameterized semiring.

A module is a finite additive monoid together with one action table per
multiplication slot: slot j's table inserts the module element into position
j of the multiplication alongside n-1 carrier elements and a full parameter
tuple.  Hom modules enumerate equivariant additive maps; tensor modules are
finitely presented commutative monoids computed by congruence closure, with
termination guaranteed by the additive torsion of every generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .abgroups import SoundnessError
from .core import (
    AxiomCheck, AxiomReport, BoundExceeded, FiniteAddMonoid,
    NaryGammaSemiring, StructuralError, _skip_gamma_pair, congruence_closure,
    flatten_index,
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
        expected = (self.parent.T.size ** (n - 1) * self.M.size
                    * self.parent.gamma.size ** (n - 1))
        for j, tbl in enumerate(self.act_tables):
            if len(tbl) != expected:
                raise StructuralError(f"slot {j + 1} action table has wrong size")
            if any(not (0 <= v < self.M.size) for v in tbl):
                raise StructuralError(f"slot {j + 1} action entry out of range")

    def _sizes(self, j: int) -> list[int]:
        n = self.parent.n
        ts = self.parent.T.size
        return [ts] * j + [self.M.size] + [ts] * (n - 1 - j) + \
            [self.parent.gamma.size] * (n - 1)

    def act(self, j: int, tother, m: int, gs) -> int:
        args = tuple(tother[:j]) + (m,) + tuple(tother[j:]) + tuple(gs)
        return self.act_tables[j][flatten_index(args, self._sizes(j))]

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
        # Flattening must match _sizes: m interleaved at position j.
        for prefix in product(range(parent.T.size), repeat=j):
            for m in range(monoid.size):
                for suffix in product(range(parent.T.size), repeat=n - 1 - j):
                    for gs in parent.g_tuples(n - 1):
                        tbl.append(act_fn(j, prefix + suffix, m, gs))
        tables.append(tuple(tbl))
    return BiGammaModule(parent, monoid, tuple(tables), name=name)


def regular_bimodule(s: NaryGammaSemiring) -> BiGammaModule:
    """The carrier acting on itself through the multiplication."""
    return build_module(
        s, s.T,
        lambda j, tother, m, gs: s.mu(tother[:j] + (m,) + tother[j:], gs),
        name=f"{s.name}.regular")


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
    for axiom, witnesses in (("module additivity", _module_additivity_failures),
                             ("carrier-slot additivity", _carrier_additivity_failures),
                             ("parameter-slot additivity", _parameter_additivity_failures),
                             ("zero absorption", _zero_absorption_failures)):
        wit = next(witnesses(b), None)
        checks.append(AxiomCheck(axiom, wit is None, wit))
    additive_ok = all(c.ok for c in checks)
    checks.append(_check_module_words(b, generators_only=additive_ok))
    return AxiomReport(tuple(checks))


def _module_additivity_failures(b: BiGammaModule):
    s = b.parent
    n = s.n
    for j in range(n):
        for tother in s.t_tuples(n - 1):
            for gs in s.g_tuples(n - 1):
                for m1 in range(b.M.size):
                    for m2 in range(b.M.size):
                        lhs = b.act(j, tother, b.M.add(m1, m2), gs)
                        rhs = b.M.add(b.act(j, tother, m1, gs), b.act(j, tother, m2, gs))
                        if lhs != rhs:
                            yield (j + 1, m1, m2, tother, gs)


def _carrier_additivity_failures(b: BiGammaModule):
    s = b.parent
    n = s.n
    for j in range(n):
        for pos in range(n - 1):
            for rest in s.t_tuples(n - 2):
                for gs in s.g_tuples(n - 1):
                    for m in range(b.M.size):
                        for x in s.T.elements():
                            for y in s.T.elements():
                                tsum = rest[:pos] + (s.T.add(x, y),) + rest[pos:]
                                ta = rest[:pos] + (x,) + rest[pos:]
                                tb = rest[:pos] + (y,) + rest[pos:]
                                lhs = b.act(j, tsum, m, gs)
                                rhs = b.M.add(b.act(j, ta, m, gs), b.act(j, tb, m, gs))
                                if lhs != rhs:
                                    yield (j + 1, pos, x, y, m)


def _parameter_additivity_failures(b: BiGammaModule):
    s = b.parent
    n = s.n
    for j in range(n):
        for pos in range(n - 1):
            for grest in s.g_tuples(n - 2):
                for tother in s.t_tuples(n - 1):
                    for m in range(b.M.size):
                        for x in s.gamma.elements():
                            for y in s.gamma.elements():
                                if _skip_gamma_pair(s.gamma, x, y):
                                    continue
                                gsum = grest[:pos] + (s.gamma.add(x, y),) + grest[pos:]
                                ga = grest[:pos] + (x,) + grest[pos:]
                                gb = grest[:pos] + (y,) + grest[pos:]
                                lhs = b.act(j, tother, m, gsum)
                                rhs = b.M.add(b.act(j, tother, m, ga),
                                              b.act(j, tother, m, gb))
                                if lhs != rhs:
                                    yield (j + 1, pos, x, y, m)


def _zero_absorption_failures(b: BiGammaModule):
    s = b.parent
    n = s.n
    for j in range(n):
        for tother in s.t_tuples(n - 1):
            for gs in s.g_tuples(n - 1):
                if b.act(j, tother, b.M.zero, gs) != b.M.zero:
                    yield (j + 1, "module zero", tother, gs)
                if s.T.zero in tother:
                    for m in range(b.M.size):
                        if b.act(j, tother, m, gs) != b.M.zero:
                            yield (j + 1, "carrier zero", tother, m)
    if s.gamma.has_zero:
        for j in range(n):
            for tother in s.t_tuples(n - 1):
                for gs in s.g_tuples(n - 1):
                    if s.gamma.zero in gs:
                        for m in range(b.M.size):
                            if b.act(j, tother, m, gs) != b.M.zero:
                                yield (j + 1, "parameter zero", gs, m)


def _module_word_values(b: BiGammaModule, tokens, gs):
    """All bracketings of a word with one module token; values in the module."""
    s = b.parent
    n = s.n
    if len(tokens) == n:
        return [_eval_window(b, tokens, gs)[1]]
    vals = []
    for i in range(len(tokens) - n + 1):
        kind, val = _eval_window(b, tokens[i:i + n], gs[i:i + n - 1])
        outer = tokens[:i] + ((kind, val),) + tokens[i + n:]
        vals.extend(_module_word_values(b, outer, gs[:i] + gs[i + n - 1:]))
    return vals


def _eval_window(b: BiGammaModule, window, gs):
    s = b.parent
    mpos = [i for i, (kind, _) in enumerate(window) if kind == "m"]
    if not mpos:
        return ("t", s.mu(tuple(v for _, v in window), gs))
    assert len(mpos) == 1
    j = mpos[0]
    tother = tuple(v for q, (kind, v) in enumerate(window) if q != j)
    return ("m", b.act(j, tother, window[j][1], gs))


def _check_module_words(b: BiGammaModule, generators_only: bool) -> AxiomCheck:
    """Bracket independence of length-(2n-1) words holding one module element.

    Covers both mixed associativity (nested actions against products) and
    compatibility between different slots.  Multiadditivity justifies the
    restriction to additive generators whenever the additivity checks passed.
    """
    s = b.parent
    n = s.n
    tgens = s.T.additive_generators() if generators_only else list(s.T.elements())
    mgens = b.M.additive_generators() if generators_only else list(range(b.M.size))
    if not tgens:
        tgens = [s.T.zero]
    if not mgens:
        mgens = [b.M.zero]
    wlen = 2 * n - 1
    for p in range(wlen):
        for ts in product(tgens, repeat=wlen - 1):
            for m in mgens:
                tokens = tuple(("t", t) for t in ts[:p]) + (("m", m),) + \
                    tuple(("t", t) for t in ts[p:])
                for gs in s.g_tuples(wlen - 1):
                    vals = _module_word_values(b, tokens, gs)
                    if len(set(vals)) > 1:
                        return AxiomCheck("positional coherence", False,
                                          (p, ts, m, gs, sorted(set(vals))))
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
    s = src.parent
    n = s.n
    wit = ("zero",) if f(src.M.zero) != dst.M.zero else next(
        ((a, b) for a in range(src.M.size) for b in range(src.M.size)
         if f(src.M.add(a, b)) != dst.M.add(f(a), f(b))), None)
    add = AxiomCheck("morphism additivity", wit is None, wit)
    wit = next(((j + 1, tother, m, gs) for j in range(n)
                for tother in s.t_tuples(n - 1) for gs in s.g_tuples(n - 1)
                for m in range(src.M.size)
                if f(src.act(j, tother, m, gs)) != dst.act(j, tother, f(m), gs)), None)
    return AxiomReport((add, AxiomCheck("morphism equivariance", wit is None, wit)))


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
    of the argument's action; on equivariant maps this agrees with acting on
    values, so the designated slot pair only records orientation.
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

class _Coordinate:
    """The cyclic-tail monoid of multiples of one tensor generator.

    Values are classes of counters r under the congruence generated by
    r ~ r' whenever r copies of the generator already agree in either factor;
    the joint orbit is eventually periodic, which bounds everything.
    """

    def __init__(self, orbit_a, orbit_b):
        # orbit_x[r] = value of r-fold sum, r = 0.. (precomputed far enough)
        pairs = list(zip(orbit_a, orbit_b))
        idx0, period = _index_period(pairs)
        window = idx0 + period

        def wrap(r):
            return r if r < window else idx0 + (r - idx0) % period

        self.class_of, self.rep = congruence_closure(
            window,
            [(r, q) for r in range(window) for q in range(r + 1, window)
             if orbit_a[r] == orbit_a[q] or orbit_b[r] == orbit_b[q]],
            lambda r, q: ((wrap(r + 1), wrap(q + 1)),))
        self.nclasses = len(self.rep)
        self._wrap = wrap

    def add(self, c1: int, c2: int) -> int:
        return self.class_of[self._wrap(self.rep[c1] + self.rep[c2])]

    def inc(self, c: int) -> int:
        return self.class_of[self._wrap(self.rep[c] + 1)]


def _index_period(seq):
    """(index, period) of an eventually periodic sequence given long enough."""
    n = len(seq)
    for period in range(1, n):
        for idx in range(n - 2 * period):
            if all(seq[r] == seq[r + period] for r in range(idx, n - period)):
                return idx, period
    raise SoundnessError("orbit window too short to detect periodicity")


def _orbit(monoid: FiniteAddMonoid, x: int, length: int) -> list[int]:
    out = [monoid.zero]
    for _ in range(length - 1):
        out.append(monoid.add(out[-1], x))
    return out


@dataclass(frozen=True)
class TensorModule:
    module: BiGammaModule
    beta: tuple[tuple[int, ...], ...]
    """beta[m][n] is the image element of the generating pair."""

    def pair(self, m: int, n: int) -> int:
        return self.beta[m][n]


class TensorCongruence:
    """The presented monoid underlying a positional tensor.

    Generators are nonzero pairs; each generator's multiples live in a finite
    cyclic-tail coordinate, and the quotient by bilinearity plus slot-(j,k)
    balancing is computed by union-find closure with generator translations.
    ``residual_module`` attaches residual actions from generator images that
    the callers supply; the plain tensor and scalar extension supply
    different ones.
    """

    def __init__(self, left: BiGammaModule, right: BiGammaModule,
                 j: int, k: int, element_bound: int = 200000):
        s = left.parent
        if s != right.parent:
            raise StructuralError("tensor factors live over different semirings")
        self.left = left
        self.right = right
        mz, nz = left.M.zero, right.M.zero
        self.gens = [(a, b) for a in range(left.M.size)
                     for b in range(right.M.size) if a != mz and b != nz]
        self._gidx = {g: i for i, g in enumerate(self.gens)}
        window = 2 * (left.M.size * right.M.size) + 2
        self.coords = [
            _Coordinate(_orbit(left.M, a, window), _orbit(right.M, b, window))
            for (a, b) in self.gens]
        self._radices = [c.nclasses for c in self.coords]
        total = 1
        for r in self._radices:
            total *= r
            if total > element_bound:
                raise BoundExceeded("tensor ambient exceeds the element bound")
        self.total = total

        relations = []
        for a1 in range(left.M.size):
            for a2 in range(left.M.size):
                for b in range(right.M.size):
                    lhs = self.gen_vec(left.M.add(a1, a2), b)
                    rhs = self.add_vec(self.gen_vec(a1, b), self.gen_vec(a2, b))
                    relations.append((self.pack(lhs), self.pack(rhs)))
        for a in range(left.M.size):
            for b1 in range(right.M.size):
                for b2 in range(right.M.size):
                    lhs = self.gen_vec(a, right.M.add(b1, b2))
                    rhs = self.add_vec(self.gen_vec(a, b1), self.gen_vec(a, b2))
                    relations.append((self.pack(lhs), self.pack(rhs)))
        n = s.n
        for tother in s.t_tuples(n - 1):
            for gs in s.g_tuples(n - 1):
                for a in range(left.M.size):
                    for b in range(right.M.size):
                        lhs = self.gen_vec(left.act(j, tother, a, gs), b)
                        rhs = self.gen_vec(a, right.act(k, tother, b, gs))
                        relations.append((self.pack(lhs), self.pack(rhs)))
        self.relations = relations
        self.class_of, self.reps = congruence_closure(
            total, relations,
            lambda u, v: [(self._bump(u, gi), self._bump(v, gi))
                          for gi in range(len(self.gens))])
        self.nclasses = len(self.reps)
        add_table = tuple(
            self.class_of[self.pack(self.add_vec(self.unpack(self.reps[c1]),
                                                 self.unpack(self.reps[c2])))]
            for c1 in range(self.nclasses) for c2 in range(self.nclasses))
        self.monoid = FiniteAddMonoid(self.nclasses, add_table,
                                      self.class_of[self.pack([0] * len(self.gens))])

    def pack(self, vec) -> int:
        idx = 0
        for v, r in zip(vec, self._radices):
            idx = idx * r + v
        return idx

    def unpack(self, idx: int) -> list[int]:
        out = []
        for r in reversed(self._radices):
            out.append(idx % r)
            idx //= r
        return list(reversed(out))

    def add_vec(self, u, v):
        return [c.add(a, b) for c, a, b in zip(self.coords, u, v)]

    def gen_vec(self, a: int, b: int) -> list[int]:
        out = [0] * len(self.gens)
        if a == self.left.M.zero or b == self.right.M.zero:
            return out
        gi = self._gidx[(a, b)]
        out[gi] = self.coords[gi].inc(0)
        return out

    def _bump(self, idx: int, gi: int) -> int:
        vec = self.unpack(idx)
        vec[gi] = self.coords[gi].inc(vec[gi])
        return self.pack(vec)

    def pair_class(self, a: int, b: int) -> int:
        return self.class_of[self.pack(self.gen_vec(a, b))]

    def apply_generatorwise(self, image_of_gen, raw_idx: int) -> int:
        """Class of the additive extension of a generator assignment."""
        vec = self.unpack(raw_idx)
        acc = [0] * len(self.gens)
        for gi, count in enumerate(vec):
            if count == 0:
                continue
            img = image_of_gen(*self.gens[gi])
            for _ in range(self.coords[gi].rep[count]):
                acc = self.add_vec(acc, img)
        return self.class_of[self.pack(acc)]

    def descends(self, image_of_gen) -> bool:
        # Additivity holds modulo derivable relations, so the extension
        # descends exactly when every base relation pair stays identified.
        for u, v in self.relations:
            if self.apply_generatorwise(image_of_gen, u) != \
                    self.apply_generatorwise(image_of_gen, v):
                return False
        return True

    def residual_module(self, s: NaryGammaSemiring, image_fn,
                        name: str) -> TensorModule | None:
        """The quotient as a module over ``s``, or None if an action fails.

        ``image_fn(slot, tother, gs)`` gives the generator images of one
        residual action; each must descend before the tables are built.
        """
        n = s.n
        for slot in range(n):
            for tother in s.t_tuples(n - 1):
                for gs in s.g_tuples(n - 1):
                    if not self.descends(image_fn(slot, tother, gs)):
                        return None
        module = build_module(
            s, self.monoid,
            lambda slot, tother, cls, gs: self.apply_generatorwise(
                image_fn(slot, tother, gs), self.reps[cls]),
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

    out = (core.residual_module(left.parent, through_right, name)
           or core.residual_module(left.parent, through_left, name))
    if out is None:
        raise SoundnessError("no residual action descends to the tensor quotient")
    return out


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
