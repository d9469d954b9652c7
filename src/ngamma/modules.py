"""Finite two-sided modules over an n-ary parameterized semiring.

A module is a finite additive monoid together with one action table per
multiplication slot: slot j's table inserts the module element into position
j of the multiplication alongside n-1 carrier elements and a full parameter
tuple.  Hom modules enumerate equivariant additive maps; tensor modules are
commutative monoids computed by congruence closure on one left element per
additive generator of the right factor.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, product
from math import prod

from .core import (
    AxiomCheck, AxiomReport, BoundExceeded, FiniteAddMonoid, NaryGammaSemiring, Record,
    SoundnessError, StructuralError, congruence_closure, first_incoherent_word,
    flatten_index, opposite, out_of_range, parameter_words, relabel, table_failures,
    unflatten_index, validate_semiring, _product_monoid, _relabel_monoid, _set,
)
from .ideals import GammaIdeal, coset_congruence, quotient_monoid

# Refusal bounds, read when their checks run: MAP_BOUND on the candidates of
# a map enumeration (|dst|^g) and on a maps module's addition table (maps
# squared), TENSOR_ELEMENT_BOUND on a positional tensor's ambient |L|^g.
MAP_BOUND = 200000
TENSOR_ELEMENT_BOUND = 200000


class BiGammaModule(Record):
    _fields = ("parent", "M", "act_tables", "name")

    def __init__(self, parent: NaryGammaSemiring, M: FiniteAddMonoid,
                 act_tables: tuple[tuple[int, ...], ...], name: str = ""):
        _set(self, "parent", parent)
        _set(self, "M", M)
        _set(self, "act_tables", act_tables)
        _set(self, "name", name)
        n = self.parent.n
        if len(self.act_tables) != n:
            raise StructuralError("one action table per slot is required")
        for j, tbl in enumerate(self.act_tables):
            if len(tbl) != prod(self._sizes[j]):
                raise StructuralError(f"slot {j + 1} action table has wrong size")
            # The parent's own ``mu_table`` over M == T was range-checked
            # when the parent was built.
            if (tbl is not self.parent.mu_table or self.M != self.parent.T) \
                    and out_of_range(tbl, self.M.size):
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
        s = self.parent
        idx, tsize, gsize = 0, s.T.size, s.gamma.size
        for t in tother[:j]:
            idx = idx * tsize + t
        idx = idx * self.M.size + m
        for t in tother[j:]:
            idx = idx * tsize + t
        for g in gs:
            idx = idx * gsize + g
        return self.act_tables[j][idx]

    def actions(self, j: int) -> tuple[tuple[int, ...], ...]:
        """Slot j's action of every filler as a column m -> act, in
        ``filler_tuples`` order.

        In slot j's table the module element sits between the j leading
        carriers and one stride of trailing arguments, so a filler's column
        is a stride slice.
        """
        tbl, stride = self.act_tables[j], _filler_stride(self.parent, j)
        block = self.M.size * stride
        return tuple(tbl[p + r:p + block:stride]
                     for p in range(0, len(tbl), block) for r in range(stride))


def filler_tuples(s: NaryGammaSemiring) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (carrier fillers, parameter tuple) pairs, in table order."""
    return [(t, g) for t in s.t_tuples(s.n - 1) for g in s.g_tuples(s.n - 1)]


def filler_index(s: NaryGammaSemiring, carriers, params) -> int:
    """The position of the filler (carriers, params) in ``filler_tuples(s)``."""
    return flatten_index(tuple(carriers) + tuple(params), s.sizes[1:])


def resolve_slot(s: NaryGammaSemiring, j: int | None) -> int:
    """Slot j, or s's last slot when j is None: the default slot pair of
    every entry point and of the command line is the last slot against the
    first (k = 0)."""
    return s.n - 1 if j is None else j


def check_slots(s: NaryGammaSemiring, j: int, k: int) -> None:
    """Refuse a slot pair outside 0..n-1, naming it 1-based as the CLI reads it."""
    if not (0 <= j < s.n and 0 <= k < s.n):
        raise StructuralError(f"slot pair ({j + 1}, {k + 1}) is outside 1..{s.n}")


def _filler_stride(s: NaryGammaSemiring, j: int) -> int:
    """How many fillers share slot j's leading carriers: the arguments after
    the module element in slot j's table."""
    return s.T.size ** (s.n - 1 - j) * s.gamma.size ** (s.n - 1)


def module_from_actions(parent: NaryGammaSemiring, monoid: FiniteAddMonoid, actions,
                        name: str = "") -> BiGammaModule:
    """The module whose slot j acts by ``actions[j]``, one column per filler in
    ``filler_tuples`` order, interleaved into ``BiGammaModule._layout``."""
    tables = []
    for j, cols in enumerate(actions):
        stride = _filler_stride(parent, j)
        tables.append(tuple(col[m] for p in range(0, len(cols), stride)
                            for m in range(monoid.size) for col in cols[p:p + stride]))
    return BiGammaModule(parent, monoid, tuple(tables), name=name)


def map_columns(fn, actions) -> list[list]:
    """``fn`` of every column of every slot, called once per distinct column."""
    memo = dict.fromkeys(chain.from_iterable(actions))
    for col in memo:
        memo[col] = fn(col)
    return [list(map(memo.__getitem__, cols)) for cols in actions]


def build_module(parent: NaryGammaSemiring, monoid: FiniteAddMonoid, act_fn,
                 name: str = "") -> BiGammaModule:
    """Tabulate act_fn(j, tother, m, gs) into dense slot tables."""
    fillers = filler_tuples(parent)
    return module_from_actions(
        parent, monoid,
        [[tuple(act_fn(j, t, m, g) for m in range(monoid.size)) for t, g in fillers]
         for j in range(parent.n)], name)


def regular_bimodule(s: NaryGammaSemiring) -> BiGammaModule:
    """The carrier acting on itself through the multiplication.

    Slot j's layout (carriers with m at position j, then parameters) is the
    multiplication table's own, so every slot table is ``mu_table``.
    """
    return BiGammaModule(s, s.T, (s.mu_table,) * s.n, name=f"{s.name}.regular")


def relabel_module(b: BiGammaModule, tperm, mperm) -> BiGammaModule:
    """``b`` over ``relabel(b.parent, tperm)`` with its own element x named
    mperm[x]; the name is kept."""
    s, cols = b.parent, [b.actions(j) for j in range(b.parent.n)]
    tinv = sorted(range(s.T.size), key=tperm.__getitem__)
    m, minv = _relabel_monoid(b.M, mperm)
    return build_module(relabel(s, tperm), m, lambda j, t, x, gs: mperm[
        cols[j][filler_index(s, [tinv[y] for y in t], gs)][minv[x]]], name=b.name)


def opposite_module(b: BiGammaModule) -> BiGammaModule:
    """b^op over ``opposite(b.parent)``: slot j acts as b's slot n-1-j, with
    the carriers and parameters reversed."""
    s, cols = b.parent, [b.actions(j) for j in range(b.parent.n)]
    return build_module(opposite(s), b.M, lambda j, t, m, gs: cols[s.n - 1 - j][
        filler_index(s, t[::-1], gs[::-1])][m], name=b.name + "^op")


def same_module(a: BiGammaModule, b: BiGammaModule) -> bool:
    """Whether a and b are one module up to name: the same semiring, carrier
    and action tables (so the regular module is recognized however built)."""
    return a is b or (a.parent == b.parent and a.M == b.M
                      and a.act_tables == b.act_tables)


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
    reg = regular_bimodule(s)
    return module_from_actions(
        s, monoid,
        map_columns(lambda col: tuple(index[col[x]] for x in members),
                    [reg.actions(j) for j in range(s.n)]),
        name=f"{s.name}.ideal{ideal}")


def quotient_module(s: NaryGammaSemiring, ideal: GammaIdeal) -> BiGammaModule:
    """The quotient carrier as a module over the original semiring."""
    return quotient_projection(regular_bimodule(s), ideal.members,
                               f"{s.name}.mod{ideal}").target


def quotient_projection(b: BiGammaModule, members, name: str) -> ModuleMorphism:
    """The projection of ``b`` onto its quotient by the coset congruence of
    ``members`` (x ~ y iff x+i = y+j with i, j in ``members``).

    Each distinct column of the addition and of every slot action is checked
    once: it must send every element to the class of its class
    representative's image.  Raises SoundnessError naming the first column,
    in (addition, slot, filler) order, that splits a class, with the class
    representative and the first element it splits from.
    """
    cls, reps = coset_congruence(b.M, members)
    actions = [b.actions(j) for j in range(b.parent.n)]

    def split(col):
        return next(((reps[c], y) for y, c in enumerate(cls) if cls[col[y]] != cls[col[reps[c]]]),
                    None)

    for z in range(b.M.size):
        if hit := split(b.M.add_table[z::b.M.size]):
            raise SoundnessError(f"addition of {z} is not constant on classes: "
                                 f"it splits {hit[0]} ~ {hit[1]}")

    def descend(col):
        if hit := split(col):
            j, w = next((j, w) for j, cols in enumerate(actions)
                        for w, c in enumerate(cols) if c == col)
            tother, gs = filler_tuples(b.parent)[w]
            raise SoundnessError(
                f"the action at slot {j + 1} with carriers {tother} and parameters {gs} "
                f"is not constant on classes: it splits {hit[0]} ~ {hit[1]}")
        return tuple(cls[col[r]] for r in reps)

    quot = module_from_actions(b.parent, quotient_monoid(b.M, cls, reps),
                               map_columns(descend, actions), name)
    return ModuleMorphism(b, quot, tuple(cls))


def direct_sum_modules(mods: list[BiGammaModule]):
    """(sum module, injections, projections); actions are componentwise."""
    parent = mods[0].parent
    if any(m.parent != parent for m in mods):
        raise StructuralError("summands live over different semirings")
    monoid = _product_monoid([m.M for m in mods])
    elems = list(product(*[range(m.M.size) for m in mods]))
    index = {e: i for i, e in enumerate(elems)}
    # A filler acts on the sum by the summands' columns side by side.
    total = module_from_actions(
        parent, monoid,
        map_columns(lambda cols: tuple(index[e] for e in product(*cols)),
                    [list(zip(*(mod.actions(j) for mod in mods))) for j in range(parent.n)]),
        name="(+)".join(m.name for m in mods))
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

# The table laws of slot j of an n-ary module, as ``table_failures`` arguments.
_TABLE_LAWS = (
    ("module additivity", lambda n, j: {"additive": (j,)}),
    ("carrier-slot additivity", lambda n, j: {"additive": [p for p in range(n) if p != j]}),
    ("parameter-slot additivity", lambda n, j: {"additive": range(n, 2 * n - 1)}),
    ("zero absorption", lambda n, j: {"absorbing": range(2 * n - 1)}),
)
_MODULE_AXIOMS = ("module monoid laws", *(axiom for axiom, _ in _TABLE_LAWS),
                  "positional coherence")


def validate_module(b: BiGammaModule) -> AxiomReport:
    """Exhaustive axiom check; each failure carries a concrete witness.

    A regular module (M equal to T and every slot table equal to
    ``mu_table``) over a semiring that passes inherits its verdict without a
    walk: each table law is then the semiring's law on the same table at the
    same positions with the same value monoid, and every word of the
    coherence walk is a word of flattened associativity over the same
    generators.  A module whose carrier has one element passes without a
    walk too: every module law is an equation between values in M, and
    ``BiGammaModule`` has range-checked every table entry.  Otherwise the
    tables are walked (``walk_module``), so every failure witness is the
    walk's.  Over a one-element T the coherence words are not walked once
    zero absorption passed: every slot table has a carrier argument (n >= 2),
    so it holds only M's zero, and every bracketing evaluates to that zero.
    """
    s = b.parent
    if b.M.size == 1 or (b.M == s.T and all(t == s.mu_table for t in b.act_tables)
                         and validate_semiring(s).ok):
        return AxiomReport(tuple(AxiomCheck(axiom, True) for axiom in _MODULE_AXIOMS))
    if s.T.size == 1:
        checks = _table_checks(b)
        if checks[-1].ok:  # zero absorption, the last table law
            return AxiomReport((*checks, AxiomCheck("positional coherence", True)))
    return walk_module(b)


def walk_module(b: BiGammaModule) -> AxiomReport:
    """``validate_module`` by walking every slot table and coherence word."""
    checks = _table_checks(b)
    additive_ok = all(c.ok for c in checks)
    return AxiomReport((*checks, _check_module_words(b, generators_only=additive_ok)))


def _table_checks(b: BiGammaModule) -> list[AxiomCheck]:
    """The monoid laws of M, then each table law over every slot table."""
    issues = b.M.validate()
    checks = [AxiomCheck("module monoid laws", not issues, issues[0] if issues else None)]
    n = b.parent.n
    for axiom, law in _TABLE_LAWS:
        wit = next(((j + 1,) + w for j, table in enumerate(b.act_tables)
                    for w in table_failures(table, b._layout(j), b.M, **law(n, j))), None)
        checks.append(AxiomCheck(axiom, wit is None, wit))
    return checks


def _check_module_words(b: BiGammaModule, generators_only: bool) -> AxiomCheck:
    """Bracket independence of length-(2n-1) words holding one module element.

    Covers both mixed associativity (nested actions against products) and
    compatibility between different slots.  Multiadditivity justifies the
    restriction to additive generators whenever the additivity checks passed.
    Words are walked with the module letter's place p slowest, then the
    carrier letters, then the module letter; every place shares one list of
    parameter words.
    """
    s = b.parent
    tgens = s.T.additive_generators() if generators_only else list(s.T.elements())
    mgens = b.M.additive_generators() if generators_only else list(range(b.M.size))
    tgens, mgens = tgens or [s.T.zero], mgens or [b.M.zero]
    wlen = 2 * s.n - 1
    gwords = parameter_words(s.n, s.gamma.size)
    for p in range(wlen):
        words = (ts[:p] + (m,) + ts[p:]
                 for ts in product(tgens, repeat=wlen - 1) for m in mgens)
        hit = first_incoherent_word(s, words, p, b.act_tables, b.M.size, gwords)
        if hit is not None:
            xs, gs, vals = hit
            return AxiomCheck("positional coherence", False,
                              (p, xs[:p] + xs[p + 1:], xs[p], gs, sorted(set(vals))))
    return AxiomCheck("positional coherence", True)


# ---------------------------------------------------------------------------
# Morphisms and conflations
# ---------------------------------------------------------------------------

class ModuleMorphism(Record):
    _fields = ("source", "target", "map")

    def __init__(self, source: BiGammaModule, target: BiGammaModule, map: tuple[int, ...]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "map", map)
        # Holds the report once ``validate_module_morphism`` has computed it,
        # as ``NaryGammaSemiring._memo`` does.
        _set(self, "_memo", {})
        if self.source.parent != self.target.parent:
            raise StructuralError("module morphism endpoints have different parents")
        if len(self.map) != self.source.M.size:
            raise StructuralError("module morphism table has wrong size")
        if out_of_range(self.map, self.target.M.size):
            raise StructuralError("module morphism value out of range")

    def __call__(self, m: int) -> int:
        return self.map[m]


def validate_module_morphism(f: ModuleMorphism) -> AxiomReport:
    """Additivity and equivariance of f, each with its first witness.

    The report is computed once per morphism object and kept.
    """
    if "report" not in f._memo:
        f._memo["report"] = _module_morphism_report(f)
    return f._memo["report"]


def _module_morphism_report(f: ModuleMorphism) -> AxiomReport:
    src, dst = f.source, f.target
    wit = ("zero",) if f(src.M.zero) != dst.M.zero else next(
        ((a, b) for a in range(src.M.size) for b in range(src.M.size)
         if f(src.M.add(a, b)) != dst.M.add(f(a), f(b))), None)
    add = AxiomCheck("morphism additivity", wit is None, wit)
    wit = _equivariance_failure(src, dst)(f.map)
    return AxiomReport((add, AxiomCheck("morphism equivariance", wit is None, wit)))


def _equivariance_failure(src: BiGammaModule, dst: BiGammaModule):
    """A test sending a map table f to the first (slot, tother, m, gs) with
    f(act(m)) != act(f(m)), or None.

    Each distinct pair of source and target columns is compared once, at its
    first filler, so the witness is the first in (slot, tother, gs, m) order.
    """
    pairs = {}
    for j in range(src.parent.n):
        for w, cols in enumerate(zip(src.actions(j), dst.actions(j))):
            pairs.setdefault(cols, (j, w))
    fillers = filler_tuples(src.parent)

    def failure(fm):
        for (scol, dcol), (j, w) in pairs.items():
            m = next((m for m, v in enumerate(scol) if fm[v] != dcol[fm[m]]), None)
            if m is not None:
                tother, gs = fillers[w]
                return (j + 1, tother, m, gs)
        return None

    return failure


def identity_module_morphism(b: BiGammaModule) -> ModuleMorphism:
    return ModuleMorphism(b, b, tuple(range(b.M.size)))


def compose_module_morphisms(g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    if f.target != g.source:
        raise StructuralError("composed morphisms do not meet at one module")
    return ModuleMorphism(f.source, g.target,
                          tuple(g(f(m)) for m in range(f.source.M.size)))


class Conflation(Record):
    """Inflation-deflation pair A -> B -> C."""

    _fields = ("i", "p")

    def __init__(self, i: ModuleMorphism, p: ModuleMorphism):
        _set(self, "i", i)
        _set(self, "p", p)
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

def additive_maps(src: FiniteAddMonoid, dst: FiniteAddMonoid) -> list[tuple[int, ...]]:
    """All additive maps src -> dst, in deterministic order.

    Candidates are assignments on a generating set, extended along
    ``_generator_walk`` and then checked in full, so the search space is
    |dst| ** #generators rather than |dst| ** |src|.  Generators are chosen
    greedily, so distinct assignments give distinct maps.  More than
    ``MAP_BOUND`` candidates are refused.
    """
    gens = src.additive_generators()
    candidates = dst.size ** len(gens)
    if candidates > MAP_BOUND:
        raise BoundExceeded(f"additive map enumeration of |dst|^g = {dst.size}^{len(gens)} "
                            f"= {candidates} candidates exceeds its bound {MAP_BOUND}")
    walk = _generator_walk(src, gens)
    out = []
    for images in product(range(dst.size), repeat=len(gens)):
        f = [dst.zero] * src.size
        for x, i, y in walk:
            f[y] = dst.add(f[x], images[i])
        if all(f[src.add(x, y)] == dst.add(f[x], f[y])
               for x in range(src.size) for y in range(src.size)):
            out.append(tuple(f))
    return out


def equivariant_maps(src: BiGammaModule, dst: BiGammaModule) -> list[tuple[int, ...]]:
    failure = _equivariance_failure(src, dst)
    return [f for f in additive_maps(src.M, dst.M) if failure(f) is None]


class HomModule(Record):
    """Equivariant additive maps as a module; ``maps[i]`` is element i."""

    _fields = ("module", "maps")

    def __init__(self, module: BiGammaModule, maps: tuple[tuple[int, ...], ...]):
        _set(self, "module", module)
        _set(self, "maps", maps)


def _maps_module(s: NaryGammaSemiring, maps, coeff: FiniteAddMonoid, domain: BiGammaModule,
                 what: str, name: str) -> HomModule:
    """Maps out of ``domain`` into ``coeff`` under pointwise addition, each
    filler acting by precomposition with its column of ``domain``.

    The addition table has len(maps)**2 entries; more than ``MAP_BOUND`` is
    refused before any is tabulated.
    """
    if len(maps) ** 2 > MAP_BOUND:
        raise BoundExceeded(f"{what} addition table of {len(maps)}^2 = {len(maps) ** 2} "
                            f"sums exceeds its bound {MAP_BOUND}")
    index = {f: i for i, f in enumerate(maps)}
    add = []
    for f in maps:
        for g in maps:
            h = tuple(coeff.add(a, b) for a, b in zip(f, g))
            if h not in index:
                raise SoundnessError(f"{what} set not closed under addition")
            add.append(index[h])
    zero_map = tuple(coeff.zero for _ in range(domain.M.size))
    monoid = FiniteAddMonoid(len(maps), tuple(add), index[zero_map])

    def act(col):
        try:
            return tuple(index[tuple(f[x] for x in col)] for f in maps)
        except KeyError:
            raise SoundnessError(f"{what} action leaves the enumerated maps") from None

    actions = map_columns(act, [domain.actions(j) for j in range(s.n)])
    return HomModule(module_from_actions(s, monoid, actions, name=name), tuple(maps))


def hom_gamma(src: BiGammaModule, dst: BiGammaModule, j: int = 0, k: int = 0) -> HomModule:
    """The internal Hom module on fully equivariant additive maps.

    Slot i of the result acts by inserting the carrier material into slot i
    of the argument's action.  This assumes the multiplication commutes:
    only then does that agree with acting on values, so that the designated
    slot pair only records orientation.  On a non-commutative carrier (binary
    M2(F2)) the maps it acts on need not stay equivariant, and the call raises
    SoundnessError "hom action leaves the enumerated maps".

    ``MAP_BOUND`` caps the candidate maps and the addition table's entries
    (maps squared); beyond it BoundExceeded is raised.
    """
    s = src.parent
    if s != dst.parent:
        raise StructuralError("hom endpoints live over different semirings")
    check_slots(s, j, k)
    return _maps_module(s, equivariant_maps(src, dst), dst.M, src, "hom",
                        f"Hom({src.name},{dst.name})[{j + 1},{k + 1}]")


def cofree(s: NaryGammaSemiring, coeff: FiniteAddMonoid) -> HomModule:
    """All additive maps from the carrier into a coefficient monoid.

    Slot i acts by inserting material into slot i of the argument, so the
    result is the coinduced module of the underlying additive structure.
    ``MAP_BOUND`` caps the candidate maps and the addition table's entries
    (maps squared); beyond it BoundExceeded is raised.
    """
    return _maps_module(s, additive_maps(s.T, coeff), coeff, regular_bimodule(s),
                        "cofree", f"cofree({s.name})")


# ---------------------------------------------------------------------------
# Positional tensor by congruence closure
# ---------------------------------------------------------------------------

class TensorModule(Record):
    """``beta[m][n]`` is the image element of the generating pair (m, n)."""

    _fields = ("module", "beta")

    def __init__(self, module: BiGammaModule, beta: tuple[tuple[int, ...], ...]):
        _set(self, "module", module)
        _set(self, "beta", beta)

    def pair(self, m: int, n: int) -> int:
        return self.beta[m][n]


def _generator_walk(monoid: FiniteAddMonoid, gens) -> list[tuple[int, int, int]]:
    """Steps (x, i, x + gens[i]) reaching each nonzero element once.

    Breadth-first from zero, adding generators in order, so each element is
    reached by a shortest sum and after the element it extends.
    """
    steps, seen = [], {monoid.zero}
    queue = [monoid.zero]
    for x in queue:
        for i, g in enumerate(gens):
            y = monoid.add(x, g)
            if y not in seen:
                seen.add(y)
                steps.append((x, i, y))
                queue.append(y)
    if len(seen) != monoid.size:
        raise SoundnessError("additive generators do not cover the carrier")
    return steps


def _generator_counts(monoid: FiniteAddMonoid, gens) -> list[tuple[int, ...]]:
    """For each element, one fixed count vector c with element = sum c[i]*gens[i],
    read off ``_generator_walk``."""
    counts = {monoid.zero: (0,) * len(gens)}
    for x, i, y in _generator_walk(monoid, gens):
        counts[y] = counts[x][:i] + (counts[x][i] + 1,) + counts[x][i + 1:]
    return [counts[x] for x in range(monoid.size)]


class TensorCongruence:
    """The presented monoid underlying a positional tensor.

    Every element of L (x) R is a sum over the additive generators g of R of
    a_g (x) g, so the ambient is L^G: one left element per right generator,
    added coordinatewise and flat-indexed by ``flatten_index``.  The pair
    (a, b) is the vector (c_g(b)*a)_g for one fixed sum b = sum c_g(b)*g, so
    left additivity holds in the ambient; union-find closes right additivity
    and slot-(j,k) balancing under translation by (x at position g) for x in
    L's generators; each distinct pair of slot-j and slot-k columns balances
    once.  Classes are numbered by the lexicographically least multiplicity
    vector over the nonzero pairs (a-major) that sums to them, which depends
    only on the quotient and beta.  ``residual_module`` attaches residual
    actions through ``residual_slots``, which extends each distinct column
    of a factor once (``_extension``), from the factors and pair images that
    the callers supply; the plain tensor and scalar extension differ only
    there.
    An ambient of more than ``TENSOR_ELEMENT_BOUND`` elements is refused.
    """

    def __init__(self, left: BiGammaModule, right: BiGammaModule, j: int, k: int):
        s = left.parent
        if s != right.parent:
            raise StructuralError("tensor factors live over different semirings")
        check_slots(s, j, k)
        self.left = left
        self.right = right
        lm, rm = left.M, right.M
        self._rgens = rm.additive_generators()
        self._sizes = (lm.size,) * len(self._rgens)
        total = prod(self._sizes)
        if total > TENSOR_ELEMENT_BOUND:
            raise BoundExceeded(
                f"tensor ambient |L|^g = {lm.size}^{len(self._rgens)} = {total} "
                f"exceeds the element bound {TENSOR_ELEMENT_BOUND}")
        counts = _generator_counts(rm, self._rgens)
        self._vecs = [[tuple(lm.sum([a] * c) for c in counts[b]) for b in range(rm.size)]
                      for a in range(lm.size)]
        self._zero = self._vecs[lm.zero][rm.zero]
        self.pairs = [(a, b) for a in range(lm.size) for b in range(rm.size)
                      if a != lm.zero and b != rm.zero]

        gv = self.gen_vec
        relations = [(gv(a, rm.add(b1, b2)), self._add(gv(a, b1), gv(a, b2)))
                     for a in range(lm.size) for b1 in range(rm.size) for b2 in range(rm.size)]
        relations += [(gv(lcol[a], b), gv(a, rcol[b]))
                      for lcol, rcol in dict.fromkeys(zip(left.actions(j), right.actions(k)))
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

    def _extension(self, images) -> tuple[int, ...] | None:
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

        table = tuple(extend(rep) for rep in self.reps)
        additive = all(table[q.add(c1, c2)] == q.add(table[c1], table[c2])
                       for c1 in range(q.size) for c2 in range(q.size))
        if additive and all(table[self.pair_class(a, b)] == self._class(image[a, b])
                            for a, b in self.pairs):
            return table
        return None

    def residual_module(self, s: NaryGammaSemiring, sides, name: str) -> TensorModule:
        """The quotient as a module over ``s``.  ``sides`` lists (factor name,
        factor, image) triples, ``image(col, a, b)`` being the ambient vector
        a column of the factor sends the pair (a, b) to; each slot acts
        through the first factor whose columns all extend to additive tables
        on the classes (``residual_slots``)."""
        slots = residual_slots(s, [
            (side, factor.actions, lambda col: col,
             lambda col, image=image: self._extension([image(col, a, b) for a, b in self.pairs]))
            for side, factor, image in sides])
        module = module_from_actions(s, self.monoid, slots, name)
        beta = tuple(tuple(self.pair_class(a, b) for b in range(self.right.M.size))
                     for a in range(self.left.M.size))
        return TensorModule(module, beta)


def residual_slots(s: NaryGammaSemiring, sides) -> list:
    """Each slot's residual actions, one per filler, through the first of
    ``sides`` that carries the slot.

    ``sides`` lists (factor name, actions, key, project) tuples:
    ``actions(slot)`` is the slot's action of every filler of ``s``,
    ``key(action)`` stands for an action's value and ``project(action)`` is
    its residual action, or None when it does not descend.  A slot's
    equal actions (as they compare: columns by value, operators by object)
    are merged before any key is read, and each distinct key of a side is
    projected once across slots.  A side carries a slot when every action
    there descends; a slot that no side carries raises SoundnessError naming
    each side's first filler whose action does not descend.
    """
    projected = {}

    def carry(slot):
        failures = []
        for side, actions, key, project in sides:
            acts = actions(slot)
            residual = dict.fromkeys(acts)
            for act in residual:
                memo = side, key(act)
                if memo not in projected:
                    projected[memo] = project(act)
                residual[act] = projected[memo]
                if residual[act] is None:
                    tother, gs = filler_tuples(s)[acts.index(act)]
                    failures.append(f"through the {side} factor, the action at slot {slot + 1} "
                                    f"with carriers {tother} and parameters {gs} does not descend")
                    break
            else:
                return tuple(map(residual.__getitem__, acts))
        raise SoundnessError(f"no residual action descends at slot {slot + 1}: "
                             + "; ".join(failures))

    return [carry(slot) for slot in range(s.n)]


def tensor_positional(left: BiGammaModule, right: BiGammaModule,
                      j: int, k: int) -> TensorModule:
    """Quotient of pairwise generators by bilinearity and slot balancing.

    Material acting in slot ``j`` of the left factor may be re-read as acting
    in slot ``k`` of the right factor with the same carrier tuple and
    parameters, in the same linear order; ``residual_slots`` sends each slot
    through the right factor when it descends there, else the left.
    """
    core = TensorCongruence(left, right, j, k)
    return core.residual_module(
        left.parent, [("right", right, lambda col, a, b: core.gen_vec(a, col[b])),
                      ("left", left, lambda col, a, b: core.gen_vec(col[a], b))],
        f"{left.name}(x){right.name}[{j + 1},{k + 1}]")
