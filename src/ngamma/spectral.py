"""Double complexes held as their total complexes, filtration pages,
Künneth consistency, base change.

A grid is assembled into its total complex once, and that complex's d∘d
check is the grid's whole law.  Pages are computed extensionally as lattice
subquotients of the total complex, once per filtration; the row filtration
is the column filtration of the transpose, which renames the cells over the
same total complex.  A bounded first-quadrant grid with pmax+1 columns has
E_(pmax+1) = E∞, so each filtration builds pages 0..pmax+1 and reads every
later page as E∞.  The page-homology law is re-verified on the early pages
instead of taken on faith.  ``kunneth_check`` and ``base_change_check``
read every derived group and Ext module off ``ext_via_bar`` and
``tor_via_bar``, refuse a tower that is not exact below its cut, and each
run in one call scope (``intlinalg.shares_factorizations``), so their probes
and Tor comparisons share every bar tower and linearization.
"""

from __future__ import annotations

import copy
from functools import cached_property
from math import prod

from . import intlinalg as la
from .abgroups import (
    AbGroup, GroupMap, HomologyNode, Subquotient, is_short_exact, kernel_gens,
)
from .core import (
    GammaSemiringMorphism, NaryGammaSemiring, Record, SoundnessError, StructuralError, _set,
)
from .ideals import all_ideals
from .modules import (
    BiGammaModule, ModuleMorphism, TensorCongruence, filler_index, filler_tuples,
    ideal_submodule, module_from_actions, quotient_projection, regular_bimodule,
    resolve_slot,
)
from .completion import (
    CompletedModule, EquivariantHom, TensorGroup, linearize_module, linearize_morphism,
    linearize_over,
)
from .homology import Complex, bar_complex, ext_via_bar, homology, tor_via_bar


# ---------------------------------------------------------------------------
# Double complexes
# ---------------------------------------------------------------------------

def _swap(cells: dict) -> dict:
    return {(q, p): v for (p, q), v in cells.items()}


class DoubleComplexAb:
    """Bounded first-quadrant grid with anticommuting differentials, held as
    its total complex.

    ``dh[(p, q)]`` maps cell (p, q) to (p-1, q) and ``dv[(p, q)]`` to
    (p, q-1); a cell outside ``entries`` is the zero group, and a map whose
    groups are not its two cells' raises ValueError.  Tot_n lays out the
    cells of degree n by ascending p, ``offsets[n]`` giving each cell's first
    coordinate, and ``complex`` is Tot.  Its d∘d check is the grid's whole
    law: D∘D splits into dh∘dh, dh∘dv + dv∘dh and dv∘dv, which land in the
    distinct cells (p-2, q), (p-1, q-1) and (p, q-2).
    """

    def __init__(self, entries: dict, dh: dict, dv: dict):
        self.entries = dict(entries)
        self.dh = dict(dh)
        self.dv = dict(dv)
        self.pmax = max((p for (p, _q) in entries), default=0)
        self.qmax = max((q for (_p, q) in entries), default=0)
        self.offsets: list[dict] = []
        groups = []
        for n in range(self.pmax + self.qmax + 1):
            off, orders = {}, ()
            for cell in ((p, n - p) for p in range(n + 1)):
                if cell in self.entries:
                    off[cell] = len(orders)
                    orders += self.entries[cell].orders
            self.offsets.append(off)
            groups.append(AbGroup(orders))
        mats = {n: la.zeros(groups[n - 1].dim, groups[n].dim)
                for n in range(1, len(groups))}
        zero = AbGroup(())
        for kind, maps, (dp, dq) in (("dh", self.dh, (1, 0)), ("dv", self.dv, (0, 1))):
            for (p, q), gm in maps.items():
                cell = (p - dp, q - dq)
                src, dst = self.entries.get((p, q), zero), self.entries.get(cell, zero)
                if gm.src.orders != src.orders or gm.dst.orders != dst.orders:
                    raise ValueError(
                        f"{kind} at {(p, q)} maps {gm.src.orders} -> {gm.dst.orders}, "
                        f"but its cells are {src.orders} -> {dst.orders}")
                if src.dim and dst.dim:
                    row0, col0 = self.offsets[p + q - 1][cell], self.offsets[p + q][(p, q)]
                    for i, row in enumerate(gm.mat):
                        mats[p + q][row0 + i][col0:col0 + src.dim] = row
        self.complex = Complex(groups, {n: GroupMap(groups[n], groups[n - 1], mat)
                                        for n, mat in mats.items()})

    @staticmethod
    def from_commuting(entries: dict, dh: dict, dv: dict) -> "DoubleComplexAb":
        """Twist the vertical maps by (-1)^p to force anticommutation."""
        twisted = {}
        for (p, q), gm in dv.items():
            twisted[(p, q)] = gm.scale(-1) if p % 2 else gm
        return DoubleComplexAb(entries, dh, twisted)

    def transpose(self) -> "DoubleComplexAb":
        """Each cell (p, q) renamed (q, p), dh and dv exchanged, over this
        same total complex: its column filtration is this grid's rows'."""
        t = copy.copy(self)
        t.entries, t.dh, t.dv = _swap(self.entries), _swap(self.dv), _swap(self.dh)
        t.pmax, t.qmax = self.qmax, self.pmax
        t.offsets = list(map(_swap, self.offsets))
        return t

    def filtration_columns(self, n: int, pbound: int) -> list[int]:
        """Coordinates of Tot_n in the cells with column index <= pbound."""
        if not 0 <= n < len(self.offsets):
            return []
        return [off + i for (p, q), off in self.offsets[n].items() if p <= pbound
                for i in range(self.entries[(p, q)].dim)]


# ---------------------------------------------------------------------------
# Filtration spectral pages
# ---------------------------------------------------------------------------

class SpectralPage:
    """A page's groups by node, and its differentials by source node, which
    ``build_diffs`` builds the first time ``diffs`` is read."""

    def __init__(self, entries: dict, build_diffs):
        self.entries = entries
        self._build_diffs = build_diffs

    diffs = cached_property(lambda self: self._build_diffs())

    def factors(self, p: int, q: int) -> tuple[int, ...]:
        g = self.entries.get((p, q))
        return g.invariant_factors() if g is not None else ()


class FiltrationPages:
    """Column-filtration pages of a bounded homological double complex.

    The cycle lattice ``_zlattice`` of node (p, q) on page r depends only on
    the total degree n = p+q and on the filtration indices p and p-r, each
    clamped to the columns the grid has: anything from ``pmax`` up keeps
    every column and anything below 0 keeps none (read as -1).  Lattices are
    kept under that key (``_lattice_key``) and subquotients under the keys of
    their three lattices.  A reused subquotient's ``what`` label names the
    first page that built it.  The lattice cache stays although
    ``kunneth_check`` shares its factorizations: a repeated key would still
    restrict d, key the memo and reduce every kernel generator again, and
    without the cache ``bundled-cli`` ``wall_s`` rose by about 3% (12
    alternating pairs of ``perfbench/run.py``, 10 slower).

    From r = pmax+1 on, every node's keys, and so its subquotient, are those
    of page pmax+1, and no differential has a target column: ``pages`` holds
    pages 0..pmax+1, and ``page(r)`` reads any later r as E∞ = page pmax+1.
    """

    def __init__(self, d: DoubleComplexAb):
        self.grid = d
        self._zcache: dict = {}
        self._subq: dict = {}
        self.pages = [self._page(r) for r in range(d.pmax + 2)]

    def page(self, r: int) -> SpectralPage:
        """Page r, or E∞ = page pmax+1 for any later r."""
        return self.pages[min(r, len(self.pages) - 1)]

    def _lattice_key(self, r: int, p: int, q: int) -> tuple[int, int, int]:
        """(n, clamped p, clamped p-r): all that ``_zlattice`` reads of r, p, q."""
        pmax = self.grid.pmax
        return (p + q, max(min(p, pmax), -1), max(min(p - max(r, 0), pmax), -1))

    def _zlattice(self, key: tuple[int, int, int]) -> list[list[int]]:
        """Generators of {x in F_p Tot_n : dx in F_(p-r) + relations} for
        the ``_lattice_key`` (n, p, p-r).

        F_p and F_(p-r) are sets of coordinates, so this is the kernel of d
        restricted to the F_p columns with the F_(p-r) rows dropped.
        """
        if key in self._zcache:
            return self._zcache[key]
        n, top, bottom = key
        cols = self.grid.filtration_columns(n, top)
        out = []
        if cols:
            g = self.grid.complex.groups[n]
            d = self.grid.complex.d(n)
            lower = set(self.grid.filtration_columns(n - 1, bottom))
            rows = [i for i in range(d.dst.dim) if i not in lower]
            restricted = GroupMap(AbGroup(tuple(g.orders[c] for c in cols)),
                                  AbGroup(tuple(d.dst.orders[i] for i in rows)),
                                  [[d.mat[i][c] for c in cols] for i in rows],
                                  check=False)
            for gen in kernel_gens(restricted):
                vec = [0] * g.dim
                for c, v in zip(cols, gen):
                    vec[c] = v
                out.append(vec)
        self._zcache[key] = out
        return out

    def _subquotient(self, r: int, p: int, q: int) -> Subquotient:
        key = tuple(self._lattice_key(*cell) for cell in
                    ((r, p, q), (r - 1, p - 1, q + 1), (r - 1, p + r - 1, q - r + 2)))
        if key in self._subq:
            return self._subq[key]
        tot = self.grid.complex
        znum, den, dsrc = map(self._zlattice, key)
        d = tot.d(p + q + 1)
        sq = Subquotient(tot.group(p + q), znum, den + [list(d(v)) for v in dsrc],
                         what=f"page {r} node {(p, q)}")
        self._subq[key] = sq
        return sq

    def _page(self, r: int) -> SpectralPage:
        """Page r's groups, and its differentials to build when read."""
        cells = [(p, q) for p in range(self.grid.pmax + 1) for q in range(self.grid.qmax + 1)]
        entries = {(p, q): self._subquotient(r, p, q).group for p, q in cells}

        def diffs():
            return {(p, q): self._subquotient(r, p, q).induced(
                        self.grid.complex.d(p + q), self._subquotient(r, p - r, q + r - 1))
                    for p, q in cells if p >= r and q + r >= 1}
        return SpectralPage(entries, diffs)

    # -- verification ------------------------------------------------------

    def page_homology_law(self, r: int) -> bool:
        """Page r+1 equals the homology of page r at every node."""
        page = self.page(r)
        nxt = self.page(r + 1)
        for (p, q), g in page.entries.items():
            out_map = page.diffs.get((p, q), GroupMap.zero(g, AbGroup(())))
            src_cell = (p + r, q - r + 1)
            in_map = page.diffs.get(
                src_cell, GroupMap.zero(page.entries.get(src_cell, AbGroup(())), g))
            node = HomologyNode(g, out_map, in_map)
            if node.group.invariant_factors() != nxt.entries[(p, q)].invariant_factors():
                return False
        return True

    def stable_from(self) -> int:
        """First page index after which every computed node stays constant."""
        for r in range(len(self.pages) - 1):
            if all(self.pages[r].factors(p, q) == pg.factors(p, q)
                   for pg in self.pages[r + 1:]
                   for (p, q) in self.pages[r].entries):
                return r
        return len(self.pages) - 1

    def order_bookkeeping(self, tot_h: list[AbGroup]) -> list[tuple[int, int, int]]:
        """(degree, product of E∞ orders, order of ``tot_h``), where ``tot_h``
        is the homology of the total complex both filtrations share."""
        last = self.pages[-1]
        return [(n, prod(last.entries[(p, n - p)].order() for p in range(n + 1)
                         if (p, n - p) in last.entries), tot_h[n].order())
                for n in range(self.grid.complex.top + 1)]


# ---------------------------------------------------------------------------
# Kunneth-style consistency
# ---------------------------------------------------------------------------

class KunnethReport(Record):
    _fields = ("flat_certified", "diag_first", "diag_second", "stable_first", "stable_second",
               "law_first", "law_second", "e2_first", "e2_second", "direct_grid",
               "e2_matches_direct")

    def __init__(self, flat_certified: bool, diag_first: list[tuple[int, int, int]],
                 diag_second: list[tuple[int, int, int]], stable_first: int,
                 stable_second: int, law_first: bool, law_second: bool, e2_first: dict,
                 e2_second: dict, direct_grid: dict, e2_matches_direct: bool):
        _set(self, "flat_certified", flat_certified)
        _set(self, "diag_first", diag_first)
        _set(self, "diag_second", diag_second)
        _set(self, "stable_first", stable_first)
        _set(self, "stable_second", stable_second)
        _set(self, "law_first", law_first)
        _set(self, "law_second", law_second)
        _set(self, "e2_first", e2_first)
        _set(self, "e2_second", e2_second)
        _set(self, "direct_grid", direct_grid)
        _set(self, "e2_matches_direct", e2_matches_direct)

    @property
    def consistent(self) -> bool:
        return (all(a == b for (_n, a, b) in self.diag_first)
                and all(a == b for (_n, a, b) in self.diag_second)
                and self.law_first and self.law_second)


@la.shares_factorizations
def kunneth_check(s: NaryGammaSemiring, m: BiGammaModule, n: BiGammaModule,
                  l: BiGammaModule, depth: int = 2, j: int | None = None,
                  k: int = 0) -> KunnethReport:
    """Double-complex consistency for the two bar towers against a target.

    Builds the grid of balanced tensor terms through degree ``depth`` on
    towers of depth + 1 (one when m is n), applies equivariant Hom into the
    target, computes both filtrations, and reports per-diagonal order
    bookkeeping, stabilization, the page-homology law, and the comparison of
    the second page against the directly computed Tor-of-Ext grid.
    """
    j = resolve_slot(s, j)
    lin_m, lin_n, lin_l = linearize_over(s, [m, n, l])
    ext = ext_via_bar(s, lin_m, lin_n, j, k, depth)
    bar_m = ext.resolution
    bar_n = bar_complex(s, lin_n, j, k, depth + 1)

    flat = flatness_probe(s, lin_l, j, k)

    cells = {(p, q): TensorGroup(bar_m.terms[p], bar_n.terms[q], j, k)
             for p in range(depth + 1) for q in range(depth + 1)}
    homs = {pq: EquivariantHom(tg.as_module(), lin_l) for pq, tg in cells.items()}

    # Cohomological grid, then flipped to a homological first quadrant.
    pm = qm = depth
    entries = {(pm - p, qm - q): hom.group for (p, q), hom in homs.items()}
    dh = {}
    dv = {}
    for p in range(depth + 1):
        for q in range(depth + 1):
            if p + 1 <= depth:
                tmap = cells[(p + 1, q)].induced(
                    cells[(p, q)], "left", bar_m.diffs[p + 1], what="horizontal grid map")
                dh[(pm - p, qm - q)] = homs[(p, q)].induced(
                    homs[(p + 1, q)], "pre", tmap, what="horizontal Hom map")
            if q + 1 <= depth:
                tmap = cells[(p, q + 1)].induced(
                    cells[(p, q)], "right", bar_n.diffs[q + 1], what="vertical grid map")
                dv[(pm - p, qm - q)] = homs[(p, q)].induced(
                    homs[(p, q + 1)], "pre", tmap, what="vertical Hom map")
    grid = DoubleComplexAb.from_commuting(entries, dh, dv)

    # The rows are the columns of the transpose, over the same total complex.
    first, second = FiltrationPages(grid), FiltrationPages(grid.transpose())
    tot_h = homology(grid.complex)
    diag1 = first.order_bookkeeping(tot_h)
    diag2 = second.order_bookkeeping(tot_h)
    law1 = first.page_homology_law(1) and first.page_homology_law(2)
    law2 = second.page_homology_law(1) and second.page_homology_law(2)

    e2_first = {(pm - pp, qm - qq): first.page(2).factors(pp, qq)
                for pp in range(depth + 1) for qq in range(depth + 1)}
    e2_second = {(pm - pp, qm - qq): second.page(2).factors(qq, pp)
                 for pp in range(depth + 1) for qq in range(depth + 1)}

    direct = {(pdeg, qdeg): f for qdeg, ext_mod in enumerate(ext.modules())
              for pdeg, f in enumerate(tor_via_bar(s, ext_mod, lin_l, j, k, depth).factors())}
    match = all(e2_first.get(key, ()) == v or e2_second.get(key, ()) == v
                for key, v in direct.items())

    return KunnethReport(flat, diag1, diag2,
                         first.stable_from(), second.stable_from(),
                         law1, law2, e2_first, e2_second, direct, match)


# ---------------------------------------------------------------------------
# Base change
# ---------------------------------------------------------------------------

def restrict_scalars(f: GammaSemiringMorphism, b: BiGammaModule) -> BiGammaModule:
    """Pull a module over the target back along the morphism.

    Source filler (tother, gs) acts by the target's column for filler
    (f(tother), gs); both semirings share the parameter semigroup.
    """
    if b.parent != f.target:
        raise StructuralError("module does not live over the morphism target")
    s, n = f.source, f.source.n
    picks = [filler_index(f.target, map(f, t), g) for t, g in filler_tuples(s)]
    return module_from_actions(
        s, b.M, [[cols[w] for w in picks] for cols in map(b.actions, range(n))],
        name=f"res({b.name})")


def extend_scalars(f: GammaSemiringMorphism, a: BiGammaModule,
                   j: int | None = None, k: int = 0):
    """Target carrier tensored against the module over the source actions.

    Every slot acts through the carrier factor, the one side given to
    ``residual_slots``; a slot where it does not descend is an obstruction
    and raises the SoundnessError that a tensor's refusal raises.
    """
    if a.parent != f.source:
        raise StructuralError("module does not live over the morphism source")
    target = f.target
    reg = regular_bimodule(target)
    core = TensorCongruence(restrict_scalars(f, reg), a, resolve_slot(f.source, j), k)
    return core.residual_module(
        target, [("carrier", reg, lambda col, x, av: core.gen_vec(col[x], av))],
        f"ext({a.name})")


def flatness_probe(s: NaryGammaSemiring, x: CompletedModule,
                   j: int | None = None, k: int = 0) -> bool:
    """Whether tensoring with x keeps exact the conflation I -> T -> T/I of
    every proper ideal I with more than one member; False at the first
    that it does not."""
    j = resolve_slot(s, j)
    regular = regular_bimodule(s)
    lin_b = linearize_module(regular)
    for ideal in all_ideals(s):
        if not ideal.is_proper() or len(ideal.members) == 1:
            continue
        incl = ModuleMorphism(ideal_submodule(s, ideal), regular,
                              tuple(ideal.sorted_members()))
        proj = quotient_projection(regular, ideal.members, f"{s.name}.mod{ideal}")
        lin_a, lin_c = linearize_module(incl.source), linearize_module(proj.target)
        ki = linearize_morphism(incl, lin_a, lin_b)
        kp = linearize_morphism(proj, lin_b, lin_c)
        ta, tb, tc = (TensorGroup(lin, x, j, k) for lin in (lin_a, lin_b, lin_c))
        try:
            fi = ta.induced(tb, "left", ki, what="flatness probe map")
            fp = tb.induced(tc, "left", kp, what="flatness probe map")
        except SoundnessError:
            return False
        if not is_short_exact(fi, fp):
            return False
    return True


class BaseChangeReport(Record):
    _fields = ("ext_left", "ext_right", "tor_left", "tor_right", "flat")

    def __init__(self, ext_left: list[tuple[int, ...]], ext_right: list[tuple[int, ...]],
                 tor_left: list[tuple[int, ...]], tor_right: list[tuple[int, ...]],
                 flat: bool):
        _set(self, "ext_left", ext_left)
        _set(self, "ext_right", ext_right)
        _set(self, "tor_left", tor_left)
        _set(self, "tor_right", tor_right)
        _set(self, "flat", flat)

    @property
    def ext_match(self) -> bool:
        return self.ext_left == self.ext_right

    @property
    def tor_match(self) -> bool:
        return self.tor_left == self.tor_right

    @property
    def consistent(self) -> bool:
        # Mismatches are expected counter-behaviour when the probe fails.
        return (self.ext_match and self.tor_match) or not self.flat


@la.shares_factorizations
def base_change_check(f: GammaSemiringMorphism, m: BiGammaModule,
                      n: BiGammaModule, depth: int = 1, j: int | None = None,
                      k: int = 0) -> BaseChangeReport:
    """Both displayed comparisons along a morphism, with the flatness probe.

    The first compares the extension of each derived Hom group against the
    derived Hom of the extensions over the target; the second compares Tor
    over the source of the restricted extensions against Tor over the target.
    Each side's towers contract with their own semiring's ``default_policy``.
    """
    s = f.source
    t = f.target
    j = resolve_slot(s, j)
    ext_mod_m = extend_scalars(f, m, j, k).module
    ext_mod_n = ext_mod_m if n is m else extend_scalars(f, n, j, k).module
    res_aex, res_bex, res_t = (linearize_module(restrict_scalars(f, b)) for b in
                               (ext_mod_m, ext_mod_n, regular_bimodule(t)))

    # K(T') balanced against each completed Ext module over the source
    ext_left = [TensorGroup(res_t, e, j, k).group.invariant_factors()
                for e in ext_via_bar(s, m, n, j, k, depth).modules()]
    # The call's scope builds one tower over the target for its Ext and Tor.
    ext_right = ext_via_bar(t, ext_mod_m, ext_mod_n, j, k, depth).factors()
    tor_left = tor_via_bar(t, ext_mod_m, ext_mod_n, j, k, depth).factors()
    tor_right = tor_via_bar(s, res_aex, res_bex, j, k, depth).factors()

    flat = flatness_probe(s, res_t, j, k)
    return BaseChangeReport(ext_left, ext_right, tor_left, tor_right, flat)
