"""Double complexes, filtration pages, Künneth consistency, base change.

Pages are computed extensionally as lattice subquotients of the total
complex, once per filtration; nothing about convergence is assumed beyond
bounded first-quadrant grids, and the page-homology law is re-verified on
the early pages instead of taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from . import intlinalg as la
from .abgroups import (
    AbGroup, GroupMap, HomologyNode, SoundnessError, Subquotient, is_short_exact,
    kernel_gens,
)
from .core import GammaSemiringMorphism, NaryGammaSemiring, StructuralError
from .ideals import all_ideals
from .modules import (
    BiGammaModule, ModuleMorphism, TensorCongruence, filler_index, filler_tuples,
    ideal_submodule, module_from_actions, quotient_projection, regular_bimodule,
)
from .completion import (
    CompletedModule, EquivariantHom, TensorGroup, linearize_all, linearize_morphism,
    linearize_over,
)
from .homology import (
    Complex, HomCochain, TensorChain, bar_complex, homology,
    resolve_slot, tor_via_bar,
)


# ---------------------------------------------------------------------------
# Double complexes and totalization
# ---------------------------------------------------------------------------

class DoubleComplexAb:
    """Bounded first-quadrant grid with anticommuting differentials.

    ``dh[(p, q)]`` maps to (p-1, q) and ``dv[(p, q)]`` to (p, q-1);
    the constructor enforces dh.dh = 0, dv.dv = 0 and dh.dv + dv.dh = 0.
    """

    def __init__(self, entries: dict, dh: dict, dv: dict):
        self.entries = dict(entries)
        self.dh = dict(dh)
        self.dv = dict(dv)
        self.pmax = max((p for (p, _q) in entries), default=0)
        self.qmax = max((q for (_p, q) in entries), default=0)
        for (p, q) in entries:
            hh = self.d_h(p - 1, q).compose(self.d_h(p, q))
            if not hh.is_zero():
                raise SoundnessError(f"horizontal d.d != 0 at {(p, q)}")
            vv = self.d_v(p, q - 1).compose(self.d_v(p, q))
            if not vv.is_zero():
                raise SoundnessError(f"vertical d.d != 0 at {(p, q)}")
            anti = self.d_h(p, q - 1).compose(self.d_v(p, q)).add(
                self.d_v(p - 1, q).compose(self.d_h(p, q)))
            if not anti.is_zero():
                raise SoundnessError(f"differentials do not anticommute at {(p, q)}")

    def entry(self, p: int, q: int) -> AbGroup:
        return self.entries.get((p, q), AbGroup(()))

    def d_h(self, p: int, q: int) -> GroupMap:
        gm = self.dh.get((p, q))
        return gm if gm is not None else GroupMap.zero(self.entry(p, q),
                                                       self.entry(p - 1, q))

    def d_v(self, p: int, q: int) -> GroupMap:
        gm = self.dv.get((p, q))
        return gm if gm is not None else GroupMap.zero(self.entry(p, q),
                                                       self.entry(p, q - 1))

    @staticmethod
    def from_commuting(entries: dict, dh: dict, dv: dict) -> "DoubleComplexAb":
        """Twist the vertical maps by (-1)^p to force anticommutation."""
        twisted = {}
        for (p, q), gm in dv.items():
            twisted[(p, q)] = gm.scale(-1) if p % 2 else gm
        return DoubleComplexAb(entries, dh, twisted)

    def transpose(self) -> "DoubleComplexAb":
        entries = {(q, p): g for (p, q), g in self.entries.items()}
        dh = {(q, p): gm for (p, q), gm in self.dv.items()}
        dv = {(q, p): gm for (p, q), gm in self.dh.items()}
        return DoubleComplexAb(entries, dh, dv)


class Totalization:
    """Direct-sum total complex with per-summand offsets."""

    def __init__(self, d: DoubleComplexAb):
        self.double = d
        self.layout: list[list[tuple[int, int]]] = []
        self.offsets: list[dict] = []
        self.maxdeg = d.pmax + d.qmax
        groups = []
        for n in range(self.maxdeg + 1):
            cells = [(p, n - p) for p in range(n + 1)
                     if (p, n - p) in d.entries]
            off = {}
            pos = 0
            for cell in cells:
                off[cell] = pos
                pos += d.entries[cell].dim
            self.layout.append(cells)
            self.offsets.append(off)
            groups.append(AbGroup(tuple(o for cell in cells
                                        for o in d.entries[cell].orders)))
        diffs = {}
        for n in range(1, self.maxdeg + 1):
            src = groups[n]
            dst = groups[n - 1]
            mat = la.zeros(dst.dim, src.dim)
            for (p, q) in self.layout[n]:
                col0 = self.offsets[n][(p, q)]
                for gm, cell in ((d.d_h(p, q), (p - 1, q)),
                                 (d.d_v(p, q), (p, q - 1))):
                    if cell not in self.offsets[n - 1]:
                        if not gm.is_zero():
                            raise SoundnessError("differential leaves the grid")
                        continue
                    row0 = self.offsets[n - 1][cell]
                    for i in range(gm.dst.dim):
                        for jj in range(gm.src.dim):
                            mat[row0 + i][col0 + jj] += gm.mat[i][jj]
            diffs[n] = GroupMap(src, dst, mat)
        self.complex = Complex(groups, diffs)

    def filtration_columns(self, n: int, pbound: int) -> list[int]:
        """Coordinates of Tot_n in the summands with column index <= pbound."""
        if not 0 <= n <= self.maxdeg:
            return []
        return [self.offsets[n][(p, q)] + i for (p, q) in self.layout[n] if p <= pbound
                for i in range(self.double.entries[(p, q)].dim)]


def totalize(d: DoubleComplexAb) -> Complex:
    return Totalization(d).complex


# ---------------------------------------------------------------------------
# Filtration spectral pages
# ---------------------------------------------------------------------------

@dataclass
class SpectralPage:
    r: int
    entries: dict
    diffs: dict = field(default_factory=dict)

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
    their three lattices, so once r passes the filtration length a page
    reuses the subquotients of an earlier one.  A reused subquotient's
    ``what`` label names the first page that built it.
    """

    def __init__(self, d: DoubleComplexAb, up_to: int):
        self.double = d
        self.tot = Totalization(d)
        self.up_to = up_to
        self._zcache: dict = {}
        self._subq: dict = {}
        self.pages: list[SpectralPage] = []
        for r in range(up_to + 1):
            self.pages.append(self._page(r))

    def _lattice_key(self, r: int, p: int, q: int) -> tuple[int, int, int]:
        """(n, clamped p, clamped p-r): all that ``_zlattice`` reads of r, p, q."""
        pmax = self.double.pmax
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
        cols = self.tot.filtration_columns(n, top)
        out = []
        if cols:
            g = self.tot.complex.groups[n]
            d = self.tot.complex.d(n)
            lower = set(self.tot.filtration_columns(n - 1, bottom))
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
        n = p + q
        g = self.tot.complex.groups[n] if 0 <= n <= self.tot.maxdeg else AbGroup(())
        znum, den, dsrc = map(self._zlattice, key)
        den = list(den)
        if 0 <= n + 1 <= self.tot.maxdeg:
            d = self.tot.complex.d(n + 1)
            for v in dsrc:
                den.append(list(d(v)))
        sq = Subquotient(g, znum, den, what=f"page {r} node {(p, q)}")
        self._subq[key] = sq
        return sq

    def _page(self, r: int) -> SpectralPage:
        entries = {}
        diffs = {}
        for p in range(self.double.pmax + 1):
            for q in range(self.double.qmax + 1):
                sq = self._subquotient(r, p, q)
                entries[(p, q)] = sq.group
        for p in range(self.double.pmax + 1):
            for q in range(self.double.qmax + 1):
                src = self._subquotient(r, p, q)
                tp, tq = p - r, q + r - 1
                if tp < 0 or tq < 0 or tp + tq < 0:
                    continue
                diffs[(p, q)] = src.induced(self.tot.complex.d(p + q),
                                            self._subquotient(r, tp, tq))
        return SpectralPage(r, entries, diffs)

    # -- verification ------------------------------------------------------

    def page_homology_law(self, r: int) -> bool:
        """Page r+1 equals the homology of page r at every node."""
        page = self.pages[r]
        nxt = self.pages[r + 1]
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

    def order_bookkeeping(self) -> list[tuple[int, int, int]]:
        """(degree, product of stable-page orders, total homology order)."""
        last = self.pages[-1]
        tot_h = homology(self.tot.complex)
        out = []
        for n in range(self.tot.maxdeg + 1):
            orders = []
            for p in range(n + 1):
                g = last.entries.get((p, n - p))
                if g is not None:
                    orders.append(g.order())
            lhs = prod(orders) if orders else 1
            out.append((n, lhs, tot_h[n].order()))
        return out


def pages(d: DoubleComplexAb, up_to: int):
    """Both filtrations' page sequences: (by columns, by rows)."""
    first = FiltrationPages(d, up_to)
    second = FiltrationPages(d.transpose(), up_to)
    return first, second


# ---------------------------------------------------------------------------
# Kunneth-style consistency
# ---------------------------------------------------------------------------

@dataclass
class KunnethReport:
    depth: int
    flat_certified: bool
    diag_first: list[tuple[int, int, int]]
    diag_second: list[tuple[int, int, int]]
    stable_first: int
    stable_second: int
    law_first: bool
    law_second: bool
    e2_first: dict
    e2_second: dict
    direct_grid: dict
    e2_matches_direct: bool

    @property
    def consistent(self) -> bool:
        return (all(a == b for (_n, a, b) in self.diag_first)
                and all(a == b for (_n, a, b) in self.diag_second)
                and self.law_first and self.law_second)


def ext_modules_with_ops(s: NaryGammaSemiring, bar, n_lin: CompletedModule,
                         depth: int) -> list[CompletedModule]:
    """Ext groups of the tower as completed modules, ops by postcomposition
    (once per distinct operator)."""
    hc = HomCochain(bar, n_lin)
    out = []
    for qdeg in range(depth + 1):
        node = hc.cochain.node(qdeg)
        hom = hc.homs[qdeg]
        post = {}

        def on_ext(opn):
            if opn.key not in post:
                # Only the cocycle representatives need stay equivariant.
                post[opn.key] = node.induced(
                    lambda rep: hom.coords(opn.compose(hom.matrix(tuple(rep))), "operator"),
                    node)
            return post[opn.key]

        ops = tuple(tuple(map(on_ext, slot)) for slot in n_lin.ops)
        out.append(CompletedModule(s, node.group, ops, None, name=f"Ext^{qdeg}"))
    return out


def kunneth_check(s: NaryGammaSemiring, m: BiGammaModule, n: BiGammaModule,
                  l: BiGammaModule, depth: int = 2, j: int | None = None,
                  k: int = 0) -> KunnethReport:
    """Double-complex consistency for the two bar towers against a target.

    Builds the grid of balanced tensor terms, applies equivariant Hom into
    the target, computes both filtrations, and reports per-diagonal order
    bookkeeping, stabilization, the page-homology law, and the comparison of
    the second page against the directly computed Tor-of-Ext grid.  The
    modules and the regular carrier are linearized once, together, and every
    tower and probe of the call shares them.
    """
    j = resolve_slot(s, j)
    lin_m, lin_n, lin_l, carrier = linearize_over(s, [m, n, l, regular_bimodule(s)])
    bar_m = bar_complex(s, lin_m, j, k, depth, carrier=carrier)
    bar_n = bar_complex(s, lin_n, j, k, depth, carrier=carrier)

    flat = flatness_probe(s, lin_l, j, k,
                          conflations=source_conflation_triples(s, carrier))

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
                    cells[(p, q)], left=bar_m.diffs[p + 1], what="horizontal grid map")
                dh[(pm - p, qm - q)] = homs[(p, q)].induced(
                    homs[(p + 1, q)], pre=tmap, what="horizontal Hom map")
            if q + 1 <= depth:
                tmap = cells[(p, q + 1)].induced(
                    cells[(p, q)], right=bar_n.diffs[q + 1], what="vertical grid map")
                dv[(pm - p, qm - q)] = homs[(p, q)].induced(
                    homs[(p, q + 1)], pre=tmap, what="vertical Hom map")
    grid = DoubleComplexAb.from_commuting(entries, dh, dv)

    # The page laws below compare pages 1 to 3.
    up_to = max(2 * depth + 2, 3)
    first, second = pages(grid, up_to)
    diag1 = first.order_bookkeeping()
    diag2 = second.order_bookkeeping()
    law1 = first.page_homology_law(1) and first.page_homology_law(2)
    law2 = second.page_homology_law(1) and second.page_homology_law(2)

    e2_first = {(pm - pp, qm - qq): first.pages[2].factors(pp, qq)
                for pp in range(depth + 1) for qq in range(depth + 1)}
    e2_second = {(pm - pp, qm - qq): second.pages[2].factors(qq, pp)
                 for pp in range(depth + 1) for qq in range(depth + 1)}

    ext_mods = ext_modules_with_ops(s, bar_m, lin_n, depth)
    direct = {}
    for qdeg in range(depth + 1):
        tor = tor_via_bar(s, ext_mods[qdeg], lin_l, j, k, depth, carrier=carrier)
        for pdeg in range(depth + 1):
            direct[(pdeg, qdeg)] = tor.factors()[pdeg]
    match = all(e2_first.get(key, ()) == v or e2_second.get(key, ()) == v
                for key, v in direct.items())

    return KunnethReport(depth, flat, diag1, diag2,
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
                   j: int | None = None, k: int = 0, name: str = ""):
    """Target carrier tensored against the module over the source actions.

    Every slot acts through the carrier factor, the one side given to
    ``residual_slots``; a failure to descend is an obstruction and raises.
    """
    if a.parent != f.source:
        raise StructuralError("module does not live over the morphism source")
    target = f.target
    reg = regular_bimodule(target)
    core = TensorCongruence(restrict_scalars(f, reg), a, resolve_slot(f.source, j), k)
    return core.residual_module(
        target, [("carrier", reg, lambda col, x, av: core.gen_vec(col[x], av))],
        name or f"ext({a.name})")


def source_conflation_triples(s: NaryGammaSemiring,
                              carrier: CompletedModule | None = None):
    """Ideal-induced completed short sequences used by the flatness probe.

    ``carrier`` is the completed regular module when the caller has it; the
    modules of all sequences are linearized together.
    """
    regular = regular_bimodule(s)
    seqs = []
    for ideal in all_ideals(s):
        if not ideal.is_proper() or len(ideal.members) == 1:
            continue
        incl = ModuleMorphism(ideal_submodule(s, ideal), regular,
                              tuple(ideal.sorted_members()))
        proj = quotient_projection(regular, ideal.members, f"{s.name}.mod{ideal}")
        seqs.append((incl, proj))
    reg, *lins = linearize_all([regular if carrier is None else carrier]
                               + [m for incl, proj in seqs
                                  for m in (incl.source, proj.target)])
    return [(lins[2 * i], reg, lins[2 * i + 1], seq) for i, seq in enumerate(seqs)]


def flatness_probe(s: NaryGammaSemiring, x: CompletedModule,
                   j: int | None = None, k: int = 0, conflations=None) -> bool:
    """Whether tensoring with x preserves the probe conflations exactly."""
    j = resolve_slot(s, j)
    triples = conflations if conflations is not None else \
        source_conflation_triples(s)
    for (lin_a, lin_b, lin_c, (incl, proj)) in triples:
        ki = linearize_morphism(incl, lin_a, lin_b)
        kp = linearize_morphism(proj, lin_b, lin_c)
        ta = TensorGroup(lin_a, x, j, k)
        tb = TensorGroup(lin_b, x, j, k)
        tc = TensorGroup(lin_c, x, j, k)
        try:
            fi = ta.induced(tb, left=ki, what="flatness probe map")
            fp = tb.induced(tc, left=kp, what="flatness probe map")
        except SoundnessError:
            return False
        if not is_short_exact(fi, fp):
            return False
    return True


@dataclass
class BaseChangeReport:
    ext_left: list[tuple[int, ...]]
    ext_right: list[tuple[int, ...]]
    tor_left: list[tuple[int, ...]]
    tor_right: list[tuple[int, ...]]
    flat: bool

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


def base_change_check(f: GammaSemiringMorphism, m: BiGammaModule,
                      n: BiGammaModule, depth: int = 1, j: int | None = None,
                      k: int = 0) -> BaseChangeReport:
    """Both displayed comparisons along a morphism, with the flatness probe.

    The first compares the extension of each derived Hom group against the
    derived Hom of the extensions over the target; the second compares Tor
    over the source of the restricted extensions against Tor over the target.
    Every module of the call, the two regular carriers included, is
    linearized once, together.  Each side's towers contract with their own
    semiring's ``default_policy``.
    """
    s = f.source
    t = f.target
    j = resolve_slot(s, j)
    ext_mod_m = extend_scalars(f, m, j, k).module
    ext_mod_n = ext_mod_m if n is m else extend_scalars(f, n, j, k).module
    reg_t = regular_bimodule(t)
    (lin_m, lin_n, carrier_s, lin_aex, lin_bex, carrier_t, res_aex, res_bex,
     res_t) = linearize_all(
        [m, n, regular_bimodule(s), ext_mod_m, ext_mod_n, reg_t]
        + [restrict_scalars(f, b) for b in (ext_mod_m, ext_mod_n, reg_t)])

    bar_src = bar_complex(s, lin_m, j, k, depth + 1, carrier=carrier_s)
    ext_src = ext_modules_with_ops(s, bar_src, lin_n, depth)
    # K(T') balanced against each completed Ext module over the source
    ext_left = [TensorGroup(res_t, e, j, k).group.invariant_factors() for e in ext_src]
    # One tower over the target serves both its Ext and its Tor.
    bar_t = bar_complex(t, lin_aex, j, k, depth + 1, carrier=carrier_t)
    ext_right = [g.invariant_factors()
                 for g in homology(HomCochain(bar_t, lin_bex).cochain, depth)]
    tor_left = [g.invariant_factors()
                for g in homology(TensorChain(bar_t, lin_bex).chain, depth)]
    tor_right = tor_via_bar(s, res_aex, res_bex, j, k, depth, carrier=carrier_s).factors()

    flat = flatness_probe(s, res_t, j, k,
                          conflations=source_conflation_triples(s, carrier_s))
    return BaseChangeReport(ext_left, ext_right, tor_left, tor_right, flat)
