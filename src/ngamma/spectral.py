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
    AbGroup, GroupMap, HomologyNode, SoundnessError, Subgroup, Subquotient,
    image, kernel, order_lattice_columns,
)
from .core import GammaSemiringMorphism, NaryGammaSemiring
from .ideals import all_ideals, bourne_classes
from .modules import (
    BiGammaModule, ModuleMorphism, TensorCongruence, build_module,
    ideal_submodule, quotient_module, regular_bimodule,
)
from .completion import (
    CompletedModule, EquivariantHom, TensorGroup, linearize_module,
    linearize_morphism,
)
from .homology import (
    ChainComplexAb, ContractionPolicy, HomCochain, bar_complex, default_policy,
    homology, tor_via_bar,
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
        self.complex = ChainComplexAb(groups, diffs)

    def include(self, p: int, q: int, vec):
        n = p + q
        out = [0] * self.complex.groups[n].dim
        off = self.offsets[n][(p, q)]
        for i, v in enumerate(vec):
            out[off + i] = v
        return out

    def filtration_columns(self, n: int, pbound: int) -> list[list[int]]:
        """Basis vectors of the span of summands with column index <= pbound."""
        if not 0 <= n <= self.maxdeg:
            return []
        g = self.complex.groups[n]
        cols = []
        for (p, q) in self.layout[n]:
            if p <= pbound:
                off = self.offsets[n][(p, q)]
                for i in range(self.double.entries[(p, q)].dim):
                    e = [0] * g.dim
                    e[off + i] = 1
                    cols.append(e)
        return cols


def totalize(d: DoubleComplexAb) -> ChainComplexAb:
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
    """Column-filtration pages of a bounded homological double complex."""

    def __init__(self, d: DoubleComplexAb, up_to: int):
        self.double = d
        self.tot = Totalization(d)
        self.up_to = up_to
        self._zcache: dict = {}
        self._subq: dict = {}
        self.pages: list[SpectralPage] = []
        for r in range(up_to + 1):
            self.pages.append(self._page(r))

    def _zlattice(self, r: int, p: int, q: int) -> list[list[int]]:
        """Generators of {x in F_p Tot_(p+q) : dx in F_(p-r) + relations}."""
        r = max(r, 0)
        key = (r, p, q)
        if key in self._zcache:
            return self._zcache[key]
        n = p + q
        # q may be negative: the cell label is bookkeeping, the lattice
        # F_p of the total degree n = p+q is what matters.
        if p < 0 or not 0 <= n <= self.tot.maxdeg:
            self._zcache[key] = []
            return []
        fcols = self.tot.filtration_columns(n, p)
        if not fcols:
            self._zcache[key] = []
            return []
        g = self.tot.complex.groups[n]
        d = self.tot.complex.d(n)
        lower = self.tot.filtration_columns(n - 1, p - r)
        ocols = order_lattice_columns(d.dst)
        kdim = len(fcols)
        aux = lower + ocols
        acols = kdim + len(aux)
        if d.dst.dim == 0:
            basis = [e for e in la.identity(kdim)]
        else:
            amat = []
            for i in range(d.dst.dim):
                row = []
                for c in range(kdim):
                    row.append(sum(d.mat[i][t] * fcols[c][t] for t in range(g.dim)))
                for av in aux:
                    row.append(-av[i])
                amat.append(row)
            basis = la.kernel_basis(amat, d.dst.dim, acols)
        out = []
        for b in basis:
            vec = [0] * g.dim
            for c in range(kdim):
                if b[c]:
                    for t in range(g.dim):
                        vec[t] += b[c] * fcols[c][t]
            out.append(vec)
        self._zcache[key] = out
        return out

    def _subquotient(self, r: int, p: int, q: int) -> Subquotient:
        key = (r, p, q)
        if key in self._subq:
            return self._subq[key]
        n = p + q
        g = self.tot.complex.groups[n] if 0 <= n <= self.tot.maxdeg else AbGroup(())
        znum = self._zlattice(r, p, q)
        den = list(self._zlattice(r - 1, p - 1, q + 1))
        dsrc = self._zlattice(r - 1, p + r - 1, q - r + 2)
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
                dst = self._subquotient(r, tp, tq)
                n = p + q
                d = self.tot.complex.d(n) if 0 <= n <= self.tot.maxdeg else None
                diffs[(p, q)] = GroupMap.from_images(
                    src.group, dst.group,
                    lambda basis: dst.classify(
                        d(src.representative(basis)) if d is not None else ()))
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
            if in_map.dst.orders != g.orders:
                in_map = GroupMap.zero(AbGroup(()), g)
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
    """Ext groups of the tower as completed modules, ops by postcomposition."""
    hc = HomCochain(bar, n_lin)
    out = []
    for qdeg in range(depth + 1):
        node = hc.cochain.node(qdeg)
        hom = hc.homs[qdeg]
        ops = []
        for slot in range(s.n):
            slot_ops = []
            for w in range(len(n_lin.ops[slot])):
                opn = n_lin.op(slot, w)

                def image_of(basis):
                    rep = node.representative(basis)
                    coords = hom.coords(opn.compose(hom.matrix(tuple(rep))))
                    if coords is None:
                        raise SoundnessError("operator left the equivariant maps")
                    return node.classify(coords)

                slot_ops.append(GroupMap.from_images(node.group, node.group, image_of))
            ops.append(tuple(slot_ops))
        out.append(CompletedModule(s, node.group, tuple(ops), None,
                                   name=f"Ext^{qdeg}"))
    return out


def kunneth_check(s: NaryGammaSemiring, m: BiGammaModule, n: BiGammaModule,
                  l: BiGammaModule, depth: int = 2, j: int = 2, k: int = 0,
                  policy: ContractionPolicy | None = None,
                  conflations=None) -> KunnethReport:
    """Double-complex consistency for the two bar towers against a target.

    Builds the grid of balanced tensor terms, applies equivariant Hom into
    the target, computes both filtrations, and reports per-diagonal order
    bookkeeping, stabilization, the page-homology law, and the comparison of
    the second page against the directly computed Tor-of-Ext grid.
    """
    policy = policy or default_policy(s)
    lin_l = linearize_module(l)
    lin_n = linearize_module(n)
    bar_m = bar_complex(s, m, j, k, depth, policy)
    bar_n = bar_complex(s, n, j, k, depth, policy)

    flat = flatness_probe(s, lin_l, j, k, conflations=conflations)

    cells = {}
    for p in range(depth + 1):
        for q in range(depth + 1):
            cells[(p, q)] = TensorGroup(bar_m.terms[p], bar_n.terms[q], j, k)
    homs = {}
    for (p, q), tg in cells.items():
        homs[(p, q)] = EquivariantHom(tg.as_module(), lin_l)

    # Cohomological grid, then flipped to a homological first quadrant.
    entries = {}
    dh = {}
    dv = {}
    pm = qm = depth
    for p in range(depth + 1):
        for q in range(depth + 1):
            entries[(pm - p, qm - q)] = homs[(p, q)].group
    for p in range(depth + 1):
        for q in range(depth + 1):
            if p + 1 <= depth:
                tmap = cells[(p + 1, q)].induced(
                    cells[(p, q)], left=bar_m.diffs[p + 1], what="horizontal grid map")
                dh[(pm - p, qm - q)] = homs[(p, q)].precompose(
                    tmap, homs[(p + 1, q)], "horizontal Hom map")
            if q + 1 <= depth:
                tmap = cells[(p, q + 1)].induced(
                    cells[(p, q)], right=bar_n.diffs[q + 1], what="vertical grid map")
                dv[(pm - p, qm - q)] = homs[(p, q)].precompose(
                    tmap, homs[(p, q + 1)], "vertical Hom map")
    grid = DoubleComplexAb.from_commuting(entries, dh, dv)

    up_to = 2 * depth + 2
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
        tor = tor_via_bar(s, ext_mods[qdeg], lin_l, j, k, depth, policy)
        for pdeg in range(depth + 1):
            direct[(pdeg, qdeg)] = tor.factors()[pdeg]
    window = {key: v for key, v in direct.items()}
    match = all(e2_first.get(key, ()) == window[key] or
                e2_second.get(key, ()) == window[key]
                for key in window)

    return KunnethReport(depth, flat, diag1, diag2,
                         first.stable_from(), second.stable_from(),
                         law1, law2, e2_first, e2_second, direct, match)


# ---------------------------------------------------------------------------
# Base change
# ---------------------------------------------------------------------------

def restrict_scalars(f: GammaSemiringMorphism, b: BiGammaModule) -> BiGammaModule:
    """Pull a module over the target back along the morphism."""
    if b.parent != f.target:
        raise ValueError("module does not live over the morphism target")
    return build_module(
        f.source, b.M,
        lambda j, tother, m, gs: b.act(j, tuple(f(t) for t in tother), m, gs),
        name=f"res({b.name})")


def extend_scalars(f: GammaSemiringMorphism, a: BiGammaModule,
                   j: int = 2, k: int = 0, name: str = ""):
    """Target carrier tensored against the module over the source actions.

    Residual actions insert target material through the carrier factor; a
    failure to descend is an algebraic obstruction and raises.
    """
    if a.parent != f.source:
        raise ValueError("module does not live over the morphism source")
    target = f.target
    left = restrict_scalars(f, regular_bimodule(target))
    core = TensorCongruence(left, a, j, k)

    def image_fn(slot, tother, gs):
        return lambda x, av: core.gen_vec(
            target.mu(tother[:slot] + (x,) + tother[slot:], gs), av)

    out = core.residual_module(target, image_fn, name or f"ext({a.name})")
    if out is None:
        raise SoundnessError("target action does not descend to the extension")
    return out


def completed_extension_group(f: GammaSemiringMorphism, x: CompletedModule,
                              j: int = 2, k: int = 0) -> AbGroup:
    """K(T') balanced against a completed module over the source."""
    left = linearize_module(restrict_scalars(f, regular_bimodule(f.target)))
    return TensorGroup(left, x, j, k).group


def source_conflation_triples(s: NaryGammaSemiring):
    """Ideal-induced completed short sequences used by the flatness probe."""
    out = []
    reg = linearize_module(regular_bimodule(s))
    for ideal in all_ideals(s):
        if not ideal.is_proper() or len(ideal.members) == 1:
            continue
        sub = ideal_submodule(s, ideal)
        quo = quotient_module(s, ideal)
        members = ideal.sorted_members()
        incl = ModuleMorphism(sub, regular_bimodule(s), tuple(members))
        cls = bourne_classes(s, ideal)
        proj = ModuleMorphism(regular_bimodule(s), quo, tuple(cls))
        out.append((linearize_module(sub), reg, linearize_module(quo),
                    (incl, proj)))
    return out


def flatness_probe(s: NaryGammaSemiring, x: CompletedModule,
                   j: int = 2, k: int = 0, conflations=None) -> bool:
    """Whether tensoring with x preserves the probe conflations exactly."""
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
        if not kernel(fi).group.is_trivial():
            return False
        full = Subgroup(tc.group, [list(v) for v in la.identity(tc.group.dim)])
        if not image(fp).same_as(full):
            return False
        if not kernel(fp).same_as(image(fi)):
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
                      n: BiGammaModule, depth: int = 1, j: int = 2, k: int = 0,
                      policy: ContractionPolicy | None = None) -> BaseChangeReport:
    """Both displayed comparisons along a morphism, with the flatness probe.

    The first compares the extension of each derived Hom group against the
    derived Hom of the extensions over the target; the second compares Tor
    over the source of the restricted extensions against Tor over the target.
    """
    s = f.source
    t = f.target
    from .homology import ext_via_bar
    policy_s = policy or default_policy(s)
    policy_t = policy or default_policy(t)
    ext_mod_m = extend_scalars(f, m, j, k).module
    ext_mod_n = extend_scalars(f, n, j, k).module
    lin_aex = linearize_module(ext_mod_m)
    lin_bex = linearize_module(ext_mod_n)

    bar_src = bar_complex(s, m, j, k, depth + 1, policy_s)
    ext_src = ext_modules_with_ops(s, bar_src, linearize_module(n), depth)
    ext_left = [completed_extension_group(f, e, j, k).invariant_factors()
                for e in ext_src]
    ext_right = ext_via_bar(t, lin_aex, lin_bex, j, k, depth, policy_t).factors()

    tor_left = tor_via_bar(t, lin_aex, lin_bex, j, k, depth, policy_t).factors()
    tor_right = tor_via_bar(s, restrict_scalars(f, ext_mod_m),
                            restrict_scalars(f, ext_mod_n),
                            j, k, depth, policy_s).factors()

    flat = flatness_probe(s, linearize_module(restrict_scalars(
        f, regular_bimodule(t))), j, k)
    return BaseChangeReport(ext_left, ext_right, tor_left, tor_right, flat)
