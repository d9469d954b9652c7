"""Complexes, bar constructions, derived Hom/Tor, and their checks.

One ``Complex`` type holds every chain complex (bar, tensor) and cochain
complex (Hom, cofree), and ``homology`` reads either.

Everything homological happens after group completion: the face maps need
additive inverses that the monoid level does not have.  Bar terms are the
iterated balanced tensors of the completed carrier against the module, with
faces that contract two adjacent factors through the multiplication.  The
semiring picks the contraction (``default_policy``): the missing carrier
slots are filled with its canonical neutral word when it has one, otherwise
summed over all fillers, and the parameter slots are summed over every
tuple.  Only the bar tower itself takes another ``ContractionPolicy``, for
bar diagnostics and for the benchmark's relabelled default; every derived
entry point above it builds its towers with the default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce

from . import intlinalg as la
from .abgroups import (
    AbGroup, GroupMap, HomologyNode, induced_on_quotients, is_exact,
    is_short_exact, kernel, kernel_gens, preimage,
)
from .core import (
    BoundExceeded, NaryGammaSemiring, RegularityError, SoundnessError, StructuralError,
    flatten_index, neutral_words, unflatten_index,
)
from .modules import (
    BiGammaModule, Conflation, ModuleMorphism, check_slots, cofree, filler_index,
    quotient_projection, regular_bimodule, resolve_slot, validate_module_morphism,
)
from .completion import (
    CompletedModule, EquivariantHom, TensorGroup, linearize_module, linearize_morphism,
    linearize_over,
)

# The refusal bound on a bar tower's word space at one degree, tdim^r * mdim,
# read when each degree is built.
BAR_WORD_BOUND = 20000


# ---------------------------------------------------------------------------
# Complexes of finitely generated abelian groups
# ---------------------------------------------------------------------------

@dataclass
class Complex:
    """Groups in degrees 0..top, and ``diffs[r]`` from degree r to r + step.

    Step -1 is a chain complex and step +1 a cochain complex: one is the
    other indexed the other way (``reversed``).  A differential that is
    missing or leaves the degrees 0..top is zero.
    """

    groups: list[AbGroup]
    diffs: dict[int, GroupMap] = field(default_factory=dict)
    step: int = -1

    def __post_init__(self):
        if self.step not in (-1, 1):
            raise ValueError(f"a complex steps by -1 or +1, not {self.step}")
        for r, d in self.diffs.items():
            if (d.src.orders != self.group(r).orders
                    or d.dst.orders != self.group(r + self.step).orders):
                raise ValueError(f"differential at degree {r} does not match the "
                                 f"groups in degrees {r} and {r + self.step}")
        for r, d in self.diffs.items():
            after = self.diffs.get(r + self.step)
            if after is not None and not after.compose(d).is_zero():
                raise SoundnessError(f"d.d != 0 between degrees {r} and "
                                     f"{r + 2 * self.step}")

    @property
    def top(self) -> int:
        return len(self.groups) - 1

    def group(self, r: int) -> AbGroup:
        return self.groups[r] if 0 <= r <= self.top else AbGroup(())

    def d(self, r: int) -> GroupMap:
        if r in self.diffs:
            return self.diffs[r]
        return GroupMap.zero(self.group(r), self.group(r + self.step))

    def node(self, r: int) -> HomologyNode:
        return HomologyNode(self.groups[r], self.d(r), self.d(r - self.step))

    def reversed(self) -> "Complex":
        """The same complex with degree r renamed top - r, so the step flips."""
        return Complex(self.groups[::-1],
                       {self.top - r: d for r, d in self.diffs.items()}, -self.step)


def homology(c: Complex, upto: int | None = None) -> list[AbGroup]:
    """Homology in degrees 0..upto (0..top by default), in canonical
    invariant-factor form; for a cochain complex this is its cohomology."""
    return [c.node(r).group for r in range((c.top if upto is None else upto) + 1)]


# ---------------------------------------------------------------------------
# Contraction policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionPolicy:
    """Which parameter tuples are summed and which carrier fillers are used
    when a face map contracts two adjacent factors through mu.

    Nothing reads ``label``; it stays, defaulting to "", only because
    ``perfbench/jobs.py`` passes one positionally.
    """

    gammas: tuple[tuple[int, ...], ...]
    fillers: tuple[tuple[int, ...], ...]
    label: str = ""

    def words(self, s: NaryGammaSemiring, t: int) -> list[int]:
        """The fillers, by ``filler_index``, that a contraction of carrier
        element t sums over: (t, fill) with every parameter tuple, per fill."""
        return [filler_index(s, (t,) + fill, gs) for fill in self.fillers
                for gs in self.gammas]


def default_policy(s: NaryGammaSemiring) -> ContractionPolicy:
    """s's contraction: every parameter tuple, and the canonical neutral
    word's filler when s has one, otherwise every filler."""
    neutral = neutral_words(s)
    fillers = (((neutral[0][0],) * (s.n - 2),) if neutral
               else tuple(s.t_tuples(s.n - 2)))
    return ContractionPolicy(tuple(s.g_tuples(s.n - 1)), fillers)


# ---------------------------------------------------------------------------
# Bar complexes
# ---------------------------------------------------------------------------

class BarComplex:
    """Left-normalized tower of balanced tensor powers against a module.

    Degree r is (T tensor ... tensor T) tensor M with r carrier factors.
    The differential alternates over contractions of adjacent factors: the
    wrap-around absorption of the first factor into the module, the merges
    of neighbouring carrier factors, and the absorption of the last factor.
    Word space at degree r is the unbalanced coordinate basis; the faces are
    computed there and projected to the balanced groups.  ``tensors[r]`` is
    the balanced tensor of the carrier power against the module that degree
    r >= 1 is built from; maps between towers are induced on it.
    """

    def __init__(self, s: NaryGammaSemiring, module: CompletedModule,
                 carrier: CompletedModule, j: int, k: int, depth: int,
                 policy: ContractionPolicy):
        self.semiring = s
        self.module = module
        self.carrier = carrier
        self.jslot = j
        self.kslot = k
        self.depth = depth
        self.policy = policy
        tdim = carrier.group.dim
        mdim = module.group.dim

        self._beta = self._absorb_table(carrier, slot=1)
        self._alpha_left = self._absorb_table(module, slot=1)
        self._alpha_right = self._absorb_table(module, slot=0)

        self.terms: list[CompletedModule] = [module]
        self.tensors: dict[int, TensorGroup] = {}
        self.word_dims = [mdim]
        ident_m = la.identity(mdim)
        ident_t = la.identity(tdim)
        projs = [ident_m]
        lifts = [ident_m]
        power = None
        pproj = plift = ident_t
        for r in range(1, depth + 1):
            if power is None:
                power = carrier
            else:
                tg = TensorGroup(power, carrier, j, k)
                new_power = tg.as_module()
                pproj = la.mat_mul(tg.pres.proj_matrix(), la.kron(pproj, ident_t),
                                   tdim ** r)
                plift = la.mat_mul(la.kron(plift, ident_t), tg.pres.lift_matrix(),
                                   tg.group.dim)
                power = new_power
            wdim = (tdim ** r) * mdim
            if wdim > BAR_WORD_BOUND:
                raise BoundExceeded(
                    f"bar word space at degree {r}: tdim^r*mdim = {tdim}^{r}*{mdim} "
                    f"= {wdim} exceeds its bound {BAR_WORD_BOUND}")
            tg = TensorGroup(power, module, j, k)
            projs.append(la.mat_mul(tg.pres.proj_matrix(), la.kron(pproj, ident_m),
                                    wdim))
            lifts.append(la.mat_mul(la.kron(plift, ident_m), tg.pres.lift_matrix(),
                                    tg.group.dim))
            self.tensors[r] = tg
            self.terms.append(tg.as_module())
            self.word_dims.append(wdim)

        self.diffs: dict[int, GroupMap] = {}
        for r in range(1, depth + 1):
            wmat = self._differential_on_words(r)
            self.diffs[r] = induced_on_quotients(
                projs[r - 1], self.terms[r - 1].group, wmat,
                lifts[r], projs[r], self.terms[r].group,
                f"bar differential d_{r}")
        self.chain = Complex([t.group for t in self.terms], dict(self.diffs))
        # Comparison-lift stages into this tower, keyed by (source tower,
        # source degree, stage); see _lift_chain_map.
        self.lift_stages: dict = {}

    # -- contraction tables ----------------------------------------------

    def _absorb_table(self, module: CompletedModule, slot: int):
        """alpha[t coord][m coord]: absorb one carrier factor into ``module``.

        slot 1 places the module element just right of the carrier factor,
        slot 0 just left of it (the wrap-around face); built purely from the
        module's operator family, so synthetic completed modules work too.
        With the carrier itself at slot 1 this is the contraction of two
        carrier factors through mu.
        """
        comp = self.carrier.completion
        if comp is None:
            raise StructuralError("bar carrier must come from a completion")
        zero = GroupMap.zero(module.group, module.group)

        def total(maps):
            return reduce(GroupMap.add, maps, zero)

        summed = [total(module.op(slot, w) for w in self.policy.words(self.semiring, t))
                  for t in range(comp.monoid.size)]
        # Entry [ia][ib] is column ib of the map of carrier basis vector ia, a
        # module vector that GroupMap keeps reduced.
        return [list(zip(*total(summed[t].scale(ct) for t, ct in pairs).mat))
                for pairs in comp.lifts]

    # -- faces ------------------------------------------------------------

    def _differential_on_words(self, r: int):
        src_dim = self.word_dims[r]
        dst_dim = self.word_dims[r - 1]
        mat = la.zeros(dst_dim, src_dim)
        sizes = [self.carrier.group.dim] * r + [self.module.group.dim]
        for col in range(src_dim):
            word = unflatten_index(col, sizes)
            ts, m = word[:-1], word[-1]
            for i in range(r + 1):
                sign = -1 if i % 2 else 1
                for vec, coeff in self._face(ts, m, i, r):
                    mat[flatten_index(vec, sizes[1:])][col] += sign * coeff
        return mat

    def _face(self, ts, m, i, r):
        if i == 0:
            for mm, coeff in _nonzero(self._alpha_right[ts[0]][m]):
                yield ts[1:] + (mm,), coeff
        elif i < r:
            for tt, coeff in _nonzero(self._beta[ts[i - 1]][ts[i]]):
                yield ts[:i - 1] + (tt,) + ts[i + 1:] + (m,), coeff
        else:
            for mm, coeff in _nonzero(self._alpha_left[ts[-1]][m]):
                yield ts[:-1] + (mm,), coeff

    # -- reporting ----------------------------------------------------------

    def exactness_findings(self) -> list[tuple[int, tuple[int, ...]]]:
        """Degrees >= 1 (below the cut) where the tower fails to be exact."""
        out = []
        hs = homology(self.chain)
        for r in range(1, self.depth):
            if not hs[r].is_trivial():
                out.append((r, hs[r].invariant_factors()))
        return out


def _nonzero(vec):
    for i, c in enumerate(vec):
        if c:
            yield i, c


def _regular(s: NaryGammaSemiring, carrier):
    return regular_bimodule(s) if carrier is None else carrier


def bar_complex(s: NaryGammaSemiring, module, j: int | None = None, k: int = 0,
                depth: int = 4, policy: ContractionPolicy | None = None,
                carrier: CompletedModule | None = None) -> BarComplex:
    """The bar tower of ``module`` (a BiGammaModule or CompletedModule).

    The carrier defaults to the regular module, linearized together with
    ``module`` (``linearize_over``): it shares the module's completion when
    the module's monoid is s.T, and its operators when the module is the
    regular one.  Callers that build several towers pass one ``carrier``.
    Nothing is cached across calls.
    """
    policy = policy or default_policy(s)
    module, carrier = linearize_over(s, [module, _regular(s, carrier)])
    j = resolve_slot(s, j)
    check_slots(s, j, k)
    return BarComplex(s, module, carrier, j, k, depth, policy)


# ---------------------------------------------------------------------------
# Hom and tensor complexes over a bar tower
# ---------------------------------------------------------------------------

class HomCochain:
    """Equivariant Hom of each bar term into a fixed completed module."""

    def __init__(self, bar: BarComplex, target: CompletedModule):
        self.homs = [EquivariantHom(term, target) for term in bar.terms]
        diffs = {r - 1: self.homs[r - 1].induced(self.homs[r], pre=d, what="precomposition")
                 for r, d in bar.diffs.items()}
        self.cochain = Complex([h.group for h in self.homs], diffs, step=1)


class TensorChain:
    """Balanced tensor of each bar term against a fixed completed module."""

    def __init__(self, bar: BarComplex, right: CompletedModule):
        self.tensors = [TensorGroup(term, right, bar.jslot, bar.kslot)
                        for term in bar.terms]
        diffs = {r: self.tensors[r].induced(self.tensors[r - 1], left=bar.diffs[r],
                                            what=f"tensored differential d_{r}")
                 for r in range(1, len(bar.terms))}
        self.chain = Complex([t.group for t in self.tensors], diffs)


def bar_map(src_bar: BarComplex, dst_bar: BarComplex, f: GroupMap) -> list[GroupMap]:
    """Degreewise maps induced by a module map, checked to be a chain map:
    f at degree 0 and id (x) f on the balanced tensor of every degree above.

    Both towers must share their depth, carrier and slots.
    """
    if src_bar.depth != dst_bar.depth:
        raise ValueError(f"bar towers of depth {src_bar.depth} and "
                         f"{dst_bar.depth} cannot be compared")
    if (src_bar.carrier, src_bar.jslot, src_bar.kslot) != \
            (dst_bar.carrier, dst_bar.jslot, dst_bar.kslot):
        raise ValueError("bar towers over different carriers or slots cannot be compared")
    out = [f] + [src_bar.tensors[r].induced(dst_bar.tensors[r], right=f,
                                            what=f"induced bar map at degree {r}")
                 for r in range(1, src_bar.depth + 1)]
    for r in range(1, src_bar.depth + 1):
        lhs = out[r - 1].compose(src_bar.diffs[r])
        rhs = dst_bar.diffs[r].compose(out[r])
        if not lhs.equal(rhs):
            raise SoundnessError(f"induced bar map is not a chain map at degree {r}")
    return out


# ---------------------------------------------------------------------------
# Derived functors via the bar tower
# ---------------------------------------------------------------------------

@dataclass
class DerivedResult:
    """Derived groups by degree, and the bar tower they came from (if any)."""

    groups: list[AbGroup]
    bar: BarComplex | None

    def factors(self) -> list[tuple[int, ...]]:
        return [g.invariant_factors() for g in self.groups]


def ext_via_bar(s, m, n, j: int | None = None, k: int = 0, depth: int = 2,
                policy: ContractionPolicy | None = None,
                carrier: CompletedModule | None = None) -> DerivedResult:
    """Ext of m into n on m's bar tower; m, n and the carrier are
    linearized together, so each distinct monoid is completed once.

    ``policy`` (s's ``default_policy`` when None) exists for the benchmark's
    relabelled default and for bar diagnostics; no derived entry point
    above this one passes it.
    """
    lin_m, target, carrier = linearize_over(s, [m, n, _regular(s, carrier)])
    bar = bar_complex(s, lin_m, j, k, depth + 1, policy, carrier)
    hc = HomCochain(bar, target)
    return DerivedResult(homology(hc.cochain, depth), bar)


def tor_via_bar(s, m, n, j: int | None = None, k: int = 0, depth: int = 2,
                policy: ContractionPolicy | None = None,
                carrier: CompletedModule | None = None) -> DerivedResult:
    """Tor of m's bar tower against n, linearized as in ``ext_via_bar``,
    whose docstring says what ``policy`` is for."""
    lin_m, right, carrier = linearize_over(s, [m, n, _regular(s, carrier)])
    bar = bar_complex(s, lin_m, j, k, depth + 1, policy, carrier)
    tc = TensorChain(bar, right)
    return DerivedResult(homology(tc.chain, depth), bar)


# ---------------------------------------------------------------------------
# Cofree coresolutions
# ---------------------------------------------------------------------------

@dataclass
class CofreeTower:
    terms: list[CompletedModule]
    complex: Complex
    unit: GroupMap
    monoid_sizes: list[int]

    def cochain_hom_from(self, m: CompletedModule) -> Complex:
        homs = [EquivariantHom(m, t) for t in self.terms]
        diffs = {r: homs[r].induced(homs[r + 1], post=d, what="postcomposition")
                 for r, d in self.complex.diffs.items()}
        return Complex([h.group for h in homs], diffs, step=1)


def _unit_into_cofree(b: BiGammaModule):
    """The canonical additive map m -> (t -> t.m) and its cofree target.

    t.m is the left-folded sum, over the fillers and parameter tuples of
    b's semiring's ``default_policy``, of the slot-n action of the filler
    (t, fill).
    """
    s = b.parent
    policy = default_policy(s)
    cf = cofree(s, b.M)
    index = {f: i for i, f in enumerate(cf.maps)}
    cols = b.actions(s.n - 1)
    rows = [[cols[w] for w in policy.words(s, t)] for t in range(s.T.size)]
    table = []
    for m in range(b.M.size):
        key = tuple(reduce(b.M.add, (col[m] for col in row), b.M.zero) for row in rows)
        if key not in index:
            raise SoundnessError("unit image is not an additive map")
        table.append(index[key])
    unit = ModuleMorphism(b, cf.module, tuple(table))
    return cf, unit


def cofree_coresolution(s: NaryGammaSemiring, b: BiGammaModule, depth: int = 2,
                        completed: CompletedModule | None = None) -> CofreeTower:
    """Iterated cofree embeddings with completed connecting maps, in one pass.

    Stage r embeds the cokernel of stage r-1 (b at stage 0) into its cofree
    module; each stage completes those two monoids once, except that stage 0
    uses ``completed``, b's completed module, when the caller has it.  The
    map from term r-1 to term r is stage r's unit after stage r-1's
    projection onto its cokernel, composed once stage r has linearized it.
    """
    current, lin_src = b, completed
    terms: list[CompletedModule] = []
    monoid_sizes: list[int] = []
    maps: dict[int, GroupMap] = {}
    for r in range(depth + 1):
        cf, unit = _unit_into_cofree(current)
        if not validate_module_morphism(unit).ok:
            raise SoundnessError("unit is not a module morphism on this instance")
        if lin_src is None:
            lin_src = linearize_module(current)
        lin_dst = linearize_module(cf.module)
        unit_lin = linearize_morphism(unit, lin_src, lin_dst)
        if not is_exact(GroupMap.zero(AbGroup(()), unit_lin.src), unit_lin):
            raise RegularityError(
                f"unit into the cofree module is not injective after completion "
                f"(tower stage {r})")
        if r:
            maps[r - 1] = unit_lin.compose(linearize_morphism(proj, terms[r - 1], lin_src))
        else:
            unit0 = unit_lin
        terms.append(lin_dst)
        monoid_sizes.append(cf.module.M.size)
        proj = quotient_projection(cf.module, set(unit.map), f"{cf.module.name}/im")
        current, lin_src = proj.target, None
    return CofreeTower(terms, Complex([t.group for t in terms], maps, step=1),
                       unit0, monoid_sizes)


def ext_via_cofree(s: NaryGammaSemiring, m, n: BiGammaModule, depth: int = 2,
                   completed: CompletedModule | None = None) -> DerivedResult:
    """Ext of m into n on n's cofree tower; ``completed`` is n's completed
    module when the caller has it."""
    lin_m, lin_n = linearize_over(s, [m, n if completed is None else completed])
    tower = cofree_coresolution(s, n, depth + 1, lin_n)
    return DerivedResult(homology(tower.cochain_hom_from(lin_m), depth), None)


@dataclass
class BalanceReport:
    bar_factors: list[tuple[int, ...]]
    cofree_factors: list[tuple[int, ...]]
    skipped: str | None = None

    @property
    def balanced(self) -> bool:
        return self.skipped is None and self.bar_factors == self.cofree_factors


def balance_check(s, m: BiGammaModule, n: BiGammaModule, depth: int = 2,
                  j: int | None = None, k: int = 0) -> BalanceReport:
    lin_m, lin_n, carrier = linearize_over(s, [m, n, regular_bimodule(s)])
    via_bar = ext_via_bar(s, lin_m, lin_n, j, k, depth, carrier=carrier)
    try:
        via_cofree = ext_via_cofree(s, lin_m, n, depth, lin_n)
    except RegularityError as e:
        return BalanceReport(via_bar.factors(), [], skipped=str(e))
    return BalanceReport(via_bar.factors(), via_cofree.factors())


# ---------------------------------------------------------------------------
# Long exact sequences
# ---------------------------------------------------------------------------

@dataclass
class LesReport:
    labels: list[str]
    groups: list[AbGroup]
    exact_at: list[bool]
    deltas_zero: list[bool]
    ses_ok: bool
    completion_exact: bool
    note: str = ""

    @property
    def all_exact(self) -> bool:
        return self.ses_ok and all(self.exact_at)


def snake_les(x: Complex, y: Complex, z: Complex,
              fmaps: list[GroupMap], gmaps: list[GroupMap],
              upto: int, tag: str) -> LesReport:
    """Long exact sequence of 0 -> X -> Y -> Z -> 0 with connecting maps.

    Degreewise short exactness is verified first; nodes then run
    H^0(X), H^0(Y), H^0(Z), H^1(X), ... with delta raising the degree.
    """
    length = min(len(x.groups), len(y.groups), len(z.groups), upto + 2)
    ses_ok = all(is_short_exact(fmaps[r], gmaps[r]) for r in range(length))
    if not ses_ok:
        # Connecting maps need the degreewise short exactness; refuse with a
        # report instead of chasing through a broken ladder.
        return LesReport([], [], [], [], False, True,
                         note="degreewise short exactness fails on this "
                              "instance; no long exact sequence is induced")

    nodes_x = [x.node(r) for r in range(upto + 2)]
    nodes_y = [y.node(r) for r in range(upto + 2)]
    nodes_z = [z.node(r) for r in range(upto + 2)]

    def connecting(r):
        def image_of(basis):
            v = preimage(gmaps[r], nodes_z[r].representative(basis))
            if v is None:
                raise SoundnessError("surjectivity failed during the zig-zag")
            w = y.d(r)(v)
            u = preimage(fmaps[r + 1], w)
            if u is None:
                raise SoundnessError("kernel transfer failed during the zig-zag")
            if r + 2 < len(x.groups) and not x.groups[r + 2].is_zero(x.d(r + 1)(u)):
                raise SoundnessError("zig-zag output is not a cocycle")
            return nodes_x[r + 1].classify(u)

        return GroupMap.from_images(nodes_z[r].group, nodes_x[r + 1].group, image_of)

    labels = []
    groups = []
    seq_maps = []
    for r in range(upto + 1):
        labels += [f"H{r}({tag}.first)", f"H{r}({tag}.mid)", f"H{r}({tag}.last)"]
        groups += [nodes_x[r].group, nodes_y[r].group, nodes_z[r].group]
        seq_maps += [nodes_x[r].induced(fmaps[r], nodes_y[r]),
                     nodes_y[r].induced(gmaps[r], nodes_z[r]),
                     connecting(r)]

    exact_at = [is_exact(f, g) for f, g in zip(seq_maps, seq_maps[1:])]
    deltas_zero = [seq_maps[3 * r + 2].is_zero() for r in range(upto + 1)]
    return LesReport(labels, groups, exact_at, deltas_zero, ses_ok, True)


def les_check(c: Conflation, n: BiGammaModule, depth: int = 2,
              side: str = "hom", j: int | None = None, k: int = 0) -> LesReport:
    """Long exact sequence of a conflation through the given degree.

    side "hom" is contravariant in the conflation (Hom into n); side "tor"
    tensors n's bar tower against the conflation covariantly.  The
    conflation's modules, n and the regular carrier are linearized once,
    together, and every bar tower of the call shares that one carrier.
    Any other side is refused with a ValueError before anything is built.
    """
    if side not in ("hom", "tor"):
        raise ValueError("side must be 'hom' or 'tor'")
    s = n.parent
    lin_a, lin_b, lin_c, lin_n, carrier = linearize_over(
        s, [c.i.source, c.i.target, c.p.target, n, regular_bimodule(s)])
    ki = linearize_morphism(c.i, lin_a, lin_b)
    kp = linearize_morphism(c.p, lin_b, lin_c)
    completion_exact = is_short_exact(ki, kp)
    bar_depth = depth + 2

    if side == "hom":
        bar_a, bar_b, bar_c = (bar_complex(s, lin, j, k, bar_depth, carrier=carrier)
                               for lin in (lin_a, lin_b, lin_c))
        maps_i = bar_map(bar_a, bar_b, ki)
        maps_p = bar_map(bar_b, bar_c, kp)
        hc_a = HomCochain(bar_a, lin_n)
        hc_b = HomCochain(bar_b, lin_n)
        hc_c = HomCochain(bar_c, lin_n)

        def pullback(hsrc, hdst, gms):
            return [hsrc.homs[r].induced(hdst.homs[r], pre=gm, what="pullback")
                    for r, gm in enumerate(gms)]

        pstar = pullback(hc_c, hc_b, maps_p)
        istar = pullback(hc_b, hc_a, maps_i)
        report = snake_les(hc_c.cochain, hc_b.cochain, hc_a.cochain,
                           pstar, istar, depth, "Ext")
        report.completion_exact = completion_exact
        return report

    barn = bar_complex(s, lin_n, j, k, bar_depth, carrier=carrier)
    tc_a = TensorChain(barn, lin_a)
    tc_b = TensorChain(barn, lin_b)
    tc_c = TensorChain(barn, lin_c)

    def pushforward(tsrc, tdst, gm):
        return [src_t.induced(dst_t, right=gm,
                              what=f"tensored conflation map at degree {r}")
                for r, (src_t, dst_t) in enumerate(zip(tsrc.tensors, tdst.tensors))]

    # snake_les raises degrees, so each chain complex is read reversed.
    report = snake_les(tc_a.chain.reversed(), tc_b.chain.reversed(),
                       tc_c.chain.reversed(), pushforward(tc_a, tc_b, ki)[::-1],
                       pushforward(tc_b, tc_c, kp)[::-1], depth, "Tor")
    report.completion_exact = completion_exact
    report.note = f"cochain position r is homological degree {bar_depth} - r"
    return report


# ---------------------------------------------------------------------------
# Yoneda composition
# ---------------------------------------------------------------------------

class ExtSetup:
    """Bar tower of the source module plus the Hom cochain into the target."""

    def __init__(self, s: NaryGammaSemiring, m: BiGammaModule, n: BiGammaModule,
                 depth: int, j: int | None = None, k: int = 0):
        self.src, self.dst, carrier = linearize_over(s, [m, n, regular_bimodule(s)])
        self.bar = bar_complex(s, self.src, j, k, depth, carrier=carrier)
        self.hom = HomCochain(self.bar, self.dst)
        self.nodes = [self.hom.cochain.node(r) for r in range(self.hom.cochain.top)]

    def cocycles(self, degree: int) -> list[tuple[int, ...]]:
        ker = kernel(self.hom.cochain.d(degree))
        return sorted({ker.inclusion(c) for c in ker.group.elements()})

    def class_of(self, degree: int, cocycle) -> tuple[int, ...]:
        return self.nodes[degree].classify(cocycle)

    def classes_equal(self, degree: int, c1, c2) -> bool:
        return self.class_of(degree, c1) == self.class_of(degree, c2)

    def identity_cocycle(self) -> tuple[int, ...]:
        if self.src.group.orders != self.dst.group.orders:
            raise StructuralError("the identity cocycle needs equal source and "
                                  "target groups")
        return self.hom.homs[0].coords(GroupMap.identity(self.src.group), "the identity")

    def add_cocycles(self, degree: int, c1, c2):
        return self.hom.cochain.groups[degree].add(c1, c2)


def _lift_chain_map(bar_src: BarComplex, bar_dst: BarComplex, g0_matrix,
                    q: int, p: int, rng: random.Random | None):
    """Chain lifts g_i : B_{q+i}(src) -> B_i(dst) of a degree-q cocycle map.

    Stage i takes the equivariant g_i whose composite with d_i is
    g_{i-1} . d, a preimage under postcomposition by d_i between the
    equivariant Hom groups; an unsolvable stage raises.  With rng, a random
    element of that postcomposition's kernel is mixed in, to probe
    independence from the choice of lift.
    """
    lifts = [GroupMap(bar_src.terms[q].group, bar_dst.terms[0].group,
                      g0_matrix, check=False)]
    for i in range(1, p + 1):
        key = (bar_src, q + i, i)
        if key not in bar_dst.lift_stages:
            hom = EquivariantHom(bar_src.terms[q + i], bar_dst.terms[i])
            below = EquivariantHom(bar_src.terms[q + i], bar_dst.terms[i - 1])
            bar_dst.lift_stages[key] = (hom, below, hom.induced(
                below, post=bar_dst.diffs[i], what="bar differential"))
        hom, below, post = bar_dst.lift_stages[key]
        x = preimage(post, below.coords(lifts[i - 1].compose(bar_src.diffs[q + i]),
                                        f"comparison lift at stage {i}"))
        if x is None:
            raise SoundnessError(
                f"comparison lift unsolvable at stage {i}; bar terms fail "
                f"projectivity on this instance")
        if rng is not None:
            for gen in kernel_gens(post):
                c = rng.randrange(-2, 3)
                x = hom.group.add(x, [c * v for v in gen])
        lifts.append(hom.matrix(x))
    return lifts


def yoneda_compose(ext_nl: ExtSetup, p: int, f_cocycle,
                   ext_mn: ExtSetup, q: int, g_cocycle,
                   ext_ml: ExtSetup, rng: random.Random | None = None):
    """Composite cocycle in degree p+q.

    ext_nl is the tower for (N, L), ext_mn for (M, N), ext_ml for (M, L);
    all three must share the semiring and slots (a ValueError refuses them
    otherwise; the semiring fixes the contraction) and have enough depth.
    """
    keys = [(e.bar.semiring, e.bar.jslot, e.bar.kslot) for e in (ext_nl, ext_mn, ext_ml)]
    if any(key != keys[0] for key in keys[1:]):
        raise ValueError("Yoneda composition needs three towers over one semiring "
                         "and slot pair")
    g0 = ext_mn.hom.homs[q].matrix(tuple(g_cocycle))
    lifts = _lift_chain_map(ext_mn.bar, ext_nl.bar, g0.mat, q, p, rng)
    f_map = ext_nl.hom.homs[p].matrix(tuple(f_cocycle))
    comp = f_map.compose(lifts[p])
    coords = ext_ml.hom.homs[p + q].coords(comp, "composite cocycle")
    dnext = ext_ml.hom.cochain.d(p + q)
    if not dnext(coords) == dnext.dst.zero():
        raise SoundnessError("composite of cocycles is not a cocycle")
    return coords
