"""Chain complexes, bar constructions, derived Hom/Tor, and their checks.

Everything homological happens after group completion: the face maps need
additive inverses that the monoid level does not have.  Bar terms are the
iterated balanced tensors of the completed carrier against the module, with
faces that contract two adjacent factors through the multiplication; the
missing carrier slots of a contraction are filled per a configurable policy
(the canonical neutral word when the carrier has one, otherwise a sum over
all fillers) and parameter slots are summed over a configurable list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import intlinalg as la
from .abgroups import (
    AbGroup, GroupMap, HomologyNode, SoundnessError, Subgroup, image,
    induced_on_quotients, kernel, order_lattice_columns,
)
from .core import BoundExceeded, NaryGammaSemiring, StructuralError, neutral_words
from .ideals import coset_congruence, quotient_monoid
from .modules import (
    BiGammaModule, Conflation, ModuleMorphism, build_module, cofree,
    regular_bimodule, validate_module_morphism,
)
from .completion import (
    CompletedModule, EquivariantHom, TensorGroup, filler_tuples,
    linearize_module, linearize_morphism,
)


class RegularityError(RuntimeError):
    """The unit into the cofree module is not injective after completion.

    The instance fails the regularity hypothesis the coresolution needs, so
    the tower is refused rather than built wrong.
    """


# ---------------------------------------------------------------------------
# Chain complexes of finitely generated abelian groups
# ---------------------------------------------------------------------------

@dataclass
class ChainComplexAb:
    """Homological complex: d[r] maps degree r to degree r-1."""

    groups: list[AbGroup]
    diffs: dict[int, GroupMap] = field(default_factory=dict)

    def __post_init__(self):
        for r, d in self.diffs.items():
            if (d.src.orders != self.groups[r].orders
                    or d.dst.orders != self.groups[r - 1].orders):
                raise ValueError(f"differential d_{r} does not match the groups "
                                 f"in degrees {r} and {r - 1}")
        for r in self.diffs:
            if r - 1 in self.diffs:
                if not self.diffs[r - 1].compose(self.diffs[r]).is_zero():
                    raise SoundnessError(f"d.d != 0 between degrees {r} and {r - 2}")

    @property
    def top(self) -> int:
        return len(self.groups) - 1

    def d(self, r: int) -> GroupMap:
        if r in self.diffs:
            return self.diffs[r]
        src = self.groups[r] if 0 <= r <= self.top else AbGroup(())
        dst = self.groups[r - 1] if 0 <= r - 1 <= self.top else AbGroup(())
        return GroupMap.zero(src, dst)

    def shift(self, k: int = 1) -> "ChainComplexAb":
        """Suspension: degree r of the result is degree r+k of the input."""
        if k <= 0:
            raise ValueError("shift amount must be positive")
        groups = self.groups[k:]
        diffs = {r - k: d for r, d in self.diffs.items() if r - k >= 1}
        return ChainComplexAb(groups, diffs)


def homology(c: ChainComplexAb) -> list[AbGroup]:
    """Per-degree homology in canonical invariant-factor form."""
    return [node.group for node in homology_nodes(c)]


def homology_nodes(c: ChainComplexAb) -> list[HomologyNode]:
    return [HomologyNode(c.groups[r], c.d(r), c.d(r + 1))
            for r in range(len(c.groups))]


@dataclass
class Cochain:
    """Cohomological complex: diffs[r] maps degree r to degree r+1."""

    groups: list[AbGroup]
    diffs: list[GroupMap]

    def __post_init__(self):
        if len(self.diffs) != max(len(self.groups) - 1, 0):
            raise ValueError(f"{len(self.groups)} cochain groups need "
                             f"{max(len(self.groups) - 1, 0)} differentials, "
                             f"got {len(self.diffs)}")
        for r, d in enumerate(self.diffs):
            if (d.src.orders != self.groups[r].orders
                    or d.dst.orders != self.groups[r + 1].orders):
                raise ValueError(f"cochain differential d^{r} does not match the "
                                 f"groups in degrees {r} and {r + 1}")
            if r > 0 and not d.compose(self.diffs[r - 1]).is_zero():
                raise SoundnessError(f"cochain d.d != 0 at degree {r - 1}")

    def d(self, r: int) -> GroupMap:
        if 0 <= r < len(self.diffs):
            return self.diffs[r]
        src = self.groups[r] if 0 <= r < len(self.groups) else AbGroup(())
        dst = self.groups[r + 1] if 0 <= r + 1 < len(self.groups) else AbGroup(())
        return GroupMap.zero(src, dst)

    def node(self, r: int) -> HomologyNode:
        return HomologyNode(self.groups[r], self.d(r), self.d(r - 1))

    def cohomology(self, upto: int) -> list[AbGroup]:
        return [self.node(r).group for r in range(upto + 1)]


# ---------------------------------------------------------------------------
# Contraction policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionPolicy:
    """Which parameter tuples are summed and which carrier fillers are used
    when a face map contracts two adjacent factors through mu."""

    gammas: tuple[tuple[int, ...], ...]
    fillers: tuple[tuple[int, ...], ...]
    label: str = ""


def default_policy(s: NaryGammaSemiring) -> ContractionPolicy:
    gammas = tuple(s.g_tuples(s.n - 1))
    neutral = neutral_words(s)
    if neutral:
        e, _ = neutral[0]
        fillers = ((e,) * (s.n - 2),)
        label = f"gamma=sum,filler=neutral({e})"
    else:
        fillers = tuple(s.t_tuples(s.n - 2))
        label = "gamma=sum,filler=sum"
    return ContractionPolicy(gammas, fillers, label)


def fixed_policy(s: NaryGammaSemiring, gamma_tuple,
                 filler_tuple=None) -> ContractionPolicy:
    gammas = (tuple(gamma_tuple),)
    if filler_tuple is None:
        return ContractionPolicy(gammas, default_policy(s).fillers,
                                 label=f"gamma=fixed{tuple(gamma_tuple)}")
    return ContractionPolicy(gammas, (tuple(filler_tuple),),
                             label="gamma=fixed,filler=fixed")


# ---------------------------------------------------------------------------
# Bar complexes
# ---------------------------------------------------------------------------

class BarComplex:
    """Left-normalized tower of balanced tensor powers against a module.

    Degree r is (T tensor ... tensor T) tensor M with r carrier factors.
    The differential alternates over contractions of adjacent factors: the
    wrap-around absorption of the first factor into the module, the merges
    of neighbouring carrier factors, and the absorption of the last factor.
    Word space at degree r is the unbalanced coordinate basis; projections
    and lifts to the balanced groups drive faces and functoriality.
    """

    def __init__(self, s: NaryGammaSemiring, module: CompletedModule,
                 carrier: CompletedModule, j: int, k: int, depth: int,
                 policy: ContractionPolicy, word_bound: int = 20000):
        self.semiring = s
        self.module = module
        self.carrier = carrier
        self.jslot = j
        self.kslot = k
        self.depth = depth
        self.policy = policy
        tdim = carrier.group.dim
        mdim = module.group.dim
        self._windex = {w: i for i, w in enumerate(filler_tuples(s))}

        self._beta = self._carrier_contraction()
        self._alpha_left = self._absorb_table(slot=1)
        self._alpha_right = self._absorb_table(slot=0)

        self.terms: list[CompletedModule] = [module]
        self.word_dims = [mdim]
        ident_m = la.identity(mdim)
        self.projs = [ident_m]
        self.lifts = [ident_m]
        power = None
        pproj = la.identity(tdim)
        plift = la.identity(tdim)
        for r in range(1, depth + 1):
            if power is None:
                power = carrier
            else:
                tg = TensorGroup(power, carrier, j, k)
                new_power = tg.as_module()
                ident_t = la.identity(tdim)
                expand_proj = la.kron(pproj, power.group.dim, tdim ** (r - 1),
                                      ident_t, tdim, tdim)
                pproj = la.mat_mul(tg.pres.proj_matrix(), expand_proj,
                                   power.group.dim * tdim)
                expand_lift = la.kron(plift, tdim ** (r - 1), power.group.dim,
                                      ident_t, tdim, tdim)
                plift = la.mat_mul(expand_lift, tg.pres.lift_matrix(),
                                   power.group.dim * tdim)
                power = new_power
            wdim = (tdim ** r) * mdim
            if wdim > word_bound:
                raise BoundExceeded("bar word space exceeds its bound")
            tg = TensorGroup(power, module, j, k)
            term = tg.as_module()
            proj = la.mat_mul(tg.pres.proj_matrix(),
                              la.kron(pproj, power.group.dim, tdim ** r,
                                      ident_m, mdim, mdim),
                              power.group.dim * mdim)
            lift = la.mat_mul(la.kron(plift, tdim ** r, power.group.dim,
                                      ident_m, mdim, mdim),
                              tg.pres.lift_matrix(), power.group.dim * mdim)
            self.terms.append(term)
            self.word_dims.append(wdim)
            self.projs.append(proj)
            self.lifts.append(lift)

        self.diffs: dict[int, GroupMap] = {}
        for r in range(1, depth + 1):
            wmat = self._differential_on_words(r)
            self.diffs[r] = induced_on_quotients(
                self.projs[r - 1], self.terms[r - 1].group, wmat,
                self.lifts[r], self.projs[r], self.terms[r].group,
                f"bar differential d_{r}")
        self.chain = ChainComplexAb([t.group for t in self.terms], dict(self.diffs))

    # -- contraction tables ----------------------------------------------

    def _carrier_contraction(self):
        """beta[a][b]: contraction of two carrier coordinate basis vectors."""
        s = self.semiring
        comp = self.carrier.completion
        if comp is None:
            raise StructuralError("bar carrier must come from a completion")
        size = comp.monoid.size
        elem = [[None] * size for _ in range(size)]
        for x in range(size):
            for y in range(size):
                acc = [0] * self.carrier.group.dim
                for fill in self.policy.fillers:
                    for gs in self.policy.gammas:
                        v = comp.vector(s.mu((x, y) + fill, gs))
                        acc = [p + q for p, q in zip(acc, v)]
                elem[x][y] = self.carrier.group.reduce(acc)
        dim = self.carrier.group.dim
        out = [[None] * dim for _ in range(dim)]
        for ia in range(dim):
            va = comp.pres.lift([1 if q == ia else 0 for q in range(dim)])
            for ib in range(dim):
                vb = comp.pres.lift([1 if q == ib else 0 for q in range(dim)])
                acc = [0] * dim
                for x, cx in enumerate(va):
                    if not cx:
                        continue
                    for y, cy in enumerate(vb):
                        if not cy:
                            continue
                        acc = [p + cx * cy * q for p, q in zip(acc, elem[x][y])]
                out[ia][ib] = self.carrier.group.reduce(acc)
        return out

    def _absorb_table(self, slot: int):
        """alpha[t coord][m coord]: absorb one carrier factor into the module.

        slot 1 places the module element just right of the carrier factor,
        slot 0 just left of it (the wrap-around face); built purely from the
        module's operator family, so synthetic completed modules work too.
        """
        comp = self.carrier.completion
        module = self.module
        tdim = self.carrier.group.dim
        mdim = module.group.dim
        tsize = comp.monoid.size
        summed = []
        for t in range(tsize):
            acc = GroupMap.zero(module.group, module.group)
            for fill in self.policy.fillers:
                for gs in self.policy.gammas:
                    w = self._windex[((t,) + fill, gs)]
                    acc = acc.add(module.op(slot, w))
            summed.append(acc)
        out = [[None] * mdim for _ in range(tdim)]
        for ia in range(tdim):
            va = comp.pres.lift([1 if q == ia else 0 for q in range(tdim)])
            for ib in range(mdim):
                acc = [0] * mdim
                for t, ct in enumerate(va):
                    if not ct:
                        continue
                    col = [summed[t].mat[rr][ib] for rr in range(mdim)]
                    acc = [p + ct * q for p, q in zip(acc, col)]
                out[ia][ib] = module.group.reduce(acc)
        return out

    # -- faces ------------------------------------------------------------

    def _differential_on_words(self, r: int):
        src_dim = self.word_dims[r]
        dst_dim = self.word_dims[r - 1]
        mat = la.zeros(dst_dim, src_dim)
        for col in range(src_dim):
            word = self._unpack_word(col, r)
            ts, m = word[:-1], word[-1]
            for i in range(r + 1):
                sign = -1 if i % 2 else 1
                for vec, coeff in self._face(ts, m, i, r):
                    row = self._pack_word(vec, r - 1)
                    mat[row][col] += sign * coeff
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

    def _pack_word(self, word, r):
        tdim = self.carrier.group.dim
        mdim = self.module.group.dim
        idx = 0
        for t in word[:-1]:
            idx = idx * tdim + t
        return idx * mdim + word[-1]

    def _unpack_word(self, idx, r):
        tdim = self.carrier.group.dim
        mdim = self.module.group.dim
        m = idx % mdim
        idx //= mdim
        ts = []
        for _ in range(r):
            ts.append(idx % tdim)
            idx //= tdim
        return tuple(reversed(ts)) + (m,)

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


def bar_complex(s: NaryGammaSemiring, module, j: int = 2, k: int = 0,
                depth: int = 4, policy: ContractionPolicy | None = None,
                carrier: CompletedModule | None = None) -> BarComplex:
    policy = policy or default_policy(s)
    if isinstance(module, BiGammaModule):
        module = linearize_module(module)
    if carrier is None:
        carrier = linearize_module(regular_bimodule(s))
    if not (0 <= j < s.n and 0 <= k < s.n):
        raise ValueError("slot indices out of range")
    return BarComplex(s, module, carrier, j, k, depth, policy)


# ---------------------------------------------------------------------------
# Hom and tensor complexes over a bar tower
# ---------------------------------------------------------------------------

class HomCochain:
    """Equivariant Hom of each bar term into a fixed completed module."""

    def __init__(self, bar: BarComplex, target: CompletedModule):
        self.bar = bar
        self.target = target
        self.homs = [EquivariantHom(term, target) for term in bar.terms]
        diffs = [self.homs[r].precompose(bar.diffs[r + 1], self.homs[r + 1],
                                         "precomposition")
                 for r in range(len(bar.terms) - 1)]
        self.cochain = Cochain([h.group for h in self.homs], diffs)


class TensorChain:
    """Balanced tensor of each bar term against a fixed completed module."""

    def __init__(self, bar: BarComplex, right: CompletedModule):
        self.bar = bar
        self.right = right
        self.tensors = [TensorGroup(term, right, bar.jslot, bar.kslot)
                        for term in bar.terms]
        diffs = {r: self.tensors[r].induced(self.tensors[r - 1], left=bar.diffs[r],
                                            what=f"tensored differential d_{r}")
                 for r in range(1, len(bar.terms))}
        self.chain = ChainComplexAb([t.group for t in self.tensors], diffs)


def bar_map(src_bar: BarComplex, dst_bar: BarComplex, f: GroupMap) -> list[GroupMap]:
    """Degreewise maps induced by a module map, checked to be a chain map."""
    if src_bar.depth != dst_bar.depth:
        raise ValueError(f"bar towers of depth {src_bar.depth} and "
                         f"{dst_bar.depth} cannot be compared")
    out = []
    tdim = src_bar.carrier.group.dim
    for r in range(src_bar.depth + 1):
        wmat = la.kron(la.identity(tdim ** r), tdim ** r, tdim ** r,
                       f.mat, f.dst.dim, f.src.dim)
        out.append(induced_on_quotients(
            dst_bar.projs[r], dst_bar.terms[r].group, wmat,
            src_bar.lifts[r], src_bar.projs[r], src_bar.terms[r].group,
            f"induced bar map at degree {r}"))
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


def ext_via_bar(s, m, n, j: int = 2, k: int = 0, depth: int = 2,
                policy: ContractionPolicy | None = None) -> DerivedResult:
    policy = policy or default_policy(s)
    bar = bar_complex(s, m, j, k, depth + 1, policy)
    target = n if isinstance(n, CompletedModule) else linearize_module(n)
    hc = HomCochain(bar, target)
    return DerivedResult(hc.cochain.cohomology(depth), bar)


def tor_via_bar(s, m, n, j: int = 2, k: int = 0, depth: int = 2,
                policy: ContractionPolicy | None = None) -> DerivedResult:
    policy = policy or default_policy(s)
    bar = bar_complex(s, m, j, k, depth + 1, policy)
    right = n if isinstance(n, CompletedModule) else linearize_module(n)
    tc = TensorChain(bar, right)
    return DerivedResult(homology(tc.chain)[:depth + 1], bar)


# ---------------------------------------------------------------------------
# Cofree coresolutions
# ---------------------------------------------------------------------------

@dataclass
class CofreeTower:
    source: BiGammaModule
    terms: list[CompletedModule]
    maps: list[GroupMap]
    unit: GroupMap
    monoid_sizes: list[int]

    def cochain_hom_from(self, m: CompletedModule) -> Cochain:
        homs = [EquivariantHom(m, t) for t in self.terms]
        diffs = []
        for r in range(len(self.terms) - 1):
            def image_of(basis):
                coords = homs[r + 1].coords(self.maps[r].compose(homs[r].matrix(basis)))
                if coords is None:
                    raise SoundnessError("postcomposition left the equivariant maps")
                return coords

            diffs.append(GroupMap.from_images(homs[r].group, homs[r + 1].group, image_of))
        return Cochain([h.group for h in homs], diffs)


def _unit_into_cofree(b: BiGammaModule, policy: ContractionPolicy):
    """The canonical additive map m -> (t -> t.m) and its cofree target."""
    s = b.parent
    cf = cofree(s, b.M)
    index = {f: i for i, f in enumerate(cf.maps)}
    table = []
    for m in range(b.M.size):
        vals = []
        for t in range(s.T.size):
            acc = b.M.zero
            for fill in policy.fillers:
                for gs in policy.gammas:
                    acc = b.M.add(acc, b.act(s.n - 1, (t,) + fill, m, gs))
            vals.append(acc)
        key = tuple(vals)
        if key not in index:
            raise SoundnessError("unit image is not an additive map")
        table.append(index[key])
    unit = ModuleMorphism(b, cf.module, tuple(table))
    return cf, unit


def _module_coker(f: ModuleMorphism) -> ModuleMorphism:
    """Projection of the target onto its quotient by the image congruence."""
    b = f.target
    size = b.M.size
    cls, reps = coset_congruence(b.M, {f(x) for x in range(f.source.M.size)})
    monoid = quotient_monoid(b.M, cls, reps)
    s = b.parent
    for slot in range(s.n):
        for tother in s.t_tuples(s.n - 1):
            for gs in s.g_tuples(s.n - 1):
                for x in range(size):
                    for y in range(x + 1, size):
                        if cls[x] == cls[y] and \
                                cls[b.act(slot, tother, x, gs)] != cls[b.act(slot, tother, y, gs)]:
                            raise SoundnessError("action not constant on coker classes")
    quot = build_module(
        s, monoid,
        lambda slot, tother, m, gs: cls[b.act(slot, tother, reps[m], gs)],
        name=f"{b.name}/im")
    return ModuleMorphism(b, quot, tuple(cls))


def cofree_coresolution(s: NaryGammaSemiring, b: BiGammaModule, depth: int = 2,
                        policy: ContractionPolicy | None = None) -> CofreeTower:
    """Iterated cofree embeddings with completed connecting maps."""
    policy = policy or default_policy(s)
    current = b
    terms: list[CompletedModule] = []
    monoid_sizes: list[int] = []
    units: list[ModuleMorphism] = []
    projs: list[ModuleMorphism] = []
    for r in range(depth + 1):
        cf, unit = _unit_into_cofree(current, policy)
        if not validate_module_morphism(unit).ok:
            raise SoundnessError("unit is not a module morphism on this instance")
        lin_src = linearize_module(current)
        lin_dst = linearize_module(cf.module)
        unit_lin = linearize_morphism(unit, lin_src, lin_dst)
        if not kernel(unit_lin).group.is_trivial():
            raise RegularityError(
                f"unit into the cofree module is not injective after completion "
                f"(tower stage {r})")
        terms.append(lin_dst)
        monoid_sizes.append(cf.module.M.size)
        units.append(unit)
        proj = _module_coker(unit)
        projs.append(proj)
        current = proj.target
    maps = []
    for r in range(depth):
        coker_lin = linearize_module(projs[r].target)
        step1 = linearize_morphism(projs[r], terms[r], coker_lin)
        step2 = linearize_morphism(units[r + 1], coker_lin, terms[r + 1])
        maps.append(step2.compose(step1))
    for r in range(1, len(maps)):
        if not maps[r].compose(maps[r - 1]).is_zero():
            raise SoundnessError("cofree tower differential does not square to zero")
    unit0 = linearize_morphism(units[0], linearize_module(b), terms[0])
    return CofreeTower(b, terms, maps, unit0, monoid_sizes)


def ext_via_cofree(s: NaryGammaSemiring, m, n: BiGammaModule, depth: int = 2,
                   policy: ContractionPolicy | None = None) -> DerivedResult:
    policy = policy or default_policy(s)
    tower = cofree_coresolution(s, n, depth + 1, policy)
    lin_m = m if isinstance(m, CompletedModule) else linearize_module(m)
    cochain = tower.cochain_hom_from(lin_m)
    return DerivedResult(cochain.cohomology(depth), None)


@dataclass
class BalanceReport:
    degrees: list[int]
    bar_factors: list[tuple[int, ...]]
    cofree_factors: list[tuple[int, ...]]
    skipped: str | None = None

    @property
    def balanced(self) -> bool:
        return self.skipped is None and self.bar_factors == self.cofree_factors


def balance_check(s, m: BiGammaModule, n: BiGammaModule, depth: int = 2,
                  j: int = 2, k: int = 0,
                  policy: ContractionPolicy | None = None) -> BalanceReport:
    policy = policy or default_policy(s)
    via_bar = ext_via_bar(s, m, n, j, k, depth, policy)
    try:
        via_cofree = ext_via_cofree(s, m, n, depth, policy)
    except RegularityError as e:
        return BalanceReport(list(range(depth + 1)), via_bar.factors(), [],
                             skipped=str(e))
    return BalanceReport(list(range(depth + 1)), via_bar.factors(),
                         via_cofree.factors())


# ---------------------------------------------------------------------------
# Long exact sequences
# ---------------------------------------------------------------------------

def solve_preimage(f: GroupMap, target_vec):
    """Some x with f(x) = target, or None."""
    sdim = f.src.dim
    ocols = order_lattice_columns(f.dst)
    t = len(ocols)
    if f.dst.dim == 0:
        return f.src.zero()
    a = [[(f.mat[i][jj] if jj < sdim else ocols[jj - sdim][i])
          for jj in range(sdim + t)] for i in range(f.dst.dim)]
    sol = la.solve(a, list(target_vec), f.dst.dim, sdim + t)
    if sol is None:
        return None
    return f.src.reduce(sol[:sdim])


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


def _full_subgroup(g: AbGroup) -> Subgroup:
    return Subgroup(g, [list(v) for v in la.identity(g.dim)])


def snake_les(x: Cochain, y: Cochain, z: Cochain,
              fmaps: list[GroupMap], gmaps: list[GroupMap],
              upto: int, tag: str) -> LesReport:
    """Long exact sequence of 0 -> X -> Y -> Z -> 0 with connecting maps.

    Degreewise short exactness is verified first; nodes then run
    H^0(X), H^0(Y), H^0(Z), H^1(X), ... with delta raising the degree.
    """
    length = min(len(x.groups), len(y.groups), len(z.groups), upto + 2)
    ses_ok = True
    for r in range(length):
        f, g = fmaps[r], gmaps[r]
        if not kernel(f).group.is_trivial():
            ses_ok = False
        if not image(g).same_as(_full_subgroup(g.dst)):
            ses_ok = False
        if not kernel(g).same_as(image(f)):
            ses_ok = False
    if not ses_ok:
        # Connecting maps need the degreewise short exactness; refuse with a
        # report instead of chasing through a broken ladder.
        return LesReport([], [], [], [], False, True,
                         note="degreewise short exactness fails on this "
                              "instance; no long exact sequence is induced")

    nodes_x = [x.node(r) for r in range(upto + 2)]
    nodes_y = [y.node(r) for r in range(upto + 2)]
    nodes_z = [z.node(r) for r in range(upto + 2)]

    def induced(node_src, node_dst, gm):
        return GroupMap.from_images(
            node_src.group, node_dst.group,
            lambda basis: node_dst.classify(gm(node_src.representative(basis))))

    def connecting(r):
        def image_of(basis):
            v = solve_preimage(gmaps[r], nodes_z[r].representative(basis))
            if v is None:
                raise SoundnessError("surjectivity failed during the zig-zag")
            w = y.d(r)(v)
            u = solve_preimage(fmaps[r + 1], w)
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
        seq_maps += [induced(nodes_x[r], nodes_y[r], fmaps[r]),
                     induced(nodes_y[r], nodes_z[r], gmaps[r]),
                     connecting(r)]

    exact_at = []
    for pos in range(1, len(groups)):
        im = image(seq_maps[pos - 1])
        ker = kernel(seq_maps[pos])
        exact_at.append(im.same_as(ker))
    deltas_zero = [seq_maps[3 * r + 2].is_zero() for r in range(upto + 1)]
    return LesReport(labels, groups, exact_at, deltas_zero, ses_ok, True)


def les_check(c: Conflation, n: BiGammaModule, depth: int = 2,
              side: str = "hom", j: int = 2, k: int = 0,
              policy: ContractionPolicy | None = None) -> LesReport:
    """Long exact sequence of a conflation through the given degree.

    side "hom" is contravariant in the conflation (Hom into n); side "tor"
    tensors n's bar tower against the conflation covariantly.
    """
    s = n.parent
    policy = policy or default_policy(s)
    a_mod, b_mod, c_mod = c.i.source, c.i.target, c.p.target
    lin_a, lin_b, lin_c = (linearize_module(a_mod), linearize_module(b_mod),
                           linearize_module(c_mod))
    ki = linearize_morphism(c.i, lin_a, lin_b)
    kp = linearize_morphism(c.p, lin_b, lin_c)
    completion_exact = (kernel(ki).group.is_trivial()
                        and image(kp).same_as(_full_subgroup(lin_c.group))
                        and kernel(kp).same_as(image(ki)))
    bar_depth = depth + 2
    bar_a = bar_complex(s, lin_a, j, k, bar_depth, policy)
    bar_b = bar_complex(s, lin_b, j, k, bar_depth, policy)
    bar_c = bar_complex(s, lin_c, j, k, bar_depth, policy)
    maps_i = bar_map(bar_a, bar_b, ki)
    maps_p = bar_map(bar_b, bar_c, kp)

    if side == "hom":
        target = linearize_module(n)
        hc_a = HomCochain(bar_a, target)
        hc_b = HomCochain(bar_b, target)
        hc_c = HomCochain(bar_c, target)

        def pullback(hsrc, hdst, gms):
            return [hsrc.homs[r].precompose(gm, hdst.homs[r], "pullback")
                    for r, gm in enumerate(gms)]

        pstar = pullback(hc_c, hc_b, maps_p)
        istar = pullback(hc_b, hc_a, maps_i)
        report = snake_les(hc_c.cochain, hc_b.cochain, hc_a.cochain,
                           pstar, istar, depth, "Ext")
        report.completion_exact = completion_exact
        return report

    if side != "tor":
        raise ValueError("side must be 'hom' or 'tor'")
    right = linearize_module(n)
    barn = bar_complex(s, right, j, k, bar_depth, policy)
    tc_a = TensorChain(barn, lin_a)
    tc_b = TensorChain(barn, lin_b)
    tc_c = TensorChain(barn, lin_c)

    def pushforward(tsrc, tdst, gm):
        return [src_t.induced(dst_t, right=gm,
                              what=f"tensored conflation map at degree {r}")
                for r, (src_t, dst_t) in enumerate(zip(tsrc.tensors, tdst.tensors))]

    push_i = pushforward(tc_a, tc_b, ki)
    push_p = pushforward(tc_b, tc_c, kp)
    top = bar_depth

    def reindex(tc):
        groups = [tc.chain.groups[top - q] for q in range(top + 1)]
        diffs = [tc.chain.d(top - q) for q in range(top)]
        return Cochain(groups, diffs)

    def reindex_maps(ms):
        return [ms[top - q] for q in range(top + 1)]

    report = snake_les(reindex(tc_a), reindex(tc_b), reindex(tc_c),
                       reindex_maps(push_i), reindex_maps(push_p),
                       depth, "Tor")
    report.completion_exact = completion_exact
    report.note = f"cochain position r is homological degree {top} - r"
    return report


# ---------------------------------------------------------------------------
# Yoneda composition
# ---------------------------------------------------------------------------

class ExtSetup:
    """Bar tower of the source module plus the Hom cochain into the target."""

    def __init__(self, s: NaryGammaSemiring, m: BiGammaModule, n: BiGammaModule,
                 depth: int, j: int = 2, k: int = 0,
                 policy: ContractionPolicy | None = None):
        self.semiring = s
        self.policy = policy or default_policy(s)
        self.jslot, self.kslot = j, k
        self.src = linearize_module(m)
        self.dst = linearize_module(n)
        self.bar = bar_complex(s, self.src, j, k, depth, self.policy)
        self.hom = HomCochain(self.bar, self.dst)
        self.nodes = [self.hom.cochain.node(r)
                      for r in range(len(self.hom.cochain.groups) - 1)]

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
        ident = GroupMap.identity(self.src.group)
        coords = self.hom.homs[0].coords(ident)
        if coords is None:
            raise SoundnessError("identity is not equivariant on this instance")
        return coords

    def add_cocycles(self, degree: int, c1, c2):
        return self.hom.cochain.groups[degree].add(c1, c2)


def _lift_chain_map(bar_src: BarComplex, bar_dst: BarComplex, g0_matrix,
                    q: int, p: int, rng: random.Random | None):
    """Chain lifts g_i : B_{q+i}(src) -> B_i(dst) of a degree-q cocycle map.

    Each stage solves one integer system combining the chain condition,
    well-definedness modulo orders, and equivariance; an unsolvable stage
    raises.  A random kernel element of the system is mixed in when rng is
    given, to probe independence from the choice of lift.
    """
    lifts = [GroupMap(bar_src.terms[q].group, bar_dst.terms[0].group,
                      g0_matrix, check=False)]
    for i in range(1, p + 1):
        src_g = bar_src.terms[q + i].group
        dst_g = bar_dst.terms[i].group
        rhs = lifts[i - 1].compose(bar_src.diffs[q + i])
        d_out = bar_dst.diffs[i]
        unknowns = dst_g.dim * src_g.dim
        rows = []
        targets = []
        for a in range(d_out.dst.dim):
            for bcol in range(src_g.dim):
                row = [0] * unknowns
                for cmid in range(dst_g.dim):
                    row[cmid * src_g.dim + bcol] = d_out.mat[a][cmid]
                rows.append(row)
                targets.append((rhs.mat[a][bcol], d_out.dst.orders[a]))
        for a in range(dst_g.dim):
            for bcol in range(src_g.dim):
                o = src_g.orders[bcol]
                if o:
                    row = [0] * unknowns
                    row[a * src_g.dim + bcol] = o
                    rows.append(row)
                    targets.append((0, dst_g.orders[a]))
        for slot in range(len(bar_src.terms[q + i].ops)):
            for w in range(len(bar_src.terms[q + i].ops[slot])):
                pmat = bar_src.terms[q + i].op(slot, w).mat
                qmat = bar_dst.terms[i].op(slot, w).mat
                for a in range(dst_g.dim):
                    for bcol in range(src_g.dim):
                        row = [0] * unknowns
                        for cmid in range(src_g.dim):
                            row[a * src_g.dim + cmid] += pmat[cmid][bcol]
                        for cmid in range(dst_g.dim):
                            row[cmid * src_g.dim + bcol] -= qmat[a][cmid]
                        rows.append(row)
                        targets.append((0, dst_g.orders[a]))
        aug_cols = []
        for t_idx, (_val, order) in enumerate(targets):
            if order:
                col = [0] * len(targets)
                col[t_idx] = order
                aug_cols.append(col)
        ncols = unknowns + len(aug_cols)
        amat = [row + [aug_cols[cc][r_idx] for cc in range(len(aug_cols))]
                for r_idx, row in enumerate(rows)]
        bvec = [v for (v, _o) in targets]
        if rows:
            sol = la.solve(amat, bvec, len(rows), ncols)
        else:
            sol = [0] * ncols
        if sol is None:
            raise SoundnessError(
                f"comparison lift unsolvable at stage {i}; bar terms fail "
                f"projectivity on this instance")
        flat = sol[:unknowns]
        if rng is not None and rows:
            for basis_vec in la.kernel_basis(amat, len(rows), ncols):
                coef = rng.randrange(-2, 3)
                if coef:
                    flat = [fv + coef * bv
                            for fv, bv in zip(flat, basis_vec[:unknowns])]
        mat = [[flat[a * src_g.dim + bcol] for bcol in range(src_g.dim)]
               for a in range(dst_g.dim)]
        lifts.append(GroupMap(src_g, dst_g, mat))
    return lifts


def yoneda_compose(ext_nl: ExtSetup, p: int, f_cocycle,
                   ext_mn: ExtSetup, q: int, g_cocycle,
                   ext_ml: ExtSetup, rng: random.Random | None = None):
    """Composite cocycle in degree p+q.

    ext_nl is the tower for (N, L), ext_mn for (M, N), ext_ml for (M, L);
    all three must share the semiring, slots, policy, and enough depth.
    """
    g0 = ext_mn.hom.homs[q].matrix(tuple(g_cocycle))
    lifts = _lift_chain_map(ext_mn.bar, ext_nl.bar, g0.mat, q, p, rng)
    f_map = ext_nl.hom.homs[p].matrix(tuple(f_cocycle))
    comp = f_map.compose(lifts[p])
    coords = ext_ml.hom.homs[p + q].coords(comp)
    if coords is None:
        raise SoundnessError("composite cocycle is not equivariant")
    dnext = ext_ml.hom.cochain.d(p + q)
    if not dnext(coords) == dnext.dst.zero():
        raise SoundnessError("composite of cocycles is not a cocycle")
    return coords
