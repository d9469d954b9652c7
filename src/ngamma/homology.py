"""Complexes, resolutions, derived Hom/Tor, and their checks.

One ``Complex`` type holds every chain complex (bar, tensor) and cochain
complex (Hom, cofree), and ``homology`` reads either.  One ``Resolution``
holds the bar and the cofree tower, each refused unless exact below its
cut, and ``HomCochain`` takes Hom out of the one and into the other.  One
``DerivedResult`` reads Ext, Tor, Yoneda classes and Ext modules off any
resolution, so a new resolution reaches every consumer through it.

Everything homological happens after group completion: the face maps need
additive inverses that the monoid level does not have.  Bar terms are the
iterated balanced tensors of the completed carrier against the module, with
faces that contract two adjacent factors through the multiplication.  The
semiring picks the contraction (``default_policy``): the missing carrier
slots are filled with its canonical neutral word when it has one, otherwise
summed over all fillers, and the parameter slots are summed over every
tuple.  Only the bar tower itself takes another ``ContractionPolicy``, for
bar diagnostics and for the benchmark's relabelled default; every derived
entry point above it builds its towers with the default.  Each public
entry point opens one scope for the length of its call
(``intlinalg.shares_factorizations``): the call factors each distinct
integer system, linearizes each distinct module and builds each bar tower
and comparison-lift stage once, so its bar towers share one carrier, the
linearized regular module.  Every term's operators are the scope's family
of their value (``completion._canonical_family``), so the balanced tensors
of a tower, the Tor chain against it and the Hom cochain out of it build
one tensor group or Hom group per pair of families, however many terms
share them.
"""

from __future__ import annotations

import random
from functools import reduce

from . import intlinalg as la
from .abgroups import (
    AbGroup, GroupMap, HomologyNode, descent_parts, induced_on_quotients, is_exact,
    is_short_exact, kernel_gens, preimage,
)
from .core import (
    BoundExceeded, NaryGammaSemiring, Record, RegularityError, SoundnessError, StructuralError,
    flatten_index, neutral_words, unflatten_index, _set,
)
from .modules import (
    BiGammaModule, Conflation, ModuleMorphism, check_slots, cofree, filler_index,
    quotient_projection, regular_bimodule, resolve_slot, validate_module_morphism,
)
from .completion import (
    CompletedModule, EquivariantHom, TensorGroup, _canonical_family, linearize_module,
    linearize_morphism, linearize_over,
)

# The refusal bound on a bar tower's word space at one degree, tdim^r * mdim,
# read when each degree is built.
BAR_WORD_BOUND = 20000


# ---------------------------------------------------------------------------
# Complexes of finitely generated abelian groups
# ---------------------------------------------------------------------------

class Complex:
    """Groups in degrees 0..top, and ``diffs[r]`` from degree r to r + step.

    Step -1 is a chain complex and step +1 a cochain complex: one is the
    other indexed the other way (``reversed``).  A differential that is
    missing or leaves the degrees 0..top is zero.
    """

    def __init__(self, groups: list[AbGroup], diffs: dict[int, GroupMap] | None = None,
                 step: int = -1):
        self.groups = groups
        self.diffs = {} if diffs is None else diffs
        self.step = step
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

class ContractionPolicy(Record):
    """Which parameter tuples are summed and which carrier fillers are used
    when a face map contracts two adjacent factors through mu.

    Nothing reads ``label``; it stays, defaulting to "", only because
    ``perfbench/jobs.py`` passes one positionally.
    """

    _fields = ("gammas", "fillers", "label")

    def __init__(self, gammas: tuple[tuple[int, ...], ...],
                 fillers: tuple[tuple[int, ...], ...], label: str = ""):
        _set(self, "gammas", gammas)
        _set(self, "fillers", fillers)
        _set(self, "label", label)

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
# Resolutions: the bar and cofree towers
# ---------------------------------------------------------------------------

class Resolution:
    """A tower of completed modules, checked exact below its cut.

    ``chain`` steps by -1 on the bar tower (resolving degree 0's module) and
    by +1 on the cofree tower (coresolving it).  Homology in a degree
    1..depth-1 is refused by a ``RegularityError`` naming ``what``, the
    degree, the homology and a witness cycle.  Only the bar fills the slots,
    ``tensors`` (degree r's balanced tensor, on which ``bar_map`` induces
    id (x) f) and ``word_dims`` (its word space by degree).  Equality is
    identity, so a tower can key the call scope's lift stages.
    """

    def __init__(self, semiring: NaryGammaSemiring, terms: list[CompletedModule],
                 chain: Complex, jslot: int | None, kslot: int | None, what: str,
                 tensors: dict[int, TensorGroup] | None = None,
                 word_dims: list[int] | None = None):
        self.semiring = semiring
        self.terms = terms
        self.chain = chain
        self.jslot = jslot
        self.kslot = kslot
        self.what = what
        self.tensors = {} if tensors is None else tensors
        self.word_dims = [] if word_dims is None else word_dims
        for r in range(1, self.depth):
            if not is_exact(self.chain.d(r - self.chain.step), self.chain.d(r)):
                node = self.chain.node(r)
                witness = node.representative(la.identity(node.group.dim)[0])
                raise RegularityError(
                    f"{self.what} is not a resolution: degree {r} has homology "
                    f"{node.group.invariant_factors()}, witness cycle {witness}")

    @property
    def depth(self) -> int:
        return self.chain.top

    @property
    def diffs(self) -> dict[int, GroupMap]:
        return self.chain.diffs


def _nonzero(vec):
    for i, c in enumerate(vec):
        if c:
            yield i, c


@la.shares_factorizations
def bar_complex(s: NaryGammaSemiring, module, j: int | None = None, k: int = 0,
                depth: int = 4, policy: ContractionPolicy | None = None) -> Resolution:
    """The bar tower of ``module`` (a BiGammaModule or CompletedModule).

    Degree r is (T tensor ... tensor T) tensor M with r carrier factors; the
    carrier T is the linearized regular module of s, which the call's scope
    shares with every other tower of the call, and with the module itself
    when that is the regular one.  The differential alternates over
    contractions of adjacent factors by ``policy`` (s's ``default_policy``
    when None): the wrap-around absorption of the first factor into the
    module, the merges of neighbouring carrier factors, and the absorption
    of the last factor.  The faces are computed on the unbalanced word space
    of each degree and projected to the balanced groups.  The call's scope
    keeps each tower (``intlinalg.open_memo``) under the linearized module's
    shared operators (which the tower keeps alive) and name, the slot pair,
    the depth and the policy.
    """
    policy = policy or default_policy(s)
    module, carrier = linearize_over(s, [module, regular_bimodule(s)])
    j = resolve_slot(s, j)
    check_slots(s, j, k)
    towers = la.open_memo().setdefault("bar towers", {})
    key = (id(module.ops), module.name, j, k, depth, policy)
    if key in towers:
        return towers[key]
    tdim = carrier.group.dim
    mdim = module.group.dim

    def absorb_table(target: CompletedModule, slot: int):
        """alpha[t coord][m coord]: absorb one carrier factor into ``target``,
        whose element goes just right of it at slot 1 and just left at slot
        0 (the wrap-around face), read off the target's operators alone.
        With the carrier itself at slot 1 this is the contraction of two
        carrier factors through mu.
        """
        comp = carrier.completion
        zero = GroupMap.zero(target.group, target.group)

        def total(maps):
            return reduce(GroupMap.add, maps, zero)

        # Only the carrier elements of the basis lifts are contracted.
        summed = {t: total(target.op(slot, w) for w in policy.words(s, t))
                  for t in dict.fromkeys(t for pairs in comp.lifts for t, _ in pairs)}
        # Entry [ia][ib] is column ib of the map of carrier basis vector ia, a
        # target vector that GroupMap keeps reduced.
        return [list(zip(*total(summed[t].scale(ct) for t, ct in pairs).mat))
                for pairs in comp.lifts]

    beta = absorb_table(carrier, slot=1)
    alpha_left = absorb_table(module, slot=1)
    alpha_right = absorb_table(module, slot=0)

    terms: list[CompletedModule] = [module]
    tensors: dict[int, TensorGroup] = {}
    word_dims = [mdim]
    # Degree 0 is the module on its own coordinates.
    projs, lifts = [la.identity(mdim)], [la.identity(mdim)]

    def on_words(tg, left, nwords, rdim):
        """tg's projection and lift on nwords left words by rdim right
        coordinates: proj . (P (x) I) and (L (x) I) . lift for the left
        factor's word maps (P, L), or None when its words are its coordinates."""
        proj, lift = tg.pres.proj_matrix(), tg.pres.lift_matrix()
        return (proj, lift) if left is None else (
            la.mul_kron_identity(proj, "left", left[0], nwords, rdim),
            la.kron_identity_mul(left[1], lift, tg.x.group.dim, rdim, tg.group.dim))

    power, pwords = carrier, None
    for r in range(1, depth + 1):
        if r > 1:
            tg = TensorGroup(power, carrier, j, k)
            power = tg.as_module()
            pwords = on_words(tg, pwords, tdim ** (r - 1), tdim)
        wdim = (tdim ** r) * mdim
        if wdim > BAR_WORD_BOUND:
            raise BoundExceeded(
                f"bar word space at degree {r}: tdim^r*mdim = {tdim}^{r}*{mdim} "
                f"= {wdim} exceeds its bound {BAR_WORD_BOUND}")
        tg = TensorGroup(power, module, j, k)
        proj, lift = on_words(tg, pwords, tdim ** r, mdim)
        projs.append(proj)
        lifts.append(lift)
        tensors[r] = tg
        terms.append(tg.as_module())
        word_dims.append(wdim)

    def face(ts, m, i, r):
        if i == 0:
            for mm, coeff in _nonzero(alpha_right[ts[0]][m]):
                yield ts[1:] + (mm,), coeff
        elif i < r:
            for tt, coeff in _nonzero(beta[ts[i - 1]][ts[i]]):
                yield ts[:i - 1] + (tt,) + ts[i + 1:] + (m,), coeff
        else:
            for mm, coeff in _nonzero(alpha_left[ts[-1]][m]):
                yield ts[:-1] + (mm,), coeff

    def differential_on_words(r):
        mat = la.zeros(word_dims[r - 1], word_dims[r])
        sizes = [tdim] * r + [mdim]
        for col in range(word_dims[r]):
            word = unflatten_index(col, sizes)
            ts, m = word[:-1], word[-1]
            for i in range(r + 1):
                sign = -1 if i % 2 else 1
                for vec, coeff in face(ts, m, i, r):
                    mat[flatten_index(vec, sizes[1:])][col] += sign * coeff
        return mat

    diffs = {r: induced_on_quotients(
                 terms[r].group, terms[r - 1].group,
                 *descent_parts(la.mat_mul(projs[r - 1], differential_on_words(r),
                                           word_dims[r]), lifts[r], projs[r]),
                 f"bar differential d_{r}")
             for r in range(1, depth + 1)}
    towers[key] = Resolution(s, terms, Complex([t.group for t in terms], diffs), j, k,
                             f"bar of {module.name} (fillers {policy.fillers}, "
                             f"parameter tuples {policy.gammas})", tensors, word_dims)
    return towers[key]


# ---------------------------------------------------------------------------
# Hom and tensor complexes over a resolution
# ---------------------------------------------------------------------------

class HomCochain:
    """Equivariant Hom between each term of a resolution and a fixed
    completed module, a cochain complex either way: out of the terms of the
    bar tower (its differentials act by precomposition) and into the terms
    of the cofree tower (by postcomposition)."""

    def __init__(self, res: Resolution, fixed: CompletedModule):
        if res.chain.step == -1:
            self.homs = [EquivariantHom(term, fixed) for term in res.terms]
            diffs = {r - 1: self.homs[r - 1].induced(self.homs[r], "pre", d, what="precomposition")
                     for r, d in res.diffs.items()}
        else:
            self.homs = [EquivariantHom(fixed, term) for term in res.terms]
            diffs = {r: self.homs[r].induced(self.homs[r + 1], "post", d, what="postcomposition")
                     for r, d in res.diffs.items()}
        self.complex = Complex([h.group for h in self.homs], diffs, step=1)


class TensorChain:
    """Balanced tensor of each bar term against a fixed completed module."""

    def __init__(self, bar: Resolution, right: CompletedModule):
        self.tensors = [TensorGroup(term, right, bar.jslot, bar.kslot)
                        for term in bar.terms]
        diffs = {r: self.tensors[r].induced(self.tensors[r - 1], "left", bar.diffs[r],
                                            what=f"tensored differential d_{r}")
                 for r in range(1, len(bar.terms))}
        self.complex = Complex([t.group for t in self.tensors], diffs)


def bar_map(src_bar: Resolution, dst_bar: Resolution, f: GroupMap) -> list[GroupMap]:
    """Degreewise maps induced by a module map, checked to be a chain map:
    f at degree 0 and id (x) f on the balanced tensor of every degree above.

    Both towers must share their depth, semiring (which fixes the carrier)
    and slots.
    """
    if src_bar.depth != dst_bar.depth:
        raise ValueError(f"bar towers of depth {src_bar.depth} and "
                         f"{dst_bar.depth} cannot be compared")
    if (src_bar.semiring, src_bar.jslot, src_bar.kslot) != \
            (dst_bar.semiring, dst_bar.jslot, dst_bar.kslot):
        raise ValueError("bar towers over different semirings or slots cannot be compared")
    out = [f] + [src_bar.tensors[r].induced(dst_bar.tensors[r], "right", f,
                                            what=f"induced bar map at degree {r}")
                 for r in range(1, src_bar.depth + 1)]
    for r in range(1, src_bar.depth + 1):
        lhs = out[r - 1].compose(src_bar.diffs[r])
        rhs = dst_bar.diffs[r].compose(out[r])
        if not lhs.equal(rhs):
            raise SoundnessError(f"induced bar map is not a chain map at degree {r}")
    return out


# ---------------------------------------------------------------------------
# Derived groups: one functor read off one resolution
# ---------------------------------------------------------------------------

class DerivedResult:
    """One functor on one resolution below its cut, Hom out of the bar or
    into the cofree tower (``HomCochain``) or the bar tensored against a
    module (``TensorChain``), with each degree's ``HomologyNode``; only the
    Ext and Tor entry points build one.  Its cocycle classes (which
    ``yoneda_compose`` composes) and ``modules`` are read only off Ext out
    of a chain resolution; any other record refuses them with a ValueError,
    and so do the cocycle readers for a degree outside 0..len(nodes)-1."""

    def __init__(self, resolution: Resolution, functor: HomCochain | TensorChain):
        self.resolution = resolution
        self.functor = functor
        self.complex = self.functor.complex
        self.nodes = [self.complex.node(r) for r in range(self.resolution.depth)]
        self.groups = [node.group for node in self.nodes]

    def factors(self) -> list[tuple[int, ...]]:
        return [g.invariant_factors() for g in self.groups]

    def _ext_homs(self) -> list[EquivariantHom]:
        if not isinstance(self.functor, HomCochain) or self.resolution.chain.step != -1:
            raise ValueError(f"not Ext out of a chain resolution: {self.resolution.what}")
        return self.functor.homs

    def _ext_node(self, degree: int) -> HomologyNode:
        self._ext_homs()
        if not 0 <= degree < len(self.nodes):
            raise ValueError(f"degree {degree} is outside this record's degrees "
                             f"0..{len(self.nodes) - 1}")
        return self.nodes[degree]

    def cocycles(self, degree: int) -> list[tuple[int, ...]]:
        cycles = self._ext_node(degree).cycles
        return sorted({cycles.inclusion(c) for c in cycles.group.elements()})

    def class_of(self, degree: int, cocycle) -> tuple[int, ...]:
        return self._ext_node(degree).classify(cocycle)

    def classes_equal(self, degree: int, c1, c2) -> bool:
        return self.class_of(degree, c1) == self.class_of(degree, c2)

    def identity_cocycle(self) -> tuple[int, ...]:
        hom = self._ext_homs()[0]
        if hom.x.group.orders != hom.y.group.orders:
            raise StructuralError("the identity cocycle needs equal source and target groups")
        return hom.coords(GroupMap.identity(hom.x.group), "the identity")

    def modules(self) -> list[CompletedModule]:
        """Ext below the cut as completed modules, on which each distinct
        operator of the fixed module acts once, by postcomposition.  Their
        operators are the scope's family of their value
        (``completion._canonical_family``)."""
        s, out = self.resolution.semiring, []
        for qdeg, (node, hom) in enumerate(zip(self.nodes, self._ext_homs())):
            # Equal keys are equal maps; only cocycle representatives stay equivariant.
            post = {key: node.induced(lambda rep, opn=opn: hom.coords(
                        opn.compose(hom.matrix(tuple(rep))), "operator"), node)
                    for key, opn in {o.key: o for slot in hom.y.ops for o in slot}.items()}
            ops = tuple(tuple(post[o.key] for o in slot) for slot in hom.y.ops)
            out.append(CompletedModule(s, node.group, _canonical_family(s, node.group, ops),
                                       None, name=f"Ext^{qdeg}"))
        return out


@la.shares_factorizations
def ext_via_bar(s, m, n, j: int | None = None, k: int = 0, depth: int = 2,
                policy: ContractionPolicy | None = None) -> DerivedResult:
    """Ext of m into n on m's bar tower.

    ``policy`` (s's ``default_policy`` when None) exists for the benchmark's
    relabelled default and for bar diagnostics; no derived entry point
    above this one passes it.
    """
    lin_m, target = linearize_over(s, [m, n])
    bar = bar_complex(s, lin_m, j, k, depth + 1, policy)
    return DerivedResult(bar, HomCochain(bar, target))


@la.shares_factorizations
def tor_via_bar(s, m, n, j: int | None = None, k: int = 0, depth: int = 2,
                policy: ContractionPolicy | None = None) -> DerivedResult:
    """Tor of m's bar tower against n: the derived functor of the positional
    tensor balanced at the one slot pair (j, k), so Tor_0(reg, reg) is the
    carrier, not HH_0.  ``ext_via_bar``'s docstring says what ``policy`` is
    for."""
    lin_m, right = linearize_over(s, [m, n])
    bar = bar_complex(s, lin_m, j, k, depth + 1, policy)
    return DerivedResult(bar, TensorChain(bar, right))


# ---------------------------------------------------------------------------
# Cofree coresolutions
# ---------------------------------------------------------------------------

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


@la.shares_factorizations
def cofree_coresolution(s: NaryGammaSemiring, b: BiGammaModule,
                        depth: int = 2) -> Resolution:
    """Iterated cofree embeddings with completed connecting maps, in one pass.

    Stage r embeds the cokernel of stage r-1 (b at stage 0) into its cofree
    module.  The map from term r-1 to term r is stage r's unit after stage
    r-1's projection onto its cokernel, composed once stage r has linearized
    it; the call's scope completes each monoid of the stages once.
    """
    current = b
    terms: list[CompletedModule] = []
    maps: dict[int, GroupMap] = {}
    for r in range(depth + 1):
        if r:
            proj = quotient_projection(cf.module, set(unit.map), f"{cf.module.name}/im")
            current = proj.target
        cf, unit = _unit_into_cofree(current)
        if not validate_module_morphism(unit).ok:
            raise SoundnessError("unit is not a module morphism on this instance")
        lin_src = linearize_module(current)
        lin_dst = linearize_module(cf.module)
        unit_lin = linearize_morphism(unit, lin_src, lin_dst)
        if not is_exact(GroupMap.zero(AbGroup(()), unit_lin.src), unit_lin):
            raise RegularityError(
                f"unit into the cofree module is not injective after completion "
                f"(tower stage {r})")
        if r:
            maps[r - 1] = unit_lin.compose(linearize_morphism(proj, terms[r - 1], lin_src))
        terms.append(lin_dst)
    return Resolution(s, terms, Complex([t.group for t in terms], maps, step=1),
                      None, None, f"cofree tower of {b.name}")


@la.shares_factorizations
def ext_via_cofree(s: NaryGammaSemiring, m, n: BiGammaModule,
                   depth: int = 2) -> DerivedResult:
    """Ext of m into n on n's cofree tower."""
    lin_m, _ = linearize_over(s, [m, n])
    tower = cofree_coresolution(s, n, depth + 1)
    return DerivedResult(tower, HomCochain(tower, lin_m))


class BalanceReport(Record):
    _fields = ("bar_factors", "cofree_factors", "skipped")

    def __init__(self, bar_factors: list[tuple[int, ...]],
                 cofree_factors: list[tuple[int, ...]], skipped: str | None = None):
        _set(self, "bar_factors", bar_factors)
        _set(self, "cofree_factors", cofree_factors)
        _set(self, "skipped", skipped)

    @property
    def balanced(self) -> bool:
        return self.skipped is None and self.bar_factors == self.cofree_factors


@la.shares_factorizations
def balance_check(s, m: BiGammaModule, n: BiGammaModule, depth: int = 2,
                  j: int | None = None, k: int = 0) -> BalanceReport:
    via_bar = ext_via_bar(s, m, n, j, k, depth)
    try:
        via_cofree = ext_via_cofree(s, m, n, depth)
    except RegularityError as e:
        return BalanceReport(via_bar.factors(), [], skipped=str(e))
    return BalanceReport(via_bar.factors(), via_cofree.factors())


# ---------------------------------------------------------------------------
# Long exact sequences
# ---------------------------------------------------------------------------

class LesReport(Record):
    _fields = ("labels", "groups", "exact_at", "deltas_zero", "ses_ok", "completion_exact", "note")

    def __init__(self, labels: list[str], groups: list[AbGroup], exact_at: list[bool],
                 deltas_zero: list[bool], ses_ok: bool, completion_exact: bool, note: str):
        _set(self, "labels", labels)
        _set(self, "groups", groups)
        _set(self, "exact_at", exact_at)
        _set(self, "deltas_zero", deltas_zero)
        _set(self, "ses_ok", ses_ok)
        _set(self, "completion_exact", completion_exact)
        _set(self, "note", note)

    @property
    def all_exact(self) -> bool:
        return self.ses_ok and all(self.exact_at)


def snake_les(rows: list[tuple[Complex, list[HomologyNode]]],
              fmaps: list[GroupMap], gmaps: list[GroupMap], upto: int, tag: str,
              completion_exact: bool, note: str) -> LesReport:
    """Long exact sequence of 0 -> X -> Y -> Z -> 0 with connecting maps.

    ``rows`` holds X, Y and Z, each a cochain complex and its nodes through
    degree upto+1.  Degreewise short exactness is verified first; nodes then
    run H^0(X), H^0(Y), H^0(Z), H^1(X), ... with delta raising the degree.
    The report carries ``completion_exact`` and ``note``, or on a refusal
    the refusal's reason as its note.
    """
    (x, nodes_x), (y, nodes_y), (z, nodes_z) = rows
    length = min(len(x.groups), len(y.groups), len(z.groups), upto + 2)
    ses_ok = all(is_short_exact(fmaps[r], gmaps[r]) for r in range(length))
    if not ses_ok:
        # Connecting maps need the degreewise short exactness; refuse with a
        # report instead of chasing through a broken ladder.
        return LesReport([], [], [], [], False, completion_exact,
                         "degreewise short exactness fails on this "
                         "instance; no long exact sequence is induced")

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
    return LesReport(labels, groups, exact_at, deltas_zero, ses_ok, completion_exact, note)


@la.shares_factorizations
def les_check(c: Conflation, n: BiGammaModule, depth: int = 2,
              side: str = "hom", j: int | None = None, k: int = 0) -> LesReport:
    """Long exact sequence of a conflation through the given degree.

    side "hom" is contravariant in the conflation, on the three records of
    Ext into n (``ext_via_bar``); side "tor" tensors n's bar tower against
    the conflation covariantly.  Any other side is refused with a
    ValueError before anything is built.
    """
    if side not in ("hom", "tor"):
        raise ValueError("side must be 'hom' or 'tor'")
    s = n.parent
    lin_a, lin_b, lin_c, lin_n = linearize_over(s, [c.i.source, c.i.target, c.p.target, n])
    ki = linearize_morphism(c.i, lin_a, lin_b)
    kp = linearize_morphism(c.p, lin_b, lin_c)
    completion_exact = is_short_exact(ki, kp)

    if side == "hom":
        ext_a, ext_b, ext_c = (ext_via_bar(s, lin, lin_n, j, k, depth + 1)
                               for lin in (lin_a, lin_b, lin_c))
        maps_i = bar_map(ext_a.resolution, ext_b.resolution, ki)
        maps_p = bar_map(ext_b.resolution, ext_c.resolution, kp)

        def pullback(a, b, gms):
            return [a.functor.homs[r].induced(b.functor.homs[r], "pre", gm, what="pullback")
                    for r, gm in enumerate(gms)]

        return snake_les([(e.complex, e.nodes) for e in (ext_c, ext_b, ext_a)],
                         pullback(ext_c, ext_b, maps_p), pullback(ext_b, ext_a, maps_i),
                         depth, "Ext", completion_exact, "")

    bar_depth = depth + 2
    barn = bar_complex(s, lin_n, j, k, bar_depth)
    tc_a = TensorChain(barn, lin_a)
    tc_b = TensorChain(barn, lin_b)
    tc_c = TensorChain(barn, lin_c)

    def pushforward(tsrc, tdst, gm):
        return [src_t.induced(dst_t, "right", gm,
                              what=f"tensored conflation map at degree {r}")
                for r, (src_t, dst_t) in enumerate(zip(tsrc.tensors, tdst.tensors))]

    # snake_les raises degrees, so each chain complex is read reversed.
    rows = [tc.complex.reversed() for tc in (tc_a, tc_b, tc_c)]
    return snake_les([(x, [x.node(r) for r in range(depth + 2)]) for x in rows],
                     pushforward(tc_a, tc_b, ki)[::-1], pushforward(tc_b, tc_c, kp)[::-1],
                     depth, "Tor", completion_exact,
                     f"cochain position r is homological degree {bar_depth} - r")


# ---------------------------------------------------------------------------
# Yoneda composition
# ---------------------------------------------------------------------------

def _lift_chain_map(bar_src: Resolution, bar_dst: Resolution, g0_matrix,
                    q: int, p: int, rng: random.Random | None):
    """Chain lifts g_i : B_{q+i}(src) -> B_i(dst) of a degree-q cocycle map.

    Stage i takes the equivariant g_i whose composite with d_i is
    g_{i-1} . d, a preimage under postcomposition by d_i between the
    equivariant Hom groups; an unsolvable stage raises.  Each stage's Hom
    groups and postcomposition are kept in the call's scope
    (``intlinalg.open_memo``), keyed by both towers, the source degree and
    the stage.  With rng, a random element of that postcomposition's kernel
    is mixed in, to probe independence from the choice of lift.
    """
    memo = la.open_memo()
    if memo is None:
        memo = {}
    lifts = [GroupMap(bar_src.terms[q].group, bar_dst.terms[0].group,
                      g0_matrix, check=False)]
    for i in range(1, p + 1):
        key = ("lift stage", bar_src, bar_dst, q + i, i)
        if key not in memo:
            hom = EquivariantHom(bar_src.terms[q + i], bar_dst.terms[i])
            below = EquivariantHom(bar_src.terms[q + i], bar_dst.terms[i - 1])
            memo[key] = (hom, below, hom.induced(below, "post", bar_dst.diffs[i],
                                                 what="bar differential"))
        hom, below, post = memo[key]
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


@la.shares_factorizations
def yoneda_compose(ext_nl: DerivedResult, p: int, f_cocycle,
                   ext_mn: DerivedResult, q: int, g_cocycle,
                   ext_ml: DerivedResult, rng: random.Random | None = None):
    """Composite cocycle in degree p+q.

    ext_nl is Ext of (N, L), ext_mn of (M, N) and ext_ml of (M, L), each off
    a bar tower; all three must share the semiring and slots (a ValueError
    refuses them otherwise; the semiring fixes the contraction) and have
    enough depth.
    """
    homs_nl, homs_mn, homs_ml = (e._ext_homs() for e in (ext_nl, ext_mn, ext_ml))
    keys = [(e.resolution.semiring, e.resolution.jslot, e.resolution.kslot)
            for e in (ext_nl, ext_mn, ext_ml)]
    if any(key != keys[0] for key in keys[1:]):
        raise ValueError("Yoneda composition needs three towers over one semiring "
                         "and slot pair")
    g0 = homs_mn[q].matrix(tuple(g_cocycle))
    lifts = _lift_chain_map(ext_mn.resolution, ext_nl.resolution, g0.mat, q, p, rng)
    f_map = homs_nl[p].matrix(tuple(f_cocycle))
    comp = f_map.compose(lifts[p])
    coords = homs_ml[p + q].coords(comp, "composite cocycle")
    dnext = ext_ml.complex.d(p + q)
    if not dnext(coords) == dnext.dst.zero():
        raise SoundnessError("composite of cocycles is not a cocycle")
    return coords
