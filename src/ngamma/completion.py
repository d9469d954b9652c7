"""Group completion and the integer-linear layer above it.

Finite additive monoids complete to finite abelian groups; module actions
descend to families of commuting endomorphisms indexed by slot and by one
carrier/parameter filler tuple.  Equivariant Hom groups and balanced tensor
groups are then explicit kernel and cokernel computations over the integers,
canonicalized through Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from math import gcd
from operator import add

from . import intlinalg as la
from .abgroups import AbGroup, GroupMap, Presentation, induced_on_quotients, kernel
from .core import FiniteAddMonoid, NaryGammaSemiring, SoundnessError, StructuralError
from .modules import (
    BiGammaModule, ModuleMorphism, check_slots, filler_tuples, map_columns, residual_slots,
    same_module,
)


@dataclass(frozen=True)
class Completion:
    """The completion of a monoid: the group, each element's vector, and
    ``lifts[c]``, the (element, coefficient) pairs of a formal sum of
    elements whose vector is the c-th basis vector of the group."""

    monoid: FiniteAddMonoid
    group: AbGroup
    vectors: tuple[tuple[int, ...], ...]
    pres: Presentation = field(compare=False, repr=False)
    lifts: tuple[tuple[tuple[int, int], ...], ...] = field(compare=False, repr=False)

    def vector(self, m: int) -> tuple[int, ...]:
        return self.vectors[m]


def group_complete(monoid: FiniteAddMonoid) -> Completion:
    """Universal enveloping abelian group of a finite commutative monoid.

    Presented on one generator per element with a relation per table entry,
    so the vector of element m is column m of the projection.  When some t
    has add(min(a, t), max(a, t)) = t for every a, the pair relation (a, t)
    reads e_a = 0: the completion is 0 and unit relations present it.  Such
    a t is the sum of all elements, and the test reads the table entries
    those relations read, so it is exact even on an unvalidated table.
    """
    size = monoid.size
    top = monoid.sum(range(size))
    if all(monoid.add(min(a, top), max(a, top)) == top for a in range(size)):
        rels = la.identity(size)
    else:
        rels = []
        for a in range(size):
            for b in range(a, size):
                r = [0] * size
                r[a] += 1
                r[b] += 1
                r[monoid.add(a, b)] -= 1
                rels.append(r)
        z = [0] * size
        z[monoid.zero] = 1
        rels.append(z)
    pres = Presentation(size, rels)
    vectors = tuple(map(pres.group.reduce, zip(*pres.proj_matrix()))) or ((),) * size
    lift = pres.lift_matrix()
    lifts = tuple(tuple((m, row[c]) for m, row in enumerate(lift) if row[c])
                  for c in range(pres.group.dim))
    return Completion(monoid, pres.group, vectors, pres, lifts)


def completion_map(src: Completion, dst: Completion, elem_map) -> GroupMap:
    """Induced map on completions of an additive element map, given as its
    table (``elem_map[m]`` is the image of element m).

    Column c is gathered from dst's vectors of the images of ``src.lifts[c]``,
    which ``group_complete`` computed once for src: a lift ((m, 1),) is the
    vector of m's image itself, a longer lift is summed once.  The group map
    is checked to be well defined.
    """
    vecs = dst.vectors
    cols = []
    for pairs in src.lifts:
        col = None
        for m, coeff in pairs:
            y = vecs[elem_map[m]]
            if coeff != 1:
                y = [coeff * v for v in y]
            col = y if col is None else list(map(add, col, y))
        cols.append(col)
    return GroupMap(src.group, dst.group, list(zip(*cols)) or [()] * dst.group.dim,
                    check=True)


@dataclass(frozen=True)
class CompletedModule:
    """A completed module: finite abelian group plus per-slot operators."""

    semiring: NaryGammaSemiring
    group: AbGroup
    ops: tuple[tuple[GroupMap, ...], ...]
    completion: Completion | None = field(default=None, compare=False)
    name: str = ""

    def op(self, slot: int, w: int) -> GroupMap:
        return self.ops[slot][w]


def linearize_module(b: BiGammaModule,
                     completion: Completion | None = None) -> CompletedModule:
    """Completion of the carrier with each slot action linearized.

    ``ops[j][w]`` is the completion of slot j's column for filler w
    (``BiGammaModule.actions``); each distinct column is linearized once.
    ``completion`` is b.M's completion when the caller already has one;
    ``linearize_all`` passes it so that modules of one call share it.
    Nothing is cached across calls.
    """
    comp = group_complete(b.M) if completion is None else completion
    ops = map_columns(lambda col: completion_map(comp, comp, col),
                      [b.actions(j) for j in range(b.parent.n)])
    return CompletedModule(b.parent, comp.group, tuple(map(tuple, ops)), comp,
                           name=b.name)


def linearize_all(mods) -> list[CompletedModule]:
    """Linearize the modules one derived call works with, sharing the work.

    Each distinct monoid is completed once, and a module equal to an earlier
    one (``modules.same_module``) takes its operators under its own name.
    CompletedModules pass through and lend their completion.  The sharing
    lasts for this call only: nothing is stored on the modules or monoids.
    """
    comps: dict[FiniteAddMonoid, Completion] = {}
    done: list[tuple[BiGammaModule, CompletedModule]] = []
    out = []
    for b in mods:
        if isinstance(b, CompletedModule):
            if b.completion is not None:
                comps.setdefault(b.completion.monoid, b.completion)
            out.append(b)
            continue
        twin = next((lin for a, lin in done if same_module(a, b)), None)
        if twin is None:
            if b.M not in comps:
                comps[b.M] = group_complete(b.M)
            lin = linearize_module(b, completion=comps[b.M])
        else:
            lin = replace(twin, name=b.name)
        done.append((b, lin))
        out.append(lin)
    return out


def linearize_over(s: NaryGammaSemiring, mods) -> list[CompletedModule]:
    """``linearize_all`` of the modules of one derived call over s.

    A module (BiGammaModule or CompletedModule) over another semiring is
    refused with a StructuralError before anything is linearized.
    """
    for b in mods:
        if (b.semiring if isinstance(b, CompletedModule) else b.parent) != s:
            raise StructuralError(f"module '{b.name}' does not live over {s.name}")
    return linearize_all(mods)


def linearize_morphism(f: ModuleMorphism, src: CompletedModule,
                       dst: CompletedModule) -> GroupMap:
    if src.completion is None or dst.completion is None:
        raise StructuralError("linearizing a morphism needs both completions")
    return completion_map(src.completion, dst.completion, f.map)


def zero_completed(s: NaryGammaSemiring) -> CompletedModule:
    g = AbGroup(())
    ws = filler_tuples(s)
    ops = tuple(tuple(GroupMap.zero(g, g) for _ in ws) for _ in range(s.n))
    return CompletedModule(s, g, ops, None, name="0")


def direct_sum_completed(mods: list[CompletedModule]) -> CompletedModule:
    from .abgroups import direct_sum
    s = mods[0].semiring
    total, incls, projs = direct_sum([m.group for m in mods])
    ws = filler_tuples(s)
    ops = []
    for j in range(s.n):
        slot_ops = []
        for w in range(len(ws)):
            acc = GroupMap.zero(total, total)
            for m, inc, prj in zip(mods, incls, projs):
                acc = acc.add(inc.compose(m.op(j, w)).compose(prj))
            slot_ops.append(acc)
        ops.append(tuple(slot_ops))
    return CompletedModule(s, total, tuple(ops), None,
                           name="(+)".join(m.name for m in mods))


# ---------------------------------------------------------------------------
# Equivariant Hom groups
# ---------------------------------------------------------------------------

class HomBase:
    """The group of all additive maps between two coordinate groups.

    Coordinates are pairs (source coordinate, target coordinate); each pair
    contributes a cyclic factor whose generator sends the source basis vector
    to a fixed multiple of the target one.
    """

    def __init__(self, src: AbGroup, dst: AbGroup):
        self.src = src
        self.dst = dst
        coords = []
        for i, a in enumerate(src.orders):
            for j, b in enumerate(dst.orders):
                if a == 0 and b == 0:
                    coords.append((i, j, 0, 1))
                elif a == 0:
                    coords.append((i, j, b, 1))
                elif b == 0:
                    continue  # no nonzero maps from torsion to free
                else:
                    g = gcd(a, b)
                    if g > 1:
                        coords.append((i, j, g, b // g))
        self.coords = coords
        self.group = AbGroup(tuple(c[2] for c in coords))

    def matrix_of(self, cvec) -> list[list[int]]:
        f = la.zeros(self.dst.dim, self.src.dim)
        for c, (i, j, order, mult) in zip(cvec, self.coords):
            f[j][i] += c * mult
        return f

    def coords_of(self, mat):
        out = []
        for (i, j, order, mult) in self.coords:
            b = self.dst.orders[j]
            entry = mat[j][i] % b if b else mat[j][i]
            if entry % mult:
                return None
            out.append((entry // mult) % order if order else entry // mult)
        cand = self.group.reduce(out)
        got = self.matrix_of(cand)
        for j, b in enumerate(self.dst.orders):
            for i in range(self.src.dim):
                lhs = got[j][i] % b if b else got[j][i]
                rhs = mat[j][i] % b if b else mat[j][i]
                if lhs != rhs:
                    return None
        return cand


class EquivariantHom:
    """Additive maps commuting with every positional operator, as a functor:
    ``induced`` composes on either side, and ``coords`` reads a map's
    coordinates and refuses one that is not equivariant."""

    def __init__(self, x: CompletedModule, y: CompletedModule):
        if x.semiring != y.semiring:
            raise StructuralError("Hom endpoints live over different semirings")
        self.x = x
        self.y = y
        self.base = HomBase(x.group, y.group)
        # Equal operator pairs give equal rows: keep the first of each.  One
        # object stands for every filler whose column it linearizes, so each
        # slot's pairs are collapsed by identity before any key is read.
        constraints = dict.fromkeys(
            (p.key, q.key) for slot in range(x.semiring.n)
            for p, q in dict.fromkeys(zip(x.ops[slot], y.ops[slot])))
        rows = []
        orders = []
        xs, ys = x.group.dim, y.group.dim
        for (p, q) in constraints:
            for jj in range(ys):
                for aa in range(xs):
                    row = []
                    for (i0, j0, order, mult) in self.base.coords:
                        coeff = 0
                        if j0 == jj:
                            coeff += mult * p[i0][aa]
                        if i0 == aa:
                            coeff -= q[jj][j0] * mult
                        row.append(coeff)
                    rows.append(row)
                    orders.append(y.group.orders[jj])
        self._kernel = kernel(GroupMap(self.base.group, AbGroup(tuple(orders)), rows))
        self.group = self._kernel.group

    def matrix(self, coords) -> GroupMap:
        cvec = self._kernel.inclusion(coords)
        return GroupMap(self.x.group, self.y.group,
                        self.base.matrix_of(cvec), check=False)

    def coords(self, gm: GroupMap, what: str):
        """Coordinates of gm in this Hom group; SoundnessError naming
        ``what`` when gm is not an equivariant additive map."""
        cvec = self.base.coords_of(gm.mat)
        coords = None if cvec is None else self._kernel.membership(cvec)
        if coords is None:
            raise SoundnessError(f"{what} left the equivariant maps")
        return coords

    def induced(self, dst: "EquivariantHom", pre: GroupMap | None = None,
                post: GroupMap | None = None, *, what: str) -> GroupMap:
        """f -> post . f . pre from this Hom group into dst; None is the identity.

        pre maps dst's source into this source and post this target into
        dst's target.  Raises SoundnessError naming ``what`` when an image
        is not equivariant.
        """
        def image_of(basis):
            f = self.matrix(basis)
            if pre is not None:
                f = f.compose(pre)
            return dst.coords(f if post is None else post.compose(f), what)

        return GroupMap.from_images(self.group, dst.group, image_of)


# ---------------------------------------------------------------------------
# Balanced tensor groups
# ---------------------------------------------------------------------------

class TensorGroup:
    """K(X) (x) K(Y) modulo slot-(j,k) balancing, with residual operators."""

    def __init__(self, x: CompletedModule, y: CompletedModule, j: int, k: int):
        if x.semiring != y.semiring:
            raise StructuralError("tensor factors live over different semirings")
        check_slots(x.semiring, j, k)
        self.x = x
        self.y = y
        self.jslot = j
        self.kslot = k
        xs, ys = x.group.dim, y.group.dim
        self.pair_dim = xs * ys
        rels = []
        for i, a in enumerate(x.group.orders):
            for j2, b in enumerate(y.group.orders):
                idx = i * ys + j2
                for o in (a, b):
                    if o:
                        r = [0] * self.pair_dim
                        r[idx] = o
                        rels.append(r)
        ident_x, ident_y = la.identity(xs), la.identity(ys)
        for p, q in dict.fromkeys((p.key, q.key)
                                  for p, q in dict.fromkeys(zip(x.ops[j], y.ops[k]))):
            # Column i0*ys + j0 of kron(P, I) - kron(I, Q) balances the pair
            # (i0, j0): P acting on the left factor against Q on the right.
            via_x = la.kron(p, ident_y)
            via_y = la.kron(ident_x, q)
            rels.extend([a - b for a, b in zip(col_x, col_y)]
                        for col_x, col_y in zip(zip(*via_x), zip(*via_y)))
        self.pres = Presentation(self.pair_dim, rels)
        self.group = self.pres.group
        self.name = f"{x.name}(x){y.name}"

    def pair_matrix_to_quotient(self, pairmat) -> GroupMap | None:
        """Project a pair-space endomorphism; None when it does not descend."""
        proj = self.pres.proj_matrix()
        try:
            return induced_on_quotients(proj, self.group, pairmat,
                                        self.pres.lift_matrix(), proj, self.group,
                                        "pair matrix")
        except SoundnessError:
            return None

    def induced(self, dst: "TensorGroup", left: GroupMap | None = None,
                right: GroupMap | None = None, *, what: str) -> GroupMap:
        """left (x) right from this tensor group into dst; None is the identity.

        Raises SoundnessError when the map does not descend to the balanced
        quotients.
        """
        pairmat = la.kron(left.mat if left else la.identity(self.x.group.dim),
                          right.mat if right else la.identity(self.y.group.dim))
        return induced_on_quotients(dst.pres.proj_matrix(), dst.group, pairmat,
                                    self.pres.lift_matrix(), self.pres.proj_matrix(),
                                    self.group, what)

    def as_module(self) -> CompletedModule:
        """Attach residual operators, each slot through the right factor when
        all its operators descend there, else the left (``residual_slots``).
        Each distinct operator of a side is projected once."""
        s = self.x.semiring
        ident_x = la.identity(self.x.group.dim)
        ident_y = la.identity(self.y.group.dim)
        projected = {}

        def attach(side, ops, pairmat, slot):
            by_op = dict.fromkeys(ops[slot])
            for op in by_op:
                key = side, op.key
                if key not in projected:
                    projected[key] = self.pair_matrix_to_quotient(pairmat(op.mat))
                by_op[op] = projected[key]
                if by_op[op] is None:
                    tother, gs = filler_tuples(s)[ops[slot].index(op)]
                    raise SoundnessError(f"the operator with carriers {tother} and "
                                         f"parameters {gs} does not descend")
            return tuple(map(by_op.__getitem__, ops[slot]))

        ops = residual_slots(s.n, [
            ("right", partial(attach, "right", self.y.ops, lambda m: la.kron(ident_x, m))),
            ("left", partial(attach, "left", self.x.ops, lambda m: la.kron(m, ident_y)))])
        return CompletedModule(s, self.group, tuple(ops), None, name=self.name)
