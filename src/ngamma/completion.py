"""Group completion and the integer-linear layer above it.

Finite additive monoids complete to finite abelian groups; module actions
descend to families of commuting endomorphisms indexed by slot and by one
carrier/parameter filler tuple.  Equivariant Hom groups and balanced tensor
groups are then explicit kernel and cokernel computations over the integers,
canonicalized through Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import intlinalg as la
from .abgroups import (
    AbGroup, GroupMap, Presentation, SoundnessError, induced_on_quotients, kernel,
)
from .core import FiniteAddMonoid, NaryGammaSemiring, StructuralError
from .modules import BiGammaModule, ModuleMorphism


@dataclass(frozen=True)
class Completion:
    monoid: FiniteAddMonoid
    group: AbGroup
    vectors: tuple[tuple[int, ...], ...]
    pres: Presentation = field(compare=False, repr=False)

    def vector(self, m: int) -> tuple[int, ...]:
        return self.vectors[m]


def group_complete(monoid: FiniteAddMonoid) -> Completion:
    """Universal enveloping abelian group of a finite commutative monoid.

    Presented on one generator per element with a relation per table entry,
    so the completion map is just generator projection.
    """
    size = monoid.size
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
    vectors = []
    for m in range(size):
        e = [0] * size
        e[m] = 1
        vectors.append(pres.project(e))
    return Completion(monoid, pres.group, tuple(vectors), pres)


def completion_map(src: Completion, dst: Completion, elem_map) -> GroupMap:
    """Induced map on completions of an additive element map."""
    def image_of(basis):
        img = [0] * dst.group.dim
        for m, coeff in enumerate(src.pres.lift(basis)):
            if coeff:
                target = dst.vector(elem_map(m) if callable(elem_map) else elem_map[m])
                img = [x + coeff * y for x, y in zip(img, target)]
        return img

    return GroupMap.from_images(src.group, dst.group, image_of, check=True)


def filler_tuples(s: NaryGammaSemiring) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (carrier fillers, parameter tuple) pairs, in table order."""
    return [(t, g) for t in s.t_tuples(s.n - 1) for g in s.g_tuples(s.n - 1)]


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


def linearize_module(b: BiGammaModule, name: str = "") -> CompletedModule:
    """Completion of the carrier with each slot action linearized."""
    comp = group_complete(b.M)
    ws = filler_tuples(b.parent)
    ops = []
    for j in range(b.parent.n):
        slot_ops = []
        for (tf, gf) in ws:
            slot_ops.append(completion_map(comp, comp,
                                           lambda m, j=j, tf=tf, gf=gf: b.act(j, tf, m, gf)))
        ops.append(tuple(slot_ops))
    return CompletedModule(b.parent, comp.group, tuple(ops), comp,
                           name=name or b.name)


def linearize_morphism(f: ModuleMorphism, src: CompletedModule,
                       dst: CompletedModule) -> GroupMap:
    if src.completion is None or dst.completion is None:
        raise StructuralError("linearizing a morphism needs both completions")
    return completion_map(src.completion, dst.completion, f.map)


def zero_completed(s: NaryGammaSemiring, name: str = "0") -> CompletedModule:
    g = AbGroup(())
    ws = filler_tuples(s)
    ops = tuple(tuple(GroupMap.zero(g, g) for _ in ws) for _ in range(s.n))
    return CompletedModule(s, g, ops, None, name=name)


def direct_sum_completed(mods: list[CompletedModule], name: str = "") -> CompletedModule:
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
                           name=name or "(+)".join(m.name for m in mods))


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
    """Additive maps commuting with every positional operator."""

    def __init__(self, x: CompletedModule, y: CompletedModule):
        if x.semiring != y.semiring:
            raise StructuralError("Hom endpoints live over different semirings")
        self.x = x
        self.y = y
        self.base = HomBase(x.group, y.group)
        constraints = []
        for slot in range(x.semiring.n):
            for w in range(len(x.ops[slot])):
                constraints.append((x.op(slot, w).mat, y.op(slot, w).mat))
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
        cgroup = AbGroup(tuple(orders))
        lmap = GroupMap(self.base.group, cgroup, rows) if rows else \
            GroupMap.zero(self.base.group, AbGroup(()))
        self._kernel = kernel(lmap)
        self.group = self._kernel.group

    def matrix(self, coords) -> GroupMap:
        cvec = self._kernel.inclusion(coords)
        return GroupMap(self.x.group, self.y.group,
                        self.base.matrix_of(cvec), check=False)

    def coords(self, gm: GroupMap):
        cvec = self.base.coords_of(gm.mat)
        if cvec is None:
            return None
        return self._kernel.membership(cvec)

    def elements(self):
        for coords in self.group.elements():
            yield coords, self.matrix(coords)

    def precompose(self, g: GroupMap, dst: "EquivariantHom", what: str) -> GroupMap:
        """f -> f . g from this Hom group into ``dst``, whose source is g's."""
        def image_of(basis):
            f = self.matrix(basis)
            coords = dst.coords(GroupMap(g.src, f.dst, la.mat_mul(f.mat, g.mat, f.src.dim),
                                         check=False))
            if coords is None:
                raise SoundnessError(f"{what} left the equivariant maps")
            return coords

        return GroupMap.from_images(self.group, dst.group, image_of)


# ---------------------------------------------------------------------------
# Balanced tensor groups
# ---------------------------------------------------------------------------

class TensorGroup:
    """K(X) (x) K(Y) modulo slot-(j,k) balancing, with residual operators."""

    def __init__(self, x: CompletedModule, y: CompletedModule, j: int, k: int,
                 name: str = ""):
        if x.semiring != y.semiring:
            raise StructuralError("tensor factors live over different semirings")
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
        for w in range(len(filler_tuples(x.semiring))):
            # Column i0*ys + j0 of kron(P, I) - kron(I, Q) balances the pair
            # (i0, j0): P acting on the left factor against Q on the right.
            via_x = la.kron(x.op(j, w).mat, xs, xs, ident_y, ys, ys)
            via_y = la.kron(ident_x, xs, xs, y.op(k, w).mat, ys, ys)
            rels.extend([a - b for a, b in zip(col_x, col_y)]
                        for col_x, col_y in zip(zip(*via_x), zip(*via_y)))
        self.pres = Presentation(self.pair_dim, rels)
        self.group = self.pres.group
        self.name = name or f"{x.name}(x){y.name}"

    def pair(self, xvec, yvec) -> tuple[int, ...]:
        ys = self.y.group.dim
        v = [0] * self.pair_dim
        for i, a in enumerate(xvec):
            if a:
                for j2, b in enumerate(yvec):
                    if b:
                        v[i * ys + j2] += a * b
        return self.pres.project(v)

    def pair_matrix_to_quotient(self, pairmat) -> GroupMap | None:
        """Project a pair-space endomorphism; None when it does not descend."""
        lift, proj = self.pres.lift_matrix(), self.pres.proj_matrix()
        try:
            return induced_on_quotients(proj, self.group, pairmat, lift, proj,
                                        self.group, "pair matrix")
        except SoundnessError:
            return None

    def induced(self, dst: "TensorGroup", left: GroupMap | None = None,
                right: GroupMap | None = None, *, what: str) -> GroupMap:
        """left (x) right from this tensor group into dst; None is the identity.

        Raises SoundnessError when the map does not descend to the balanced
        quotients.
        """
        xs, ys = self.x.group.dim, self.y.group.dim
        pairmat = la.kron(left.mat if left else la.identity(xs), dst.x.group.dim, xs,
                          right.mat if right else la.identity(ys), dst.y.group.dim, ys)
        return induced_on_quotients(dst.pres.proj_matrix(), dst.group, pairmat,
                                    self.pres.lift_matrix(), self.pres.proj_matrix(),
                                    self.group, what)

    def as_module(self) -> CompletedModule:
        """Attach residual operators, preferring the right factor."""
        s = self.x.semiring
        xs, ys = self.x.group.dim, self.y.group.dim
        ident_x, ident_y = la.identity(xs), la.identity(ys)
        nw = len(filler_tuples(s))
        ops = []
        for slot in range(s.n):
            slot_ops = []
            for w in range(nw):
                mat = self.pair_matrix_to_quotient(
                    la.kron(ident_x, xs, xs, self.y.op(slot, w).mat, ys, ys))
                if mat is None:
                    mat = self.pair_matrix_to_quotient(
                        la.kron(self.x.op(slot, w).mat, xs, xs, ident_y, ys, ys))
                if mat is None:
                    raise SoundnessError(
                        f"no residual operator descends at slot {slot + 1}")
                slot_ops.append(mat)
            ops.append(tuple(slot_ops))
        return CompletedModule(s, self.group, tuple(ops), None, name=self.name)
