"""Group completion and the integer-linear layer above it.

Finite additive monoids complete to finite abelian groups; module actions
descend to families of commuting endomorphisms indexed by slot and by one
carrier/parameter filler tuple.  Equivariant Hom groups and balanced tensor
groups are then explicit kernel and cokernel computations over the integers,
canonicalized through Smith normal form.  Within one derived call each
monoid is completed once and each module linearized once, in the call's
scope (``intlinalg.shares_factorizations``).  There every operator family
handed out (``linearize_module``, ``TensorGroup.as_module``,
``homology.DerivedResult.modules``) is the first one equal to it by value,
so module identity stands for module value, and the tensor groups and Hom
groups of one pair of families share one presentation or kernel.  Nothing
is kept across calls.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from operator import add

from . import intlinalg as la
from .abgroups import (
    AbGroup, GroupMap, Presentation, descent_parts, induced_on_quotients, kernel,
)
from .core import (
    FiniteAddMonoid, NaryGammaSemiring, Record, SoundnessError, StructuralError, _set,
)
from .modules import (
    BiGammaModule, ModuleMorphism, check_slots, filler_tuples, map_columns, residual_slots,
    same_module,
)


class Completion(Record):
    """The completion of a monoid: the group, each element's vector, and
    ``lifts[c]``, the (element, coefficient) pairs of a formal sum of
    elements whose vector is the c-th basis vector of the group.  The
    presentation and the lifts follow from the rest and are not compared."""

    _fields = ("monoid", "group", "vectors")

    def __init__(self, monoid: FiniteAddMonoid, group: AbGroup,
                 vectors: tuple[tuple[int, ...], ...], pres: Presentation,
                 lifts: tuple[tuple[tuple[int, int], ...], ...]):
        _set(self, "monoid", monoid)
        _set(self, "group", group)
        _set(self, "vectors", vectors)
        _set(self, "pres", pres)
        _set(self, "lifts", lifts)


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


class CompletedModule(Record):
    """A completed module: finite abelian group plus per-slot operators.
    The completion it came from, if any, is not compared."""

    _fields = ("semiring", "group", "ops", "name")

    def __init__(self, semiring: NaryGammaSemiring, group: AbGroup,
                 ops: tuple[tuple[GroupMap, ...], ...], completion: Completion | None = None,
                 name: str = ""):
        _set(self, "semiring", semiring)
        _set(self, "group", group)
        _set(self, "ops", ops)
        _set(self, "completion", completion)
        _set(self, "name", name)

    def op(self, slot: int, w: int) -> GroupMap:
        return self.ops[slot][w]


def _in_scope(key, build):
    """What the call's scope keeps under key, built by ``build()`` the first
    time; outside a scope, built afresh."""
    memo = la.open_memo()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _canonical_family(s: NaryGammaSemiring, group: AbGroup, ops):
    """The first operator family over s and group in the call's scope that
    equals ops by value, else ops, which becomes it; outside a scope, ops.

    The value is s (by identity), the group's orders and, per slot, which
    fillers share an operator object and each distinct object's key, so a
    key is read once per object.  It is compared once, when a family is
    built; later lookups key on ``id(ops)``.
    """
    if la.open_memo() is None:
        return ops
    value = [id(s), group.orders]
    for slot in ops:
        first = {}
        value += [tuple(first.setdefault(op, len(first)) for op in slot),
                  tuple(op.key for op in first)]
    return _in_scope(("operator family", *value), lambda: (s, ops))[1]


def linearize_module(b: BiGammaModule) -> CompletedModule:
    """Completion of the carrier with each slot action linearized.

    ``ops[j][w]`` is the completion of slot j's column for filler w
    (``BiGammaModule.actions``); each distinct column is linearized once.
    Inside a derived call the work goes into the call's scope
    (``intlinalg.open_memo``): each monoid is completed once, a module
    equal to one linearized before (``modules.same_module``, tried by
    identity first) gets that linearization back under its own name, and
    the operators are the scope's family of their value
    (``_canonical_family``).  Outside one nothing is shared.
    """
    memo = la.open_memo()
    if memo is None:
        memo = {}
    done = memo.setdefault("linearized", [])
    twin = next((lin for a, lin in done if a is b), None)
    if twin is None:
        twin = next((lin for a, lin in done if same_module(a, b)), None)
    if twin is None:
        comp = _in_scope(("completion", b.M), partial(group_complete, b.M))
        ops = map_columns(lambda col: completion_map(comp, comp, col),
                          [b.actions(j) for j in range(b.parent.n)])
        lin = CompletedModule(
            b.parent, comp.group,
            _canonical_family(b.parent, comp.group, tuple(map(tuple, ops))), comp,
            name=b.name)
    else:
        lin = CompletedModule(twin.semiring, twin.group, twin.ops, twin.completion,
                              name=b.name)
    done.append((b, lin))
    return lin


def linearize_over(s: NaryGammaSemiring, mods) -> list[CompletedModule]:
    """The modules of one derived call over s, each linearized; a
    CompletedModule passes through.

    A module (BiGammaModule or CompletedModule) over another semiring is
    refused with a StructuralError before anything is linearized.
    """
    for b in mods:
        if (b.semiring if isinstance(b, CompletedModule) else b.parent) != s:
            raise StructuralError(f"module '{b.name}' does not live over {s.name}")
    return [b if isinstance(b, CompletedModule) else linearize_module(b) for b in mods]


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
        # Hom(Z/a, Z/b) is Z/g for g = gcd(a, b), generated by 1 -> b/g.
        self.coords = [(i, j, g, b // g) for i, a in enumerate(src.orders)
                       for j, b in enumerate(dst.orders) if (g := gcd(a, b)) > 1]
        self.group = AbGroup(tuple(c[2] for c in self.coords))

    def matrix_of(self, cvec) -> list[list[int]]:
        f = la.zeros(self.dst.dim, self.src.dim)
        for c, (i, j, order, mult) in zip(cvec, self.coords):
            f[j][i] += c * mult
        return f

    def coords_of(self, mat):
        out = []
        for (i, j, _, mult) in self.coords:
            entry = mat[j][i] % self.dst.orders[j]
            if entry % mult:
                return None
            out.append(entry // mult)
        cand = self.group.reduce(out)
        got = self.matrix_of(cand)
        for j, b in enumerate(self.dst.orders):
            for i in range(self.src.dim):
                if (got[j][i] - mat[j][i]) % b:
                    return None
        return cand


class EquivariantHom:
    """Additive maps commuting with every positional operator, as a functor:
    ``induced`` composes on one side, and ``coords`` reads a map's
    coordinates and refuses one that is not equivariant.

    In a call's scope the Hom groups of two operator families share one
    ``HomBase`` and one kernel; the scope's entry holds the semiring and
    both families, so that their ids name them while it lives.
    """

    def __init__(self, x: CompletedModule, y: CompletedModule):
        if x.semiring != y.semiring:
            raise StructuralError("Hom endpoints live over different semirings")
        self.x = x
        self.y = y
        _, self.base, self._kernel = _in_scope(
            ("equivariant hom", id(x.semiring), id(x.ops), id(y.ops)),
            lambda: ((x.semiring, x.ops, y.ops), *self._solve()))
        self.group = self._kernel.group

    def _solve(self):
        """This Hom group's base and its kernel of equivariance."""
        x, y = self.x, self.y
        base = HomBase(x.group, y.group)
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
                    for (i0, j0, order, mult) in base.coords:
                        coeff = 0
                        if j0 == jj:
                            coeff += mult * p[i0][aa]
                        if i0 == aa:
                            coeff -= q[jj][j0] * mult
                        row.append(coeff)
                    rows.append(row)
                    orders.append(y.group.orders[jj])
        return base, kernel(GroupMap(base.group, AbGroup(tuple(orders)), rows))

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

    def induced(self, dst: "EquivariantHom", side: str, gm: GroupMap, *,
                what: str) -> GroupMap:
        """f -> f . gm (side "pre", gm mapping dst's source into this source)
        or f -> gm . f ("post", gm mapping this target into dst's target)
        from this Hom group into dst.

        Any other side raises ValueError.  Raises SoundnessError naming
        ``what`` when an image is not equivariant.
        """
        if side not in ("pre", "post"):
            raise ValueError(f"side {side!r}, expected 'pre' or 'post'")

        def image_of(basis):
            f = self.matrix(basis)
            return dst.coords(f.compose(gm) if side == "pre" else gm.compose(f), what)

        return GroupMap.from_images(self.group, dst.group, image_of)


# ---------------------------------------------------------------------------
# Balanced tensor groups
# ---------------------------------------------------------------------------

class _SharedTensor:
    """What the tensor groups of two operator families at one slot pair
    share: the presentation and the residual operators once worked out.
    ``held`` is the semiring and both families, so that their ids name them
    while a call's scope keeps this."""

    def __init__(self, held: tuple, pres: Presentation):
        self.held = held
        self.pres = pres
        self.ops: tuple | None = None


class TensorGroup:
    """K(X) (x) K(Y) modulo slot-(j,k) balancing, with residual operators.

    The pair space has coordinate i*dim(Y) + j for the pair (i, j).  A map
    acts on one factor at a time, mat (x) I on the left one or I (x) mat on
    the right one, and the pair-space product is contracted through mat
    alone (``intlinalg.mul_kron_identity``); no Kronecker matrix is built.

    In a call's scope the tensor groups of two operator families at one slot
    pair share one ``_SharedTensor``: one presentation and one set of
    residual operators.  Each keeps its own factors and name.
    """

    def __init__(self, x: CompletedModule, y: CompletedModule, j: int, k: int):
        if x.semiring != y.semiring:
            raise StructuralError("tensor factors live over different semirings")
        check_slots(x.semiring, j, k)
        self.x = x
        self.y = y
        self.pair_dim = x.group.dim * y.group.dim
        self.name = f"{x.name}(x){y.name}"
        self._shared = _in_scope(
            ("tensor group", id(x.semiring), id(x.ops), id(y.ops), j, k),
            lambda: _SharedTensor((x.semiring, x.ops, y.ops), self._present(j, k)))
        self.pres = self._shared.pres
        self.group = self.pres.group

    def _present(self, j: int, k: int) -> Presentation:
        """The pair space modulo the factors' orders and slot-(j,k)
        balancing."""
        x, y = self.x, self.y
        xs, ys = x.group.dim, y.group.dim
        rels = []
        for i, a in enumerate(x.group.orders):
            for j2, b in enumerate(y.group.orders):
                idx = i * ys + j2
                for o in (a, b):
                    r = [0] * self.pair_dim
                    r[idx] = o
                    rels.append(r)
        for p, q in dict.fromkeys((p.key, q.key)
                                  for p, q in dict.fromkeys(zip(x.ops[j], y.ops[k]))):
            # The relation of the pair (i0, j0), column i0*ys + j0 of
            # P (x) I - I (x) Q, balances P acting on the left factor against
            # Q on the right.
            for i0 in range(xs):
                for j0 in range(ys):
                    r = [0] * self.pair_dim
                    for i in range(xs):
                        r[i * ys + j0] += p[i][i0]
                    for j2 in range(ys):
                        r[i0 * ys + j2] -= q[j2][j0]
                    rels.append(r)
        return Presentation(self.pair_dim, rels)

    def _parts(self, side: str, mat, proj_dst):
        """``descent_parts`` of mat (x) I (side "left") or I (x) mat ("right")
        on this pair space, given the target's projection."""
        xs, ys = self.x.group.dim, self.y.group.dim
        acols, k = (xs, ys) if side == "left" else (ys, xs)
        return descent_parts(la.mul_kron_identity(proj_dst, side, mat, acols, k),
                             self.pres.lift_matrix(), self.pres.proj_matrix())

    def pair_matrix_to_quotient(self, side: str, mat) -> GroupMap | None:
        """The residual of I (x) mat (side "right", mat an endomorphism of
        the right factor) or mat (x) I ("left"); None when it does not
        descend.  Raises ValueError on any other side or when mat is not
        square of that factor's dimension."""
        try:
            return induced_on_quotients(self.group, self.group,
                                        *self._parts(side, mat, self.pres.proj_matrix()),
                                        "pair matrix")
        except SoundnessError:
            return None

    def induced(self, dst: "TensorGroup", side: str, gm: GroupMap, *, what: str) -> GroupMap:
        """gm (x) I (side "left", gm a map of left factors) or I (x) gm
        ("right") from this tensor group into dst.  Raises SoundnessError
        when the map does not descend to the balanced quotients."""
        mat, obstruction = self._parts(side, gm.mat, dst.pres.proj_matrix())
        return induced_on_quotients(self.group, dst.group, mat, obstruction, what)

    def as_module(self) -> CompletedModule:
        """Attach residual operators, each slot through the right factor when
        all its operators descend there, else the left (``residual_slots``).
        Each distinct operator of a side is projected once
        (``pair_matrix_to_quotient``), and the operators are worked out once
        per shared tensor group, as the scope's family of their value
        (``_canonical_family``)."""
        s, shared = self.x.semiring, self._shared
        if shared.ops is None:
            shared.ops = _canonical_family(s, self.group, self._residual_ops())
        return CompletedModule(s, self.group, shared.ops, None, name=self.name)

    def _residual_ops(self):
        """The residual operators ``as_module`` attaches, by slot."""
        s = self.x.semiring
        projected = {}

        def attach(side, ops, slot):
            by_op = dict.fromkeys(ops[slot])
            for op in by_op:
                key = side, op.key
                if key not in projected:
                    projected[key] = self.pair_matrix_to_quotient(side, op.mat)
                by_op[op] = projected[key]
                if by_op[op] is None:
                    tother, gs = filler_tuples(s)[ops[slot].index(op)]
                    raise SoundnessError(f"the operator with carriers {tother} and "
                                         f"parameters {gs} does not descend")
            return tuple(map(by_op.__getitem__, ops[slot]))

        return tuple(residual_slots(s.n, [("right", partial(attach, "right", self.y.ops)),
                                          ("left", partial(attach, "left", self.x.ops))]))
