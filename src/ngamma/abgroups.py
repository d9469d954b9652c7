"""Finite abelian groups in coordinate form.

A group is a tuple of coordinate orders d >= 2, one Z/d each; elements are
integer tuples reduced per coordinate.  Every group the engine builds is
finite: the completion of a finite commutative monoid is, and so are Hom,
tensor products, kernels, subquotients and sums of finite groups.  Groups
produced by ``Presentation`` carry SNF-derived coordinates, so their orders
are in divisibility order; ad-hoc products (Hom groups, direct sums) may carry
any orders, and isomorphism tests go through ``invariant_factors``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from math import lcm, prod

from . import intlinalg as la
from .core import Record, SoundnessError, _set


class AbGroup(Record):
    _fields = ("orders",)

    def __init__(self, orders: tuple[int, ...]):
        _set(self, "orders", orders)
        if not all(o >= 2 for o in self.orders):
            raise ValueError(f"coordinate orders must be at least 2, got {self.orders}")

    @property
    def dim(self) -> int:
        return len(self.orders)

    @property
    def rank(self) -> int:
        """The free rank, always 0; read only by ``perfbench/jobs.py::_factors``."""
        return 0

    def is_trivial(self) -> bool:
        return not self.orders

    def order(self) -> int:
        return prod(self.orders)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(v % o for v, o in zip(vec, self.orders))

    def add(self, u, v):
        return self.reduce(x + y for x, y in zip(u, v))

    def is_zero(self, u) -> bool:
        return self.reduce(u) == self.zero()

    def elements(self):
        """All elements, in lexicographic coordinate order."""
        return (tuple(t) for t in product(*[range(o) for o in self.orders]))

    def invariant_factors(self) -> tuple[int, ...]:
        """Canonical invariant factors d_1 | d_2 | ... (>= 2)."""
        return _invariant_factors(self.orders)

    def __str__(self):
        if not self.orders:
            return "0"
        return " x ".join(f"C{d}" for d in self.invariant_factors())


def isomorphic(g: AbGroup, h: AbGroup) -> bool:
    return g.invariant_factors() == h.invariant_factors()


@lru_cache(maxsize=None)
def _invariant_factors(orders: tuple[int, ...]) -> tuple[int, ...]:
    primes: dict[int, list[int]] = {}
    for d in orders:
        for p, e in _factorize(d).items():
            primes.setdefault(p, []).append(e)
    if not primes:
        return ()
    width = max(len(v) for v in primes.values())
    factors = []
    for k in range(width):
        f = 1
        for p, exps in primes.items():
            padded = sorted(exps)
            idx = k - (width - len(exps))
            if idx >= 0:
                f *= p ** padded[idx]
        factors.append(f)
    return tuple(factors)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _check_lengths(vectors, n: int, what: str):
    """ValueError unless every vector has n entries."""
    for v in vectors:
        if len(v) != n:
            raise ValueError(f"{what} has {len(v)} entries, expected {n}")


class Presentation:
    """Z^ngens modulo the lattice spanned by integer relation vectors, which
    must have full rank ngens so that the quotient is finite.

    Keeps the SNF change of basis so that elements can be projected to
    canonical coordinates and canonical basis vectors lifted back to
    representatives in Z^ngens.  ``proj_matrix`` and ``lift_matrix`` hand out
    the stored matrices, not copies: callers only read them.
    """

    def __init__(self, ngens: int, relations: list[list[int]]):
        self.relations = [list(r) for r in relations]
        _check_lengths(self.relations, ngens, "relation")
        r = ([list(c) for c in zip(*self.relations)] if self.relations
             else [[] for _ in range(ngens)])
        sf = la.smith_normal_form(r, ngens, len(self.relations))
        if sf.rank < ngens:
            raise SoundnessError(f"relations of rank {sf.rank} on {ngens} generators "
                                 "present an infinite group")
        kept = [i for i, d in enumerate(sf.diag) if d != 1]
        self.group = AbGroup(tuple(sf.diag[i] for i in kept))
        self._proj = [sf.s[i] for i in kept]
        self._lift = [[sf.sinv[r_][i] for i in kept] for r_ in range(ngens)]

    def project(self, vec) -> tuple[int, ...]:
        return self.group.reduce(la.mat_vec(self._proj, list(vec)))

    def lift(self, coords) -> list[int]:
        return la.mat_vec(self._lift, list(coords))

    def proj_matrix(self) -> list[list[int]]:
        return self._proj

    def lift_matrix(self) -> list[list[int]]:
        return self._lift

    def is_zero(self, vec) -> bool:
        return self.project(vec) == self.group.zero()


def descent_parts(proj_w, lift_src, proj_src):
    """(M, C) for a map W between presentation coordinate spaces, given as
    proj_dst . W: the induced matrix M = proj_dst . W . lift_src and the
    descent obstruction C = proj_dst . W - M . proj_src."""
    mat = la.mat_mul(proj_w, lift_src, len(proj_src))
    back = la.mat_mul(mat, proj_src, len(lift_src))
    return mat, [[x - y for x, y in zip(row, brow)] for row, brow in zip(proj_w, back)]


def induced_on_quotients(src_group: AbGroup, dst_group: AbGroup, mat, obstruction,
                         what: str) -> GroupMap:
    """Quotient map with matrix M induced by a map W on presentation
    coordinate spaces, given by its parts (M, C) (``descent_parts``).

    W descends exactly when C = proj_dst . W - M . proj_src is 0 entrywise
    modulo the target orders (equivalently, W maps the source relation
    lattice into the target's); otherwise SoundnessError is raised.  This is
    the one descent check.
    """
    for row, o in zip(obstruction, dst_group.orders):
        if any(v % o for v in row):
            raise SoundnessError(f"{what} does not descend to the quotient")
    return GroupMap(src_group, dst_group, mat)


def order_lattice_columns(g: AbGroup) -> list[list[int]]:
    cols = []
    for i, o in enumerate(g.orders):
        col = [0] * g.dim
        col[i] = o
        cols.append(col)
    return cols


class GroupMap:
    """Homomorphism between coordinate groups, as an integer matrix."""

    def __init__(self, src: AbGroup, dst: AbGroup, mat, check: bool = True):
        self.src = src
        self.dst = dst
        rows = list(mat)
        width = len(src.orders)
        if len(rows) != len(dst.orders) or any(len(r) != width for r in rows):
            raise ValueError(f"matrix has {len(rows)} rows of lengths "
                             f"{sorted({len(r) for r in rows})}, expected {dst.dim} "
                             f"rows of length {width}")
        self.mat = [[v % o for v in row] for row, o in zip(rows, dst.orders)]
        if check:
            self._check()

    @classmethod
    def _of_reduced(cls, src: AbGroup, dst: AbGroup, rows) -> "GroupMap":
        """The checked map whose matrix is ``rows``, fresh lists of the right
        shape whose entries already lie in 0..o-1 for their row's target
        order o, so they are neither copied nor reduced again.  Only
        ``completion.completion_map`` builds one."""
        gm = cls.__new__(cls)
        gm.src, gm.dst, gm.mat = src, dst, rows
        gm._check()
        return gm

    def _check(self):
        if not self.well_defined():
            raise SoundnessError("matrix does not descend to a homomorphism")

    @cached_property
    def key(self) -> tuple[tuple[int, ...], ...]:
        """The normalized matrix as nested tuples; between the same two groups,
        equal keys mean the same map on coordinates."""
        return tuple(map(tuple, self.mat))

    def well_defined(self) -> bool:
        """Whether every source column is killed by its order: at once when
        every target order divides every source order (o*v = 0 mod od when
        od | o), else cell by cell."""
        step = lcm(*self.dst.orders)
        if not any(o % step for o in self.src.orders):
            return True
        return not any((o * v) % od for row, od in zip(self.mat, self.dst.orders)
                       for v, o in zip(row, self.src.orders))

    def __call__(self, vec) -> tuple[int, ...]:
        return self.dst.reduce(la.mat_vec(self.mat, list(vec)))

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self after other."""
        if other.dst.orders != self.src.orders:
            raise ValueError(f"cannot compose: inner target {other.dst.orders} is not "
                             f"outer source {self.src.orders}")
        return GroupMap(other.src, self.dst,
                        la.mat_mul(self.mat, other.mat, other.src.dim), check=False)

    def add(self, other: "GroupMap") -> "GroupMap":
        if self.src.orders != other.src.orders or self.dst.orders != other.dst.orders:
            raise ValueError(f"cannot add maps {self.src.orders} -> {self.dst.orders} "
                             f"and {other.src.orders} -> {other.dst.orders}")
        m = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.mat, other.mat)]
        return GroupMap(self.src, self.dst, m, check=False)

    def scale(self, c: int) -> "GroupMap":
        return GroupMap(self.src, self.dst,
                        [[c * v for v in row] for row in self.mat], check=False)

    def is_zero(self) -> bool:
        return not any(map(any, self.mat))

    def equal(self, other: "GroupMap") -> bool:
        return (self.src.orders == other.src.orders
                and self.dst.orders == other.dst.orders and self.mat == other.mat)

    @staticmethod
    def identity(g: AbGroup) -> "GroupMap":
        return GroupMap(g, g, la.identity(g.dim), check=False)

    @staticmethod
    def zero(src: AbGroup, dst: AbGroup) -> "GroupMap":
        return GroupMap(src, dst, la.zeros(dst.dim, src.dim), check=False)

    @staticmethod
    def from_images(src: AbGroup, dst: AbGroup, image_of) -> "GroupMap":
        """The map whose column c is ``image_of`` of the c-th basis vector of src."""
        cols = [image_of(tuple(1 if q == c else 0 for q in range(src.dim)))
                for c in range(src.dim)]
        return GroupMap(src, dst, [[col[r] for col in cols] for r in range(dst.dim)],
                        check=False)


class Subgroup:
    """Subgroup of an ambient coordinate group, generated by given elements."""

    def __init__(self, ambient: AbGroup, gens: list):
        self.ambient = ambient
        self.gens = [list(g) for g in gens]
        _check_lengths(self.gens, ambient.dim, "generator")
        k = len(self.gens)
        ocols = order_lattice_columns(ambient)
        t = len(ocols)
        # One factorization of [gens | order columns] serves the relations
        # among the generators and every membership test.
        a = [[(self.gens[j][i] if j < k else ocols[j - k][i])
              for j in range(k + t)] for i in range(ambient.dim)]
        self._system = la.smith_normal_form(a, ambient.dim, k + t, solve=True)
        self.pres = Presentation(k, [b[:k] for b in self._system.kernel_basis()])
        self.group = self.pres.group
        incl_mat = []
        lift = self.pres.lift_matrix()
        for i in range(ambient.dim):
            incl_mat.append([sum(self.gens[j][i] * lift[j][c] for j in range(k))
                             for c in range(self.group.dim)])
        self.inclusion = GroupMap(self.group, ambient, incl_mat, check=False)

    def membership(self, vec):
        """Coordinates of vec in the subgroup, or None if not a member."""
        sol = self._system.solve(list(vec))
        if sol is None:
            return None
        return self.pres.project(sol[:len(self.gens)])

    def contains(self, vec) -> bool:
        return self.membership(vec) is not None


def _solver(f: GroupMap) -> la.SmithForm:
    """The solver form of [f | -target orders]: its integer solutions are
    the solutions of f modulo the target relations, with the relation
    multiples appended.  ``kernel_gens``, ``preimage`` and ``is_exact`` all
    read it, so inside a call's scope each map's system is factored once."""
    ocols = order_lattice_columns(f.dst)
    return la.smith_normal_form(
        [row + [-c[i] for c in ocols] for i, row in enumerate(f.mat)],
        f.dst.dim, f.src.dim + len(ocols), solve=True)


def kernel_gens(f: GroupMap) -> list[list[int]]:
    """Generators of ker f: the source parts of the integer kernel of
    [f | -target orders], reduced in the source."""
    return [list(f.src.reduce(b[:f.src.dim])) for b in _solver(f).kernel_basis()]


def kernel(f: GroupMap) -> Subgroup:
    return Subgroup(f.src, kernel_gens(f))


def preimage(f: GroupMap, target_vec):
    """Some x with f(x) = target, or None."""
    sol = _solver(f).solve(list(target_vec))
    if sol is None:
        return None
    return f.src.reduce(sol[:f.src.dim])


def is_exact(f: GroupMap, g: GroupMap) -> bool:
    """Whether A -f-> B -g-> C is exact at B: g∘f = 0 and each generator v
    of ker g solves [f | -orders of B] x = v, i.e. lies in im f.  The one
    exactness test; raises ValueError when f and g do not compose."""
    if not g.compose(f).is_zero():
        return False
    sf = _solver(f)
    return all(sf.solve(v) is not None for v in kernel_gens(g))


def is_short_exact(f: GroupMap, g: GroupMap) -> bool:
    """Whether 0 -> A -f-> B -g-> C -> 0 is exact: exact at A, B and C."""
    zero = AbGroup(())
    return (is_exact(GroupMap.zero(zero, f.src), f) and is_exact(f, g)
            and is_exact(g, GroupMap.zero(g.dst, zero)))


class Subquotient:
    """P / Q for lattices Q <= P in the ambient coordinate group.

    Both lattices are given by generating vectors; the ambient order lattice
    is always included in both sides.  One Smith normal form S A T = D of the
    numerator generators A gives the numerator basis b_i = d_i S^-1 e_i, and
    since S b_i = d_i e_i, a vector v = sum x_i b_i has x_i = (S v)_i / d_i.
    """

    not_member = "vector is not in the numerator"

    def __init__(self, g: AbGroup, p_gens, q_gens, what: str = "subquotient"):
        self.ambient = g
        gens = [list(v) for v in p_gens] + order_lattice_columns(g)
        _check_lengths(gens, g.dim, "generator")
        a = [[v[i] for v in gens] for i in range(g.dim)]
        self._form = sf = la.smith_normal_form(a, g.dim, len(gens))
        self._bp = [[row[i] * d for i, d in enumerate(sf.diag)] for row in sf.sinv]
        rels = []
        for q in order_lattice_columns(g) + [list(v) for v in q_gens]:
            x = sf.divide(q)
            if x is None:
                raise SoundnessError(f"{what}: denominator not inside numerator")
            rels.append(x)
        self._pres = Presentation(len(sf.diag), rels)
        self.group = self._pres.group

    def classify(self, vec):
        """Class of a vector lying in the numerator lattice."""
        x = self._form.divide(list(vec))
        if x is None:
            raise ValueError(self.not_member)
        return self._pres.project(x)

    def representative(self, cls):
        x = self._pres.lift(cls)
        return self.ambient.reduce(la.mat_vec(self._bp, x))

    def induced(self, gm, dst: "Subquotient") -> GroupMap:
        """The map of classes [v] -> [gm(v)] into ``dst``, for a GroupMap or
        any function on ambient coordinates that is additive on this
        numerator; raises ValueError when gm leaves dst's numerator."""
        return GroupMap.from_images(
            self.group, dst.group,
            lambda basis: dst.classify(gm(self.representative(basis))))


class HomologyNode(Subquotient):
    """ker(out) / im(in) at a group, with class/representative transport;
    ``cycles`` is ker(out) as a ``Subgroup``."""

    not_member = "vector is not a cycle"

    def __init__(self, g: AbGroup, out_map: GroupMap, in_map: GroupMap):
        if out_map.src.orders != g.orders or in_map.dst.orders != g.orders:
            raise ValueError(f"differentials {in_map.dst.orders} -> {g.orders} -> "
                             f"{out_map.src.orders} do not meet at the group")
        if not out_map.compose(in_map).is_zero():
            raise SoundnessError("composite of consecutive differentials is nonzero")
        self.cycles = ker = kernel(out_map)
        plat = [list(ker.inclusion(e_i)) for e_i in la.identity(ker.group.dim)]
        qcols = [[in_map.mat[i][j] for i in range(g.dim)]
                 for j in range(in_map.src.dim)]
        super().__init__(g, plat, qcols, what="homology")


def direct_sum(groups: list[AbGroup]):
    """(G, inclusions, projections) of a finite direct sum."""
    orders = tuple(o for g in groups for o in g.orders)
    total = AbGroup(orders)
    incls = []
    projs = []
    offset = 0
    for g in groups:
        inc = la.zeros(total.dim, g.dim)
        prj = la.zeros(g.dim, total.dim)
        for i in range(g.dim):
            inc[offset + i][i] = 1
            prj[i][offset + i] = 1
        incls.append(GroupMap(g, total, inc, check=False))
        projs.append(GroupMap(total, g, prj, check=False))
        offset += g.dim
    return total, incls, projs
