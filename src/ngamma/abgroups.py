"""Finitely generated abelian groups in coordinate form.

A group is a tuple of coordinate orders (0 for a free coordinate, d >= 2 for
Z/d); elements are integer tuples reduced per coordinate.  Groups produced by
``Presentation`` carry SNF-derived coordinates, so their torsion orders are in
divisibility order; ad-hoc products (Hom groups, direct sums) may carry any
orders, and isomorphism tests go through ``invariant_factors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

from . import intlinalg as la


class SoundnessError(RuntimeError):
    """An internal algebraic consistency check failed.

    Raised when a construction that is supposed to be forced by the axioms of
    the input (a map descending to a quotient, d*d = 0, an anticommuting
    grid) does not hold for the instance at hand.
    """


@dataclass(frozen=True)
class AbGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        assert all(o == 0 or o >= 2 for o in self.orders)

    @property
    def dim(self) -> int:
        return len(self.orders)

    @property
    def rank(self) -> int:
        return sum(1 for o in self.orders if o == 0)

    def is_trivial(self) -> bool:
        return not self.orders

    def order(self) -> int:
        """Number of elements; 0 encodes infinite."""
        if self.rank:
            return 0
        return prod(self.orders) if self.orders else 1

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(v % o if o else v for v, o in zip(vec, self.orders))

    def add(self, u, v):
        return self.reduce(x + y for x, y in zip(u, v))

    def is_zero(self, u) -> bool:
        return self.reduce(u) == self.zero()

    def elements(self):
        """All elements of a finite group, in lexicographic coordinate order."""
        if self.rank:
            raise ValueError("cannot enumerate an infinite group")
        return (tuple(t) for t in product(*[range(o) for o in self.orders]))

    def invariant_factors(self) -> tuple[int, ...]:
        """Canonical invariant factors d_1 | d_2 | ... (>= 2), torsion only."""
        return _invariant_factors(tuple(o for o in self.orders if o))

    def __str__(self):
        if not self.orders:
            return "0"
        parts = [f"C{d}" for d in self.invariant_factors()]
        parts += ["Z"] * self.rank
        return " x ".join(parts)


def isomorphic(g: AbGroup, h: AbGroup) -> bool:
    return g.rank == h.rank and g.invariant_factors() == h.invariant_factors()


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
            padded = sorted(exps) + []
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


class Presentation:
    """Z^ngens modulo the lattice spanned by integer relation vectors.

    Keeps the SNF change of basis so that elements can be projected to
    canonical coordinates and canonical basis vectors lifted back to
    representatives in Z^ngens.
    """

    def __init__(self, ngens: int, relations: list[list[int]]):
        self.ngens = ngens
        self.relations = [list(r) for r in relations]
        r = [[rel[i] for rel in self.relations] for i in range(ngens)]
        sf = la.smith_normal_form(r, ngens, max(len(self.relations), 0))
        kept = []
        orders = []
        for i in range(ngens):
            d = sf.d[i][i] if i < min(ngens, sf.ncols) else 0
            if d == 1:
                continue
            kept.append(i)
            orders.append(d)
        self.group = AbGroup(tuple(orders))
        self._proj = [sf.s[i] for i in kept]
        self._lift = [[sf.sinv[r_][i] for i in kept] for r_ in range(ngens)]

    def project(self, vec) -> tuple[int, ...]:
        return self.group.reduce(la.mat_vec(self._proj, list(vec)))

    def lift(self, coords) -> list[int]:
        return la.mat_vec(self._lift, list(coords))

    def proj_matrix(self) -> list[list[int]]:
        return la.copy_matrix(self._proj)

    def lift_matrix(self) -> list[list[int]]:
        return la.copy_matrix(self._lift)

    def is_zero(self, vec) -> bool:
        return self.project(vec) == self.group.zero()


def induced_on_quotients(proj_dst, dst_group: AbGroup, wmat,
                         lift_src, proj_src, src_group: AbGroup,
                         what: str) -> GroupMap:
    """Quotient map induced by a map W on presentation coordinate spaces.

    The induced matrix is M = proj_dst . W . lift_src.  W descends exactly
    when proj_dst . W = M . proj_src entrywise modulo the target orders
    (equivalently, W maps the source relation lattice into the target's);
    otherwise SoundnessError is raised.  This is the one descent check.
    """
    wdim_src = len(lift_src)
    wdim_dst = len(wmat)
    if wdim_dst and wdim_src:
        lifted = la.mat_mul(wmat, lift_src, wdim_src)
        mat = la.mat_mul(proj_dst, lifted, wdim_dst)
    else:
        mat = la.zeros(dst_group.dim, src_group.dim)
    if wdim_dst:
        left = la.mat_mul(proj_dst, wmat, wdim_dst)
    else:
        left = la.zeros(dst_group.dim, wdim_src)
    right = la.mat_mul(mat, proj_src, src_group.dim)
    for i in range(dst_group.dim):
        o = dst_group.orders[i]
        for jj in range(wdim_src):
            x, y = left[i][jj], right[i][jj]
            if (x - y) % o if o else (x - y):
                raise SoundnessError(f"{what} does not descend to the quotient")
    return GroupMap(src_group, dst_group, mat)


def order_lattice_columns(g: AbGroup) -> list[list[int]]:
    cols = []
    for i, o in enumerate(g.orders):
        if o:
            col = [0] * g.dim
            col[i] = o
            cols.append(col)
    return cols


class GroupMap:
    """Homomorphism between coordinate groups, as an integer matrix."""

    def __init__(self, src: AbGroup, dst: AbGroup, mat, check: bool = True):
        self.src = src
        self.dst = dst
        rows = [list(r) for r in mat]
        assert len(rows) == dst.dim and all(len(r) == src.dim for r in rows)
        norm = []
        for i in range(dst.dim):
            o = dst.orders[i]
            norm.append([rows[i][j] % o if o else rows[i][j] for j in range(src.dim)])
        self.mat = norm
        if check and not self.well_defined():
            raise SoundnessError("matrix does not descend to a homomorphism")

    def well_defined(self) -> bool:
        for j, o in enumerate(self.src.orders):
            if o == 0:
                continue
            for i, od in enumerate(self.dst.orders):
                v = o * self.mat[i][j]
                if (v % od) if od else v:
                    return False
        return True

    def __call__(self, vec) -> tuple[int, ...]:
        return self.dst.reduce(la.mat_vec(self.mat, list(vec)))

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self after other."""
        assert other.dst.orders == self.src.orders
        return GroupMap(other.src, self.dst,
                        la.mat_mul(self.mat, other.mat, self.src.dim), check=False)

    def add(self, other: "GroupMap") -> "GroupMap":
        assert self.src is other.src or self.src.orders == other.src.orders
        m = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.mat, other.mat)]
        return GroupMap(self.src, self.dst, m, check=False)

    def scale(self, c: int) -> "GroupMap":
        return GroupMap(self.src, self.dst,
                        [[c * v for v in row] for row in self.mat], check=False)

    def is_zero(self) -> bool:
        z = self.dst.zero()
        for j in range(self.src.dim):
            if self.dst.reduce([self.mat[i][j] for i in range(self.dst.dim)]) != z:
                return False
        return True

    def equal(self, other: "GroupMap") -> bool:
        if self.src.orders != other.src.orders or self.dst.orders != other.dst.orders:
            return False
        for j in range(self.src.dim):
            a = self.dst.reduce([self.mat[i][j] for i in range(self.dst.dim)])
            b = self.dst.reduce([other.mat[i][j] for i in range(other.dst.dim)])
            if a != b:
                return False
        return True

    @staticmethod
    def identity(g: AbGroup) -> "GroupMap":
        return GroupMap(g, g, la.identity(g.dim), check=False)

    @staticmethod
    def zero(src: AbGroup, dst: AbGroup) -> "GroupMap":
        return GroupMap(src, dst, la.zeros(dst.dim, src.dim), check=False)

    @staticmethod
    def from_images(src: AbGroup, dst: AbGroup, image_of,
                    check: bool = False) -> "GroupMap":
        """The map whose column c is ``image_of`` of the c-th basis vector of src."""
        cols = [image_of(tuple(1 if q == c else 0 for q in range(src.dim)))
                for c in range(src.dim)]
        return GroupMap(src, dst, [[col[r] for col in cols] for r in range(dst.dim)],
                        check=check)


class Subgroup:
    """Subgroup of an ambient coordinate group, generated by given elements."""

    def __init__(self, ambient: AbGroup, gens: list):
        self.ambient = ambient
        self.gens = [list(g) for g in gens]
        k = len(self.gens)
        ocols = order_lattice_columns(ambient)
        t = len(ocols)
        if ambient.dim == 0:
            # Everything collapses: each generator is itself a relation.
            self.pres = Presentation(k, la.identity(k) if k else [])
        else:
            a = [[(self.gens[j][i] if j < k else ocols[j - k][i])
                  for j in range(k + t)] for i in range(ambient.dim)]
            basis = la.kernel_basis(a, ambient.dim, k + t)
            rels = [[b[i] for i in range(k)] for b in basis]
            self.pres = Presentation(k, rels)
        self.group = self.pres.group
        incl_mat = []
        lift = self.pres.lift_matrix()
        for i in range(ambient.dim):
            incl_mat.append([sum(self.gens[j][i] * lift[j][c] for j in range(k))
                             for c in range(self.group.dim)])
        self.inclusion = GroupMap(self.group, ambient, incl_mat, check=False)

    def membership(self, vec):
        """Coordinates of vec in the subgroup, or None if not a member."""
        k = len(self.gens)
        ocols = order_lattice_columns(self.ambient)
        t = len(ocols)
        if self.ambient.dim == 0:
            return self.group.zero()
        a = [[(self.gens[j][i] if j < k else ocols[j - k][i])
              for j in range(k + t)] for i in range(self.ambient.dim)]
        sol = la.solve(a, list(vec), self.ambient.dim, k + t)
        if sol is None:
            return None
        return self.pres.project(sol[:k])

    def contains(self, vec) -> bool:
        return self.membership(vec) is not None

    def same_as(self, other: "Subgroup") -> bool:
        assert self.ambient.orders == other.ambient.orders
        return (all(other.contains(g) for g in self.gens)
                and all(self.contains(g) for g in other.gens))


def quotient(ambient: AbGroup, gens: list):
    """(Q, proj) with Q = ambient / <gens>."""
    rels = order_lattice_columns(ambient) + [list(g) for g in gens]
    pres = Presentation(ambient.dim, rels)
    proj = GroupMap(ambient, pres.group, pres.proj_matrix(), check=False)
    return pres.group, proj, pres


def kernel(f: GroupMap) -> Subgroup:
    s = f.src.dim
    ocols = order_lattice_columns(f.dst)
    t = len(ocols)
    if f.dst.dim == 0:
        return Subgroup(f.src, la.identity(s) if s else [])
    a = [[(f.mat[i][j] if j < s else -ocols[j - s][i]) for j in range(s + t)]
         for i in range(f.dst.dim)]
    basis = la.kernel_basis(a, f.dst.dim, s + t)
    gens = [f.src.reduce(b[:s]) for b in basis]
    return Subgroup(f.src, [list(g) for g in gens])


def image(f: GroupMap) -> Subgroup:
    cols = [[f.mat[i][j] for i in range(f.dst.dim)] for j in range(f.src.dim)]
    return Subgroup(f.dst, cols)


class Subquotient:
    """P / Q for lattices Q <= P in the ambient coordinate group.

    Both lattices are given by generating vectors; the ambient order lattice
    is always included in both sides.
    """

    def __init__(self, g: AbGroup, p_gens, q_gens, what: str = "subquotient"):
        self.ambient = g
        gens = [list(v) for v in p_gens] + order_lattice_columns(g)
        self._pbasis = la.lattice_basis(gens, g.dim)
        p = len(self._pbasis)
        qcols = order_lattice_columns(g) + [list(v) for v in q_gens]
        if p:
            bp = [[self._pbasis[j][i] for j in range(p)] for i in range(g.dim)]
            rels = []
            for q in qcols:
                x = la.solve(bp, list(q), g.dim, p)
                if x is None:
                    raise SoundnessError(f"{what}: denominator not inside numerator")
                rels.append(x)
            self._pres = Presentation(p, rels)
            self._bp = bp
        else:
            if any(any(v % o if o else v for v, o in zip(q, g.orders))
                   for q in q_gens):
                raise SoundnessError(f"{what}: denominator not inside numerator")
            self._pres = Presentation(0, [])
            self._bp = [[] for _ in range(g.dim)]
        self.group = self._pres.group

    def classify(self, vec):
        """Class of a vector lying in the numerator lattice."""
        p = len(self._pbasis)
        if p == 0:
            return self.group.zero()
        x = la.solve(self._bp, list(vec), self.ambient.dim, p)
        if x is None:
            raise ValueError("vector is not in the numerator")
        return self._pres.project(x)

    def representative(self, cls):
        p = len(self._pbasis)
        if p == 0:
            return self.ambient.zero()
        x = self._pres.lift(cls)
        return self.ambient.reduce(la.mat_vec(self._bp, x))


class HomologyNode(Subquotient):
    """ker(out) / im(in) at a group, with class/representative transport."""

    def __init__(self, g: AbGroup, out_map: GroupMap, in_map: GroupMap):
        assert out_map.src.orders == g.orders and in_map.dst.orders == g.orders
        if not out_map.compose(in_map).is_zero():
            raise SoundnessError("composite of consecutive differentials is nonzero")
        ker = kernel(out_map)
        plat = [list(ker.inclusion(e_i)) for e_i in la.identity(ker.group.dim)] \
            if ker.group.dim else []
        qcols = [[in_map.mat[i][j] for i in range(g.dim)]
                 for j in range(in_map.src.dim)]
        super().__init__(g, plat, qcols, what="homology")

    def classify(self, vec):
        try:
            return super().classify(vec)
        except ValueError:
            raise ValueError("vector is not a cycle")


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
