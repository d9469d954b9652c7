"""Exact integer matrix kernel: Smith normal form, kernels, lattice solves.

Matrices are lists of row lists of Python ints, so everything is
arbitrary-precision and bit-exact.  Dimensions are passed explicitly where a
matrix can be empty (0xN and Nx0 both occur constantly in chain complexes).
All routines are pure; none mutate their arguments.
"""

from __future__ import annotations


def zeros(nrows: int, ncols: int) -> list[list[int]]:
    return [[0] * ncols for _ in range(nrows)]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(mat) -> list[list[int]]:
    return [row[:] for row in mat]


def mat_mul(a, b, inner: int):
    """Product a@b where a is m x inner and b is inner x k."""
    m = len(a)
    k = len(b[0]) if b else 0
    if inner and b and len(b) != inner:
        raise ValueError(f"inner dimension {inner} does not match {len(b)} rows")
    out = zeros(m, k)
    for i in range(m):
        arow = a[i]
        orow = out[i]
        for t in range(inner):
            c = arow[t]
            if c:
                brow = b[t]
                for j in range(k):
                    orow[j] += c * brow[j]
    return out


def mat_vec(a, x) -> list[int]:
    return [sum(c * v for c, v in zip(row, x)) for row in a]


class SmithForm:
    """Decomposition S*A*T = D with S, T unimodular and D diagonal.

    ``diag`` lists the nonzero diagonal entries d_1 | d_2 | ... | d_r in
    divisibility order; the rest of D is zero.  ``sinv`` and ``tinv`` are the
    exact inverses, maintained during the reduction rather than inverted after
    the fact.
    """

    __slots__ = ("nrows", "ncols", "d", "s", "sinv", "t", "tinv", "rank", "diag")

    def __init__(self, nrows, ncols, d, s, sinv, t, tinv):
        self.nrows = nrows
        self.ncols = ncols
        self.d = d
        self.s = s
        self.sinv = sinv
        self.t = t
        self.tinv = tinv
        self.diag = [d[i][i] for i in range(min(nrows, ncols)) if d[i][i] != 0]
        self.rank = len(self.diag)


def smith_normal_form(a, nrows: int, ncols: int) -> SmithForm:
    """Smith normal form over the integers with full transform tracking.

    >>> sf = smith_normal_form([[2, 4], [6, 10]], 2, 2)
    >>> sf.diag
    [2, 2]
    """
    d = copy_matrix(a)
    for row in d:
        assert len(row) == ncols
    s = identity(nrows)
    sinv = identity(nrows)
    t = identity(ncols)
    tinv = identity(ncols)

    def row_add(i, j, c):
        # row_i += c*row_j on D and S; inverse op on Sinv columns.
        di, dj = d[i], d[j]
        for col in range(ncols):
            di[col] += c * dj[col]
        si, sj = s[i], s[j]
        for col in range(nrows):
            si[col] += c * sj[col]
        for r in range(nrows):
            sinv[r][j] -= c * sinv[r][i]

    def col_add(j, i, c):
        # col_j += c*col_i on D and T; inverse op on Tinv rows.
        for r in range(nrows):
            d[r][j] += c * d[r][i]
        for r in range(ncols):
            t[r][j] += c * t[r][i]
        ti, tj = tinv[i], tinv[j]
        for col in range(ncols):
            ti[col] -= c * tj[col]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        s[i], s[j] = s[j], s[i]
        for r in range(nrows):
            sinv[r][i], sinv[r][j] = sinv[r][j], sinv[r][i]

    def col_swap(i, j):
        for r in range(nrows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(ncols):
            t[r][i], t[r][j] = t[r][j], t[r][i]
        tinv[i], tinv[j] = tinv[j], tinv[i]

    def row_negate(i):
        d[i] = [-v for v in d[i]]
        s[i] = [-v for v in s[i]]
        for r in range(nrows):
            sinv[r][i] = -sinv[r][i]

    m = min(nrows, ncols)
    for k in range(m):
        while True:
            # Pivot: smallest |entry| in the trailing block.
            piv = None
            best = None
            for i in range(k, nrows):
                for j in range(k, ncols):
                    v = d[i][j]
                    if v != 0 and (best is None or abs(v) < best):
                        best = abs(v)
                        piv = (i, j)
            if piv is None:
                break
            pi, pj = piv
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if d[k][k] < 0:
                row_negate(k)
            pivot = d[k][k]
            dirty = False
            for i in range(k + 1, nrows):
                q = d[i][k] // pivot
                if q:
                    row_add(i, k, -q)
                if d[i][k]:
                    dirty = True
            for j in range(k + 1, ncols):
                q = d[k][j] // pivot
                if q:
                    col_add(j, k, -q)
                if d[k][j]:
                    dirty = True
            if dirty:
                continue
            # Pivot must divide the rest of the block for true SNF.
            offender = None
            for i in range(k + 1, nrows):
                for j in range(k + 1, ncols):
                    if d[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(k, offender, 1)

    return SmithForm(nrows, ncols, d, s, sinv, t, tinv)


def kernel_basis(a, nrows: int, ncols: int) -> list[list[int]]:
    """Basis (as column vectors) of the integer kernel {x : A x = 0}."""
    sf = smith_normal_form(a, nrows, ncols)
    out = []
    for j in range(ncols):
        if j >= sf.rank:
            out.append([sf.t[i][j] for i in range(ncols)])
    return out


def solve(a, b, nrows: int, ncols: int):
    """One integer solution x of A x = b, or None when none exists."""
    sf = smith_normal_form(a, nrows, ncols)
    c = mat_vec(sf.s, b)
    y = [0] * ncols
    for i in range(nrows):
        if i < sf.rank:
            di = sf.d[i][i]
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return mat_vec(sf.t, y)


def lattice_basis(gens: list[list[int]], dim: int) -> list[list[int]]:
    """Basis of the lattice spanned by the given vectors in Z^dim.

    Input and output vectors are column vectors given as plain lists.
    """
    if not gens:
        return []
    a = [[g[i] for g in gens] for i in range(dim)]
    sf = smith_normal_form(a, dim, len(gens))
    # colspan(A) = Sinv * colspan(D); D's nonzero columns are d_i * e_i.
    out = []
    for i in range(sf.rank):
        di = sf.d[i][i]
        out.append([sf.sinv[r][i] * di for r in range(dim)])
    return out


def kron(a, am, an, b, bm, bn):
    """Kronecker product of an am x an and a bm x bn matrix."""
    out = zeros(am * bm, an * bn)
    for i in range(am):
        for j in range(an):
            v = a[i][j]
            if v:
                for p in range(bm):
                    for q in range(bn):
                        out[i * bm + p][j * bn + q] = v * b[p][q]
    return out


def in_lattice(vec, basis, dim: int) -> bool:
    """Whether vec lies in the lattice spanned by basis vectors."""
    if not basis:
        return all(v == 0 for v in vec)
    a = [[g[i] for g in basis] for i in range(dim)]
    return solve(a, vec, dim, len(basis)) is not None
