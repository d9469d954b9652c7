"""Exact integer matrix kernel: Smith normal form, kernels, lattice solves.

Matrices are lists of row lists of Python ints, so everything is
arbitrary-precision and bit-exact.  A matrix with no rows cannot carry its
column count (0xN and Nx0 both occur constantly in chain complexes), so each
routine takes exactly the dimensions its row lists cannot give: the width of
a product, the column count of a in x @ (a (x) I_k), the shape of a
factorization.  Every Kronecker product the engine meets has an identity
factor, and none is built: ``mul_kron_identity`` forms x @ (a (x) I_k) or
x @ (I_k (x) a), the side named "left" or "right" by where a sits, and
``kron_identity_mul`` forms (a (x) I_k) @ x, each contracting a alone.
All routines are pure; none mutate their arguments (the Smith normal form
works on sparse rows of its own: a copy of the input rows, or, while a wide
presentation system's pivots are units, S alone, its D read off the input
as S A).

A Smith normal form S A T = D comes in one of two kinds: a presentation
form keeps S and S^-1, which give cokernel coordinates, and a solver form
keeps S and T, which give kernel bases and solutions.

While a derived entry point runs (a function decorated with
``shares_factorizations``), one memo is open: the call's scope.  The
outermost decorated call owns it, nested ones share it, and it is dropped
when that call returns or raises.  ``in_scope(key, build)`` is the one way
in: it returns what the scope keeps under ``key()``, built by ``build()``
the first time, and outside a scope it returns ``build()`` without
computing the key.  ``smith_normal_form`` keeps its forms there, keyed on
the input's shape, its rows and its kind, and a repeated system gets back
the first ``SmithForm``; ``completion`` keeps its completions,
linearizations, canonical operator families, tensor groups, residual
operators and Hom groups, and ``homology`` its towers and lift stages.
Every entry is a pure function of its key, so sharing it moves no
coordinate; in return every caller only reads what it gets back.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import wraps
from itertools import chain
from math import gcd


def zeros(nrows: int, ncols: int) -> list[list[int]]:
    return [[0] * ncols for _ in range(nrows)]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _check_rows(m, ncols: int, name: str, nrows: int | None = None):
    """ValueError unless every row of m has ncols entries and, when nrows is
    given, m has nrows rows."""
    if nrows is not None and len(m) != nrows:
        raise ValueError(f"{name} has {len(m)} rows, expected {nrows}")
    for i, row in enumerate(m):
        if len(row) != ncols:
            raise ValueError(f"row {i} of {name} has {len(row)} entries, expected {ncols}")


def mat_mul(a, b, ncols: int):
    """Product a@b of width ncols: b is len(b) x ncols and every row of a has
    len(b) entries."""
    _check_rows(b, ncols, "b")
    _check_rows(a, len(b), "a")
    out = []
    for arow in a:
        orow = [0] * ncols
        for c, brow in zip(arow, b):
            if c:
                for j in range(ncols):
                    orow[j] += c * brow[j]
        out.append(orow)
    return out


def mul_kron_identity(x, side: str, a, acols: int, k: int):
    """Product x @ (a (x) I_k) for side "left" and x @ (I_k (x) a) for side
    "right", of width acols*k, without building the Kronecker matrix: a has
    acols columns, and a row of x is a len(a) x k ("left") or k x len(a)
    block whose index i meets row i of a, so a without rows keeps the width."""
    if side not in ("left", "right"):
        raise ValueError(f"side {side!r}, expected 'left' or 'right'")
    _check_rows(a, acols, "a")
    _check_rows(x, len(a) * k, "x")
    # Strides of a's index and of the identity's index, in x and in the product.
    (xa, xl), (oa, ol) = ((k, 1), (k, 1)) if side == "left" else ((1, len(a)), (1, acols))
    a_nz = [(i, [(j * oa, v) for j, v in enumerate(row) if v])
            for i, row in enumerate(a) if any(row)]
    out = []
    for xrow in x:
        orow = [0] * (acols * k)
        for ia, arow in a_nz:
            for l in range(k):
                c = xrow[ia * xa + l * xl]
                if c:
                    for j, v in arow:
                        orow[l * ol + j] += c * v
        out.append(orow)
    return out


def kron_identity_mul(a, x, acols: int, k: int, ncols: int):
    """Product (a (x) I_k) @ x of width ncols, without building the Kronecker
    matrix: a has acols columns and x acols*k rows.  Block i of k rows is the
    sum over j of a[i][j] times block j of x."""
    _check_rows(a, acols, "a")
    _check_rows(x, ncols, "x", acols * k)
    out = []
    for arow in a:
        terms = [(v, x[j * k:(j + 1) * k]) for j, v in enumerate(arow) if v]
        out += [[sum(v * xj[l][c] for v, xj in terms) for c in range(ncols)]
                for l in range(k)]
    return out


def mat_vec(a, x) -> list[int]:
    return [sum(c * v for c, v in zip(row, x)) for row in a]


class SmithForm:
    """Decomposition S*A*T = D with S, T unimodular and D diagonal.

    ``diag`` lists the nonzero diagonal entries d_1 | d_2 | ... | d_r in
    divisibility order; the rest of D is zero, so D itself is not kept.
    S is always kept.  A presentation form (``solve=False``) keeps S^-1,
    the exact inverse maintained during the reduction, and a solver form
    (``solve=True``) keeps T; the transform not kept is ``[]``, and so is
    ``tinv``.
    """

    __slots__ = ("nrows", "ncols", "diag", "rank", "s", "sinv", "t", "tinv")

    def __init__(self, nrows, ncols, diag, s, sinv, t):
        self.nrows = nrows
        self.ncols = ncols
        self.diag = diag
        self.rank = len(diag)
        self.s = s
        self.sinv = sinv
        self.t = t
        self.tinv = []

    def divide(self, b):
        """The y with (S b)_i = d_i y_i for every i below the rank, or None
        when a division is inexact or S b is nonzero past the rank."""
        if len(b) != self.nrows:
            raise ValueError(f"right-hand side has {len(b)} entries, "
                             f"expected {self.nrows}")
        c = mat_vec(self.s, b)
        if any(c[self.rank:]) or any(ci % di for ci, di in zip(c, self.diag)):
            return None
        return [ci // di for ci, di in zip(c, self.diag)]

    def kernel_basis(self) -> list[list[int]]:
        """Columns rank.. of T: a basis of {x : A x = 0}.  A solver form's."""
        self._need_t()
        return [[row[j] for row in self.t] for j in range(self.rank, self.ncols)]

    def solve(self, b):
        """One integer solution x of A x = b, or None.  A solver form's."""
        self._need_t()
        y = self.divide(b)
        if y is None:
            return None
        return mat_vec(self.t, y + [0] * (self.ncols - self.rank))

    def _need_t(self):
        if self.ncols and not self.t:
            raise ValueError("a presentation form keeps no T; factor with solve=True")


def _add_scaled(dst: dict, src: dict, c):
    """dst += c*src for sparse rows {key: value}."""
    for key, v in src.items():
        nv = dst.get(key, 0) + c * v
        if nv:
            dst[key] = nv
        else:
            del dst[key]


# The open scope while a ``shares_factorizations`` call runs in this thread
# or task, else None.  Only ``shares_factorizations`` and ``in_scope`` read
# it: (nrows, ncols, solve, rows) -> SmithForm, next to the entries the
# layers above keep under keys of their own.
_memo: ContextVar[dict | None] = ContextVar("call_scope", default=None)


def in_scope(key, build):
    """What the open scope keeps under ``key()``, built by ``build()`` the
    first time; outside a scope, ``build()`` afresh, and ``key`` is never
    called.  No caller changes what it gets back."""
    memo = _memo.get()
    if memo is None:
        return build()
    k = key()
    value = memo.get(k, memo)  # the memo never holds itself: a miss
    if value is memo:
        value = memo[k] = build()
    return value


def shares_factorizations(fn):
    """``fn`` with one memo, the call's scope, open while it runs.

    The outermost decorated call opens the memo and drops it when it returns
    or raises; a decorated call inside it shares that memo.  Nothing is kept
    from one outermost call to the next.
    """
    @wraps(fn)
    def scoped(*args, **kwargs):
        if _memo.get() is not None:
            return fn(*args, **kwargs)
        token = _memo.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _memo.reset(token)

    return scoped


def smith_normal_form(a, nrows: int, ncols: int, *, solve: bool = False) -> SmithForm:
    """Smith normal form over the integers.

    S is always kept; ``solve`` chooses the other transform.  A presentation
    form (the default) keeps S^-1, for cokernel coordinates; a solver form
    (``solve=True``) keeps T, for kernel bases and solutions.  D, S, S^-1
    and T are the same whichever is kept.

    >>> sf = smith_normal_form([[2, 4], [6, 10]], 2, 2)
    >>> sf.diag, sf.s, sf.sinv, sf.t
    ([2, 2], [[1, 0], [3, -1]], [[1, 0], [3, -1]], [])
    >>> sf = smith_normal_form([[2, 4], [6, 10]], 2, 2, solve=True)
    >>> sf.t, sf.sinv
    ([[1, -2], [0, 1]], [])

    The pivot is the smallest nonzero |entry| of the trailing block, the
    first in row-major order; S, T and so every coordinate derived from them
    depend on that rule.  A presentation form of five rows or more, and
    more than twice as many columns as rows, takes its unit pivots without
    keeping D: while every pivot so far is +-1, rows k.. of D are rows k..
    of S A.  Here rows 0..3 give four unit pivots, and row 4 of S A, row 4
    of A less row 0, has no unit left, so D is built from it and its 2 is
    the last pivot:

    >>> a = [[1 if j == i else 0 for j in range(11)] for i in range(4)]
    >>> a.append([1, 0, 0, 0, 0, 2, 4, 0, 0, 0, 6])
    >>> sf = smith_normal_form(a, 5, 11)
    >>> sf.diag, sf.s[4], sf.sinv[4]
    ([1, 1, 1, 1, 2], [-1, 0, 0, 0, 1], [1, 0, 0, 0, 1])

    Inside a ``shares_factorizations`` call a system met before returns the
    same ``SmithForm`` object, so callers must not mutate its fields.
    """
    return in_scope(lambda: (nrows, ncols, solve, tuple(map(tuple, a))),
                    lambda: _factor(a, nrows, ncols, solve))


def _factor(a, nrows: int, ncols: int, solve: bool) -> SmithForm:
    """The factorization ``smith_normal_form`` documents, without the memo."""
    _check_rows(a, ncols, "the matrix", nrows)
    # Column swaps permute ``col`` (position -> key, a key naming an input
    # column) and ``pos`` (key -> position) instead of moving entries.
    col = list(range(ncols))
    pos = list(range(ncols))
    # Each transform is kept as sparse rows that the elementary operations
    # touch whole: S as it is, S^-1 and T transposed.
    s = [{i: 1} for i in range(nrows)]
    sinv_t = None if solve else [{i: 1} for i in range(nrows)]
    t_t = [{j: 1} for j in range(ncols)] if solve else None
    # D as sparse rows {key: value}.  Rows k.. have no entries at positions
    # before k, and rows before k hold only their diagonal entry.  A row
    # operation of a unit step costs D's pivot row, up to ncols entries, and
    # S's and S^-1's, up to nrows each.  A presentation form of five rows
    # or more whose D rows are the larger part (ncols > 2 nrows) takes its
    # unit steps in ``_unit_phase``, which keeps no D.  On fewer rows or
    # fewer columns the D work it saves costs less than its scans.  A solver
    # form's column operations read all of row k, so it keeps D from the
    # start.
    if solve or nrows < 5 or ncols <= 2 * nrows:
        start, d = 0, [{j: v for j, v in enumerate(row) if v} for row in a]
    else:
        start, d = _unit_phase(a, nrows, col, pos, s, sinv_t)

    def row_add(i, j, c):
        # row_i += c*row_j on D and S; column_j -= c*column_i on S^-1.
        _add_scaled(d[i], d[j], c)
        _add_scaled(s[i], s[j], c)
        if sinv_t is not None:
            _add_scaled(sinv_t[j], sinv_t[i], -c)

    def col_add(j, i, c, rows):
        # col_j += c*col_i on D (keys j, i; col_i is nonzero in ``rows``
        # only) and T.
        for r in rows:
            dr = d[r]
            nv = dr.get(j, 0) + c * dr[i]
            if nv:
                dr[j] = nv
            else:
                del dr[j]
        if t_t is not None:
            j, i = pos[j], pos[i]
            _add_scaled(t_t[j], t_t[i], c)

    def swap(mat, i, j):
        if mat is not None:
            mat[i], mat[j] = mat[j], mat[i]

    for k in range(start, min(nrows, ncols)):
        while True:
            # Pivot: smallest |entry| in rows k.., first in row-major order.
            best = 0
            for i in range(k, nrows):
                for j, v in d[i].items():
                    v = abs(v)
                    if not best or v < best or (
                            v == best and i == pi and pos[j] < pos[pj]):
                        best, pi, pj = v, i, j
                if best == 1:
                    break
            if not best:
                return _finish(nrows, ncols, d, s, sinv_t, t_t)
            if pi != k:
                swap(d, k, pi)
                swap(s, k, pi)
                swap(sinv_t, k, pi)
            pj = pos[pj]
            if pj != k:
                swap(col, k, pj)
                pos[col[k]], pos[col[pj]] = k, pj
                swap(t_t, k, pj)
            ck = col[k]
            row = d[k]
            if row[ck] < 0:
                d[k] = row = {j: -v for j, v in row.items()}
                s[k] = {j: -v for j, v in s[k].items()}
                if sinv_t is not None:
                    sinv_t[k] = {j: -v for j, v in sinv_t[k].items()}
            pivot = row[ck]
            dirty = False
            rows = [k]
            for i in range(k + 1, nrows):
                v = d[i].get(ck)
                if v:
                    q = v // pivot
                    if q:
                        row_add(i, k, -q)
                    if ck in d[i]:
                        dirty = True
                        rows.append(i)
            if rows == [k] and t_t is None:
                # The column operations would touch only row k, as no T is
                # kept: each entry becomes its remainder by the pivot.
                for j, v in list(row.items()):
                    if j != ck:
                        if v % pivot:
                            row[j] = v % pivot
                            dirty = True
                        else:
                            del row[j]
            else:
                for j, v in list(row.items()):
                    if j == ck:
                        continue
                    q = v // pivot
                    if q:
                        col_add(j, ck, -q, rows)
                    if j in row:
                        dirty = True
            if dirty:
                continue
            # Pivot must divide the rest of the block for true SNF; if not,
            # add the first offending row, the first whose gcd it does not
            # divide, to the pivot row.
            if pivot == 1 or not gcd(*chain.from_iterable(
                    map(dict.values, d[k + 1:]))) % pivot:
                break
            row_add(k, next(i for i in range(k + 1, nrows)
                            if gcd(*d[i].values()) % pivot), 1)
    return _finish(nrows, ncols, d, s, sinv_t, t_t)


def _unit_phase(a, nrows, col, pos, s, sinv_t):
    """A presentation form's steps while every pivot is +-1, on a system of
    more columns than rows: the first k whose rows k.. hold no unit, and D
    as ``_factor`` keeps it at that k.

    While every pivot so far is a unit, row i >= k of D is S_i A, and it is
    zero at positions before k: row operations act on D and S alike, and a
    unit pivot's column operations touch only its own row.  So no D is
    kept: an entry is read as S_i A_j, summed over the rows of A that S_i
    names, and a step does only S and S^-1 work.
    """
    # known[i]: D's row i, once a scan has met no unit in it.  It stays D's
    # row until a row operation changes S_i.
    known = [None] * nrows
    k = 0
    while k < nrows:
        # Pivot: the first +-1 in rows k.. in order, positions k.. in order
        # within a row: the entry the row-major smallest-|entry| rule picks.
        for i in range(k, nrows):
            if known[i] is not None:
                continue
            terms = [(a[r], c) for r, c in s[i].items()]
            row = {}
            for j in col[k:]:
                v = 0
                for ar, c in terms:
                    x = ar[j]
                    if x:
                        v += c * x
                if v:
                    if v == 1 or v == -1:
                        break
                    row[j] = v
            else:
                known[i] = row
                continue
            break
        else:
            break
        if i != k:
            s[k], s[i] = s[i], s[k]
            sinv_t[k], sinv_t[i] = sinv_t[i], sinv_t[k]
            known[k], known[i] = known[i], known[k]
        p = pos[j]
        if p != k:
            col[k], col[p] = j, col[k]
            pos[j], pos[col[p]] = k, p
        if v < 0:
            s[k] = {r: -c for r, c in s[k].items()}
            sinv_t[k] = {r: -c for r, c in sinv_t[k].items()}
        # row_i -= v*row_k clears the pivot column; the column operations
        # would leave row k holding the pivot alone.
        sk, inv_k = s[k], sinv_t[k]
        for i in range(k + 1, nrows):
            row = known[i]
            if row is None:
                v = 0
                for r, c in s[i].items():
                    x = a[r][j]
                    if x:
                        v += c * x
            else:
                v = row.get(j, 0)
            if v:
                _add_scaled(s[i], sk, -v)
                _add_scaled(inv_k, sinv_t[i], v)
                known[i] = None
        k += 1
    # Rows k.. were all scanned, and are known, when no unit is left.
    return k, [{col[i]: 1} for i in range(k)] + known[k:]


def _finish(nrows, ncols, d, s, sinv_t, t_t) -> SmithForm:
    # Rows 0..rank-1 of D hold only their pivot and the rest are empty.
    diag = [v for row in d for v in row.values()]

    def dense(rows, n):
        return [[row.get(j, 0) for j in range(n)] for row in rows]

    def dense_transposed(rows, n):
        return [[row.get(i, 0) for row in rows] for i in range(n)] if rows else []

    return SmithForm(nrows, ncols, diag, dense(s, nrows),
                     dense_transposed(sinv_t, nrows), dense_transposed(t_t, ncols))

