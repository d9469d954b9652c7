import ast
import doctest
import random
from pathlib import Path

from conftest import kron
from hypothesis import example, given, settings, strategies as st

import ngamma.intlinalg
from ngamma import completion, core, modules
from ngamma import intlinalg as la
from ngamma.abgroups import AbGroup, Presentation, Subgroup, Subquotient


small_matrices = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ).map(lambda rows: (rows, m, n))
    )
)


def solver(a, nrows, ncols):
    """The solver form of a, which keeps S and T."""
    return la.smith_normal_form(a, nrows, ncols, solve=True)


def dense_d(diag, nrows, ncols):
    """The nrows x ncols D whose nonzero diagonal is ``diag``."""
    d = la.zeros(nrows, ncols)
    for i, v in enumerate(diag):
        d[i][i] = v
    return d


@given(small_matrices)
@settings(max_examples=200, deadline=None)
def test_snf_decomposition_identity(data):
    a, m, n = data
    sf = solver(a, m, n)
    sat = la.mat_mul(la.mat_mul(sf.s, a, n), sf.t, n)
    assert sat == dense_d(sf.diag, m, n)
    pf = la.smith_normal_form(a, m, n)
    assert (pf.s, pf.diag) == (sf.s, sf.diag)
    assert la.mat_mul(pf.s, pf.sinv, m) == la.identity(m)
    # Positive, divisibility chain.
    assert all(v > 0 for v in sf.diag)
    for i in range(len(sf.diag) - 1):
        assert sf.diag[i + 1] % sf.diag[i] == 0


def test_snf_textbook():
    sf = la.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3, 3)
    assert sf.diag == [2, 2, 156]


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_basis_is_kernel(data):
    a, m, n = data
    basis = solver(a, m, n).kernel_basis()
    for v in basis:
        assert la.mat_vec(a, v) == [0] * m


def test_solve_basic():
    a = [[2, 0], [0, 3]]
    assert solver(a, 2, 2).solve([4, 9]) == [2, 3]
    assert solver(a, 2, 2).solve([1, 0]) is None
    assert solver([[2, 4]], 1, 2).solve([6]) is not None


@given(small_matrices, st.lists(st.integers(-5, 5), min_size=0, max_size=4))
@settings(max_examples=150, deadline=None)
def test_solve_verifies(data, xs):
    a, m, n = data
    x = (xs + [0] * n)[:n]
    b = la.mat_vec(a, x)
    sol = solver(a, m, n).solve(b)
    assert sol is not None
    assert la.mat_vec(a, sol) == b


def test_products_keep_the_shape_of_empty_matrices():
    assert la.mat_mul([[], []], [], 3) == [[0, 0, 0], [0, 0, 0]]
    assert la.mat_mul([[1], [2]], [[]], 0) == [[], []]
    assert la.mat_mul([], [[1, 2]], 2) == []
    # x @ (a (x) I_k), x @ (I_k (x) a) and (a (x) I_k) @ x for a factor
    # without rows (of 1 or 3 columns), a factor without columns, 1x0 against
    # 0x1, k = 0 and an x without rows or columns.
    for side in ("left", "right"):
        assert la.mul_kron_identity([[], []], side, [], 3, 2) == [[0] * 6, [0] * 6]
        assert la.mul_kron_identity([[1, 2]], side, [[], []], 0, 1) == [[]]
        assert la.mul_kron_identity([[5]], side, [[]], 0, 1) == [[]]
        assert la.mul_kron_identity([[]], side, [[1, 2]], 2, 0) == [[]]
        assert la.mul_kron_identity([[]], side, [[]], 0, 0) == [[]]
        assert la.mul_kron_identity([], side, [[1]], 1, 1) == []
        assert la.mul_kron_identity([[]], side, [], 1, 1) == [[0]]
    assert la.kron_identity_mul([], [[1], [2], [3]], 3, 1, 1) == []
    assert la.kron_identity_mul([], [[1], [2]], 1, 2, 1) == []
    assert la.kron_identity_mul([[], []], [], 0, 2, 3) == [[0, 0, 0]] * 4
    assert la.kron_identity_mul([[]], [], 0, 1, 2) == [[0, 0]]
    assert la.kron_identity_mul([[1, 2]], [], 2, 0, 3) == []
    assert la.kron_identity_mul([[1, 2]], [[], []], 2, 1, 0) == [[]]
    assert la.kron_identity_mul([[1]], [[]], 1, 1, 0) == [[]]
    for a, b, width in (([[1, 2]], [[1]], 1), ([[1]], [[1, 2]], 1), ([[]], [[1]], 1)):
        try:
            la.mat_mul(a, b, width)
        except ValueError as e:
            assert "entries, expected" in str(e)
        else:
            raise AssertionError(f"mat_mul accepted {a} @ {b} of width {width}")
    # One mismatch each: a's row length, x's row length, an unknown side;
    # then x's row count, x's row length and a's row length.
    for product in (lambda: la.mul_kron_identity([[1, 2]], "left", [[1], [1, 2]], 1, 1),
                    lambda: la.mul_kron_identity([[1, 2]], "right", [[1]], 1, 1),
                    lambda: la.mul_kron_identity([[1]], "both", [[1]], 1, 1),
                    lambda: la.kron_identity_mul([[1]], [[1]], 1, 2, 1),
                    lambda: la.kron_identity_mul([[1]], [[1, 2]], 1, 1, 1),
                    lambda: la.kron_identity_mul([[1, 2]], [[1]], 1, 1, 1)):
        try:
            product()
        except ValueError as e:
            assert "expected" in str(e)
        else:
            raise AssertionError("a product of mismatched shapes was accepted")


def test_kronecker_contractions_match_the_dense_product():
    rng = random.Random(11)

    def rand(nrows, ncols):
        return [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]

    for _ in range(300):
        p, q, n = (rng.randint(0, 4) for _ in range(3))
        k = rng.randint(0, 3)
        a, ident = rand(p, q), la.identity(k)
        x, y = rand(n, p * k), rand(q * k, n)
        assert la.mul_kron_identity(x, "left", a, q, k) == la.mat_mul(x, kron(a, ident), q * k)
        assert la.mul_kron_identity(x, "right", a, q, k) == la.mat_mul(x, kron(ident, a), q * k)
        assert la.kron_identity_mul(a, y, q, k, n) == la.mat_mul(kron(a, ident), y, n)


def test_solve_and_subquotient_reject_wrong_lengths():
    a = [[2, 0], [0, 3]]
    for b in ([4], [4, 9, 1]):
        try:
            solver(a, 2, 2).solve(b)
        except ValueError as e:
            assert f"{len(b)} entries, expected 2" in str(e)
        else:
            raise AssertionError(f"solve accepted a right-hand side of length {len(b)}")
    for p_gens, q_gens in (([[2, 0, 7]], []), ([[2, 0]], [[2, 0, 7]])):
        try:
            Subquotient(AbGroup((2, 2)), p_gens, q_gens)
        except ValueError as e:
            assert "3 entries, expected 2" in str(e)
        else:
            raise AssertionError("Subquotient accepted a vector of length 3")
    # A relation or generator of the wrong length, longer or shorter.
    for build, n in ((lambda: Presentation(2, [[2, 0, 5], [0, 3, 7]]), 3),
                     (lambda: Presentation(2, [[2, 0], [3]]), 1),
                     (lambda: Subgroup(AbGroup((4, 4)), [[2, 0, 9]]), 3),
                     (lambda: Subgroup(AbGroup((4, 4)), [[2]]), 1)):
        try:
            build()
        except ValueError as e:
            assert f"{n} entries, expected 2" in str(e)
        else:
            raise AssertionError(f"a vector of length {n} was accepted")


def test_intlinalg_doctests():
    result = doctest.testmod(ngamma.intlinalg)
    assert result.failed == 0
    assert result.attempted > 0


# -- reference equality ----------------------------------------------------
#
# The dense reduction below is the kernel as it was before it became sparse
# and kept only the transforms its caller reads, frozen here as the
# reference.  The pivot sequence is a contract: every coordinate system,
# emitted matrix and golden report digest derives from S, S^-1 and T, so
# both kinds of form must reproduce D and every transform they keep integer
# for integer.

def reference_snf(a, nrows, ncols):
    """(D, S, S^-1, T, T^-1) by the dense full-tracking reduction."""
    d = [row[:] for row in a]
    s = la.identity(nrows)
    sinv = la.identity(nrows)
    t = la.identity(ncols)
    tinv = la.identity(ncols)

    def row_add(i, j, c):
        di, dj = d[i], d[j]
        for col in range(ncols):
            di[col] += c * dj[col]
        si, sj = s[i], s[j]
        for col in range(nrows):
            si[col] += c * sj[col]
        for r in range(nrows):
            sinv[r][j] -= c * sinv[r][i]

    def col_add(j, i, c):
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

    for k in range(min(nrows, ncols)):
        while True:
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
    return d, s, sinv, t, tinv


def reference_kernel_basis(ref, ncols):
    d, _, _, t, _ = ref
    rank = sum(1 for i in range(min(len(d), ncols)) if d[i][i])
    return [[t[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def reference_solve(ref, b, nrows, ncols):
    d, s, _, t, _ = ref
    rank = sum(1 for i in range(min(nrows, ncols)) if d[i][i])
    c = la.mat_vec(s, b)
    y = [0] * ncols
    for i in range(nrows):
        if i < rank:
            if c[i] % d[i][i]:
                return None
            y[i] = c[i] // d[i][i]
        elif c[i]:
            return None
    return la.mat_vec(t, y)


def assert_matches_reference(a, nrows, ncols):
    """Both kinds of form against the reference: a presentation form keeps
    S and S^-1, a solver form S and T, and neither keeps T^-1."""
    ref = reference_snf(a, nrows, ncols)
    d, s, sinv, t, _ = ref
    for solve, kept in ((False, (s, sinv, [])), (True, (s, [], t))):
        sf = la.smith_normal_form(a, nrows, ncols, solve=solve)
        assert dense_d(sf.diag, nrows, ncols) == d, solve
        assert (sf.s, sf.sinv, sf.t, sf.tinv) == kept + ([],), solve
    return ref


def banded(scales, ncols):
    """Row i is scales[i] times e_i + e_(i+1), in ncols columns."""
    return [[c if j in (i, i + 1) else 0 for j in range(ncols)]
            for i, c in enumerate(scales)]


@st.composite
def snf_inputs(draw):
    """Matrices up to 12x12, of varied density, with zero rows and columns.

    Half are unit-heavy and wide, from 5x11 up to 7x19: more than twice as
    many columns as rows, entries in {-1, 0, 1}, and rows scaled by 1, by
    1, 2 or 3, or by 2 or 3, so that none, some or all hold no unit.  They
    take the presentation form's unit phase, and meet a row without a unit
    before one with a unit, a negative unit pivot, all pivots units, and no
    unit at all."""
    if draw(st.booleans()):
        m = draw(st.integers(5, 7))
        n = 2 * m + draw(st.integers(1, 5))
        density = draw(st.sampled_from([0.2, 0.5, 1.0]))
        entry = st.sampled_from([-1, 1])
        factors = draw(st.sampled_from([(1,), (1, 1, 2, 3), (2, 3)]))
        scales = draw(st.lists(st.sampled_from(factors), min_size=m, max_size=m))
    else:
        m = draw(st.integers(0, 12))
        n = draw(st.integers(0, 12))
        bound = draw(st.sampled_from([1, 3, 12, 50]))
        density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
        entry = st.integers(-bound, bound)
        scales = [1] * m
    cells = draw(st.lists(st.tuples(st.floats(0, 1), entry),
                          min_size=m * n, max_size=m * n))
    a = [[c * v if u < density else 0 for u, v in cells[i * n:(i + 1) * n]]
         for i, c in enumerate(scales)]
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2)):
        if i < m:
            a[i] = [0] * n
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2)):
        if j < n:
            for row in a:
                row[j] = 0
    b = draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m))
    x = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return a, m, n, b, x


# snf_inputs draws half its matrices unit-heavy, so 300 examples give each
# kind about 150.
@given(snf_inputs())
@settings(max_examples=300, deadline=None)
# The unit phase's cases, every run: a row without a unit before one with a
# negative unit, all pivots units, no unit at all; and the empty shapes.
@example((banded([2, -1, 1, 3, 1], 11), 5, 11, [1, 2, 3, 4, 5], list(range(11))))
@example((banded([1, 1, 1, 1, 1], 11), 5, 11, [1, 0, 1, 0, 2], list(range(11))))
@example((banded([2, 2, 3, 2, 3], 11), 5, 11, [2, 3, 0, 1, 1], list(range(11))))
@example(([], 0, 5, [], [1, 2, 3, 0, 1]))
@example(([[], []], 2, 0, [1, 0], []))
def test_snf_matches_dense_reference_for_both_kinds(data):
    a, m, n, b, x = data
    ref = assert_matches_reference(a, m, n)
    sf = solver(a, m, n)
    assert sf.kernel_basis() == reference_kernel_basis(ref, n)
    assert sf.solve(b) == reference_solve(ref, b, m, n)
    ax = la.mat_vec(a, x)
    assert sf.solve(ax) == reference_solve(ref, ax, m, n)


def test_snf_matches_reference_on_order_column_system():
    # EquivariantHom's shape for regular ternary Z/12: 432 one-row operator
    # constraints, each zero except its -12 order column.
    a = [[0] * 433 for _ in range(432)]
    for i in range(432):
        a[i][i + 1] = -12
    ref = assert_matches_reference(a, 432, 433)
    assert solver(a, 432, 433).kernel_basis() == reference_kernel_basis(ref, 433)


def test_snf_matches_reference_on_presentation_system(monkeypatch):
    # Pair-relation matrices of group completions: the 16 x 137 one of the
    # regular module of ternary M2(F2), and those of the carriers of the
    # ``derived`` benchmark workload, whose factorizations start with a run
    # of unit pivots: ternary Z/12 (12 x 79), ternary Z/16 (16 x 137) and a
    # relabelled ternary Z/6 (6 x 22) whose zero is element 3.
    seen = []
    snf = la.smith_normal_form

    def record(a, nrows, ncols, **kw):
        seen.append(([row[:] for row in a], nrows, ncols))
        return snf(a, nrows, ncols, **kw)

    monkeypatch.setattr(la, "smith_normal_form", record)
    completion.linearize_module(modules.regular_bimodule(
        core.make_matrix_family(core.f2_semiring(), 2, 3)))
    [m2f2] = [call for call in seen if call[1:] == (16, 137)]
    seen.clear()
    z6 = core.relabel(core.ternary_from_semiring(core.zmod_semiring(6)), [3, 5, 0, 1, 4, 2])
    assert z6.T.zero == 3
    for s in (core.ternary_from_semiring(core.zmod_semiring(12)),
              core.ternary_from_semiring(core.zmod_semiring(16)), z6):
        completion.group_complete(s.T)
    monkeypatch.undo()
    assert [call[1:] for call in seen] == [(12, 79), (16, 137), (6, 22)]
    for a, m, n in [m2f2] + seen:
        assert_matches_reference(a, m, n)


def test_unit_phase_adds_no_row_of_d(count_calls):
    # Ternary Z/16's completion factors its 16 x 137 pair-relation system
    # with 15 unit pivots, then the pivot 16.  All 27 of its row operations
    # fall in the unit phase, and each adds one row of S and one of S^-1
    # (81 additions when D's rows are added too).
    counts = count_calls(la, "_add_scaled")
    comp = completion.group_complete(core.ternary_from_semiring(core.zmod_semiring(16)).T)
    assert comp.group.orders == (16,)
    assert counts == {"_add_scaled": 54}


def _names_used(node) -> set:
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return set()


def test_integer_systems_are_solved_only_in_abgroups():
    # The derived layer states its linear algebra through abgroups (kernel,
    # preimage, Subgroup, Subquotient, EquivariantHom); only abgroups
    # factorizes, solves or reduces lattices itself.
    names = {"smith_normal_form", "kernel_basis", "solve", "divide"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ngamma.intlinalg.__file__).parent.rglob("*.py"))
             if path.name not in ("intlinalg.py", "abgroups.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _names_used(node) & names]
    assert found == []
