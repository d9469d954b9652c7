from collections import Counter

import pytest

from ngamma import spectral
from ngamma.abgroups import AbGroup, GroupMap, SoundnessError, Subquotient, kernel_gens
from ngamma.bundled import bundled_workspace
from ngamma.core import (
    GammaSemiringMorphism, f2_ternary, identity_morphism, ternary_from_semiring,
    validate_morphism, z4_ternary, zmod_semiring,
)
from ngamma.ideals import GammaIdeal, quotient
from ngamma.modules import build_module, regular_bimodule, validate_module, zero_module
from ngamma.spectral import (
    DoubleComplexAb, FiltrationPages, base_change_check, extend_scalars,
    flatness_probe, kunneth_check, pages, restrict_scalars, totalize,
)
from ngamma.completion import linearize_module
from ngamma.homology import homology


C2 = AbGroup((2,))
ONE = GroupMap(C2, C2, [[1]])
ZERO = GroupMap(C2, C2, [[0]])


def test_totalize_single_column():
    d = DoubleComplexAb.from_commuting({(0, 0): C2, (0, 1): C2},
                                       {}, {(0, 1): ZERO})
    tot = totalize(d)
    assert [g.invariant_factors() for g in tot.groups] == [(2,), (2,)]


def test_totalize_zero_grid():
    d = DoubleComplexAb.from_commuting({(0, 0): AbGroup(())}, {}, {})
    assert all(g.is_trivial() for g in totalize(d).groups)


def test_totalize_2x2():
    entries = {(p, q): C2 for p in range(2) for q in range(2)}
    d = DoubleComplexAb.from_commuting(entries, {(1, 0): ONE, (1, 1): ONE},
                                       {(0, 1): ZERO, (1, 1): ZERO})
    tot = totalize(d)
    assert [len(g.orders) for g in tot.groups] == [1, 2, 1]
    assert [h.order() for h in homology(tot)] == [1, 1, 1]


def test_pages_through_a_zero_entry():
    c4 = AbGroup((4,))
    entries = {(0, 0): C2, (1, 0): AbGroup(()), (2, 0): C2, (0, 1): c4, (1, 1): C2}
    d = DoubleComplexAb.from_commuting(entries, {(1, 1): GroupMap(C2, c4, [[2]])},
                                       {(0, 1): GroupMap(c4, C2, [[1]])})
    for fp in pages(d, 4):
        assert all(fp.page_homology_law(r) for r in range(4))
        assert all(lhs == rhs for _n, lhs, rhs in fp.order_bookkeeping())
    assert [h.order() for h in homology(totalize(d))] == [1, 1, 2, 1]


def test_anticommutation_enforced():
    c4 = AbGroup((4,))
    one4 = GroupMap(c4, c4, [[1]])
    entries = {(p, q): c4 for p in range(2) for q in range(2)}
    with pytest.raises(SoundnessError):
        # Untwisted commuting squares: dh.dv + dv.dh = 2 != 0 over Z/4.
        DoubleComplexAb(entries, {(1, 0): one4, (1, 1): one4},
                        {(0, 1): one4, (1, 1): one4})
    # The twisting constructor fixes the same data.
    DoubleComplexAb.from_commuting(entries, {(1, 0): one4, (1, 1): one4},
                                   {(0, 1): one4, (1, 1): one4})


def test_pages_zero_horizontal():
    entries = {(p, q): C2 for p in range(2) for q in range(2)}
    d = DoubleComplexAb.from_commuting(entries, {(1, 0): ZERO, (1, 1): ZERO},
                                       {(0, 1): ONE, (1, 1): ONE})
    first = FiltrationPages(d, 3)
    # E1 = vertical homology (trivial here), and E2 = E1.
    for (p, q), g in first.pages[1].entries.items():
        assert g.is_trivial()
        assert first.pages[2].entries[(p, q)].is_trivial()


def test_pages_single_node():
    d = DoubleComplexAb.from_commuting({(0, 0): C2}, {}, {})
    first = FiltrationPages(d, 3)
    for page in first.pages:
        assert page.entries[(0, 0)].invariant_factors() == (2,)


def test_page_law_and_bookkeeping():
    entries = {(p, q): C2 for p in range(2) for q in range(2)}
    d = DoubleComplexAb.from_commuting(entries, {(1, 0): ONE, (1, 1): ONE},
                                       {(0, 1): ZERO, (1, 1): ZERO})
    first, second = pages(d, 4)
    for filt in (first, second):
        assert filt.page_homology_law(1)
        assert filt.page_homology_law(2)
        for (n, lhs, rhs) in filt.order_bookkeeping():
            assert lhs == rhs
        # First-quadrant boundedness: stability by p+q+1 per node.
        for (p, q) in entries:
            for r in range(p + q + 2, len(filt.pages)):
                assert filt.pages[r].factors(p, q) == \
                    filt.pages[p + q + 2].factors(p, q)


def test_kunneth_f2():
    s = f2_ternary()
    reg = regular_bimodule(s)
    rep = kunneth_check(s, reg, reg, reg, depth=2)
    assert rep.flat_certified
    assert rep.consistent
    assert rep.e2_matches_direct
    assert rep.stable_first <= 3 and rep.stable_second <= 3
    assert rep.e2_first[(0, 0)] == (2,)


def test_kunneth_zero_target():
    s = f2_ternary()
    reg = regular_bimodule(s)
    rep = kunneth_check(s, reg, reg, zero_module(s), depth=1)
    assert rep.consistent
    assert all(v == () for v in rep.e2_first.values())
    assert all(v == () for v in rep.direct_grid.values())


def test_kunneth_z4():
    from ngamma.ideals import GammaIdeal
    from ngamma.modules import ideal_submodule
    z4 = z4_ternary()
    reg = regular_bimodule(z4)
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    rep = kunneth_check(z4, reg, reg, reg, depth=2)
    assert rep.flat_certified and rep.consistent and rep.e2_matches_direct
    assert rep.diag_first[-1] == (4, 4, 4)
    _assert_z4_pages(rep, 4)
    rep = kunneth_check(z4, sub, reg, reg, depth=2)
    assert rep.consistent and rep.e2_matches_direct
    assert rep.e2_first[(0, 0)] == (2,)
    _assert_z4_pages(rep, 2)
    # A non-flat target degrades to a consistency-only report but stays
    # internally consistent.
    rep = kunneth_check(z4, reg, reg, sub, depth=2)
    assert not rep.flat_certified
    assert rep.consistent
    _assert_z4_pages(rep, 2)


def _assert_z4_pages(rep, corner):
    """The full grids and diagonals: everything but (0, 0) and degree 4 vanishes."""
    grid = {(p, q): () for p in range(3) for q in range(3)}
    grid[(0, 0)] = (corner,)
    assert rep.e2_first == rep.e2_second == rep.direct_grid == grid
    diag = [(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, corner, corner)]
    assert rep.diag_first == rep.diag_second == diag


def test_kunneth_boolean_degenerate():
    from ngamma.core import boolean_ternary
    boolt = boolean_ternary()
    regb = regular_bimodule(boolt)
    rep = kunneth_check(boolt, regb, regb, regb, depth=2)
    assert rep.consistent
    assert all(v == () for v in rep.e2_first.values())


def test_restrict_scalars(z4_target=None):
    f2 = f2_ternary()
    z4 = z4_ternary()
    reg2 = regular_bimodule(f2)
    ident = identity_morphism(f2)
    assert restrict_scalars(ident, reg2).act_tables == reg2.act_tables
    q = GammaSemiringMorphism(z4, f2, (0, 1, 0, 1))
    assert validate_morphism(q).ok
    res = restrict_scalars(q, reg2)
    assert res.parent == z4
    assert validate_module(res).ok
    # Odd carrier elements act as 1, evens as 0.
    assert res.act(0, (1, 3), 1, (0, 0)) == 1
    assert res.act(0, (2, 3), 1, (0, 0)) == 0


def _restrict_cell_by_cell(f, b):
    """restrict_scalars restated through build_module and act, one cell each."""
    return build_module(
        f.source, b.M,
        lambda j, tother, m, gs: b.act(j, tuple(f(t) for t in tother), m, gs),
        name=f"res({b.name})")


def test_restrict_scalars_from_columns_matches_cell_by_cell():
    f2, z4 = f2_ternary(), z4_ternary()
    z32 = ternary_from_semiring(zmod_semiring(32))
    _, q_z4 = quotient(z4, GammaIdeal(z4, frozenset({0, 2})))
    q_z32 = GammaSemiringMorphism(z32, f2, tuple(x % 2 for x in range(32)))
    ws = bundled_workspace()
    cases = [(identity_morphism(z4), regular_bimodule(z4)),
             (q_z4, regular_bimodule(q_z4.target)),
             (q_z4, zero_module(q_z4.target)),
             (identity_morphism(z32), regular_bimodule(z32)),
             (q_z32, regular_bimodule(f2))]
    cases += [(ws.morphism("q_z4_f2"), b) for b in ws.modules.values()
              if b.parent == ws.semiring("f2_ternary")]
    for f, b in cases:
        assert validate_morphism(f).ok
        assert restrict_scalars(f, b) == _restrict_cell_by_cell(f, b)


def test_extend_scalars_identity_is_isomorphism():
    f2 = f2_ternary()
    reg2 = regular_bimodule(f2)
    ext = extend_scalars(identity_morphism(f2), reg2)
    assert ext.module.M.size == reg2.M.size
    imgs = [ext.pair(1, a) for a in range(reg2.M.size)]
    assert sorted(imgs) == sorted(range(ext.module.M.size))
    # Transported action tables agree under the element bijection.
    for slot in range(3):
        for t1 in range(2):
            for t2 in range(2):
                for a in range(2):
                    got = ext.module.act(slot, (t1, t2), imgs[a], (0, 0))
                    want = imgs[reg2.act(slot, (t1, t2), a, (0, 0))]
                    assert got == want


def test_extend_scalars_quotient():
    z4 = z4_ternary()
    f2 = f2_ternary()
    q = GammaSemiringMorphism(z4, f2, (0, 1, 0, 1))
    ext = extend_scalars(q, regular_bimodule(z4))
    assert ext.module.parent == f2
    assert ext.module.M.size == 2
    assert validate_module(ext.module).ok
    assert [ext.pair(1, a) for a in range(4)] == [0, 1, 0, 1]
    assert extend_scalars(q, zero_module(z4)).module.M.size == 1


def test_flatness_probe():
    f2 = f2_ternary()
    z4 = z4_ternary()
    assert flatness_probe(f2, linearize_module(regular_bimodule(f2)))
    q = GammaSemiringMorphism(z4, f2, (0, 1, 0, 1))
    restricted = linearize_module(restrict_scalars(q, regular_bimodule(f2)))
    assert not flatness_probe(z4, restricted)


def test_base_change_identity():
    f2 = f2_ternary()
    reg = regular_bimodule(f2)
    rep = base_change_check(identity_morphism(f2), reg, reg, depth=1)
    assert rep.flat
    assert rep.ext_match and rep.tor_match


def test_base_change_nonflat_quotient_reported():
    z4 = z4_ternary()
    f2 = f2_ternary()
    q = GammaSemiringMorphism(z4, f2, (0, 1, 0, 1))
    reg = regular_bimodule(z4)
    rep = base_change_check(q, reg, reg, depth=1)
    assert not rep.flat
    assert rep.consistent  # mismatches would be permitted, not failures


def test_base_change_along_isomorphism():
    f2 = f2_ternary()
    reg = regular_bimodule(f2)
    iso = GammaSemiringMorphism(f2, f2, (0, 1))
    rep = base_change_check(iso, reg, reg, depth=1)
    assert rep.ext_match and rep.tor_match


# ---------------------------------------------------------------------------
# One lattice per filtration step
# ---------------------------------------------------------------------------

class _CellKeyedPages(FiltrationPages):
    """``FiltrationPages`` with lattices and subquotients kept per (r, p, q)."""

    def _zlattice(self, r, p, q):
        r = max(r, 0)
        key = (r, p, q)
        if key in self._zcache:
            return self._zcache[key]
        n = p + q
        cols = self.tot.filtration_columns(n, p)
        out = []
        if cols:
            g = self.tot.complex.groups[n]
            d = self.tot.complex.d(n)
            lower = set(self.tot.filtration_columns(n - 1, p - r))
            rows = [i for i in range(d.dst.dim) if i not in lower]
            restricted = GroupMap(AbGroup(tuple(g.orders[c] for c in cols)),
                                  AbGroup(tuple(d.dst.orders[i] for i in rows)),
                                  [[d.mat[i][c] for c in cols] for i in rows],
                                  check=False)
            for gen in kernel_gens(restricted):
                vec = [0] * g.dim
                for c, v in zip(cols, gen):
                    vec[c] = v
                out.append(vec)
        self._zcache[key] = out
        return out

    def _subquotient(self, r, p, q):
        key = (r, p, q)
        if key in self._subq:
            return self._subq[key]
        n = p + q
        g = self.tot.complex.groups[n] if 0 <= n <= self.tot.maxdeg else AbGroup(())
        znum = self._zlattice(r, p, q)
        den = list(self._zlattice(r - 1, p - 1, q + 1))
        dsrc = self._zlattice(r - 1, p + r - 1, q - r + 2)
        if 0 <= n + 1 <= self.tot.maxdeg:
            d = self.tot.complex.d(n + 1)
            for v in dsrc:
                den.append(list(d(v)))
        sq = Subquotient(g, znum, den, what=f"page {r} node {(p, q)}")
        self._subq[key] = sq
        return sq


def _kunneth_grids(monkeypatch, s, mods, depth):
    """The double complexes ``kunneth_check`` hands to ``pages``, with the
    numbers of subquotients built and ``kernel_gens`` calls made."""
    grids, counts = [], Counter()

    def recording(d, up_to):
        grids.append((d, up_to))
        return pages(d, up_to)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(spectral, "pages", recording)
    monkeypatch.setattr(spectral, "Subquotient", counted("Subquotient", Subquotient))
    monkeypatch.setattr(spectral, "kernel_gens", counted("kernel_gens", kernel_gens))
    kunneth_check(s, *mods, depth=depth)
    monkeypatch.undo()
    return grids, counts


def test_kunneth_pages_build_each_lattice_once(monkeypatch):
    ws = bundled_workspace()
    reg = ws.module("f2_reg")
    first, counts = _kunneth_grids(monkeypatch, ws.semiring("f2_ternary"), [reg] * 3, 2)
    # Keyed per (r, p, q), the same call builds 128 subquotients and makes
    # 190 kernel_gens calls.
    assert counts["Subquotient"] <= 68
    assert counts["kernel_gens"] <= 56
    assert _kunneth_grids(monkeypatch, ws.semiring("f2_ternary"), [reg] * 3, 2)[1] == counts
    assert len(first) == 1


@pytest.mark.parametrize("family,names", [
    ("f2_ternary", ("f2_reg", "f2_reg", "f2_reg")),
    ("z4_ternary", ("z4_reg", "z4_ideal02", "z4_mod2")),
])
def test_lattice_keys_give_the_cell_keyed_pages(monkeypatch, family, names):
    ws = bundled_workspace()
    mods = [ws.module(name) for name in names]
    ((grid, up_to),), _ = _kunneth_grids(monkeypatch, ws.semiring(family), mods, 2)
    nonzero = 0
    for d in (grid, grid.transpose()):
        got, want = FiltrationPages(d, up_to), _CellKeyedPages(d, up_to)
        assert len(got._subq) < len(want._subq)
        for a, b in zip(got.pages, want.pages, strict=True):
            assert a.entries.keys() == b.entries.keys()
            assert all(a.entries[c].orders == b.entries[c].orders for c in a.entries)
            assert a.diffs.keys() == b.diffs.keys()
            assert all(a.diffs[c].mat == b.diffs[c].mat for c in a.diffs)
            nonzero += sum(not gm.is_zero() for gm in a.diffs.values())
        assert got.stable_from() == want.stable_from()
        assert got.order_bookkeeping() == want.order_bookkeeping()
    assert nonzero > 0
