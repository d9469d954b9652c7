import ast
import random
from itertools import product
from math import prod
from pathlib import Path

import pytest
from test_axiom_engine import FAMILIES
from test_fuzz import _monoid_pool
from test_validate_once import REGULAR_FAMILIES

from ngamma.abgroups import SoundnessError
from ngamma.bundled import bundled_workspace
from ngamma.core import (
    BoundExceeded, FiniteAddMonoid, NaryGammaSemiring, StructuralError, boolean_semiring,
    bundled_semirings, f2_semiring, gamma_scaled_z4, make_matrix_family, odd_part, opposite,
    validate_semiring,
)
from ngamma.ideals import GammaIdeal, all_ideals, spectrum
from ngamma.modules import (
    BiGammaModule, Conflation, ModuleMorphism, build_module, cofree, hom_gamma, identity_module_morphism,
    ideal_submodule, opposite_module, quotient_module, regular_bimodule, tensor_positional,
    TensorCongruence, validate_module, zero_module,
)
from ngamma.completion import EquivariantHom, linearize_module
from ngamma.homology import bar_complex, homology
from ngamma import cli, oracle


def test_naive_axioms_agree_on_bundled():
    for name, s in bundled_semirings().items():
        assert validate_semiring(s).ok
        assert oracle.naive_axiom_failures(s) == [], name


def test_naive_axioms_catch_breakage():
    s = bundled_semirings()["f2_ternary"]
    bad = list(s.mu_table)
    bad[0] = 1  # mu(0,0,0) = 1
    broken = NaryGammaSemiring(3, s.T, s.gamma, tuple(bad))
    assert oracle.naive_axiom_failures(broken)
    assert not validate_semiring(broken).ok


def _reference_axiom_failures(s):
    """Every axiom violation, reading ``s.mu`` at every instance: the oracle's
    scan before it read each cell once, kept as the reference for the kinds,
    witnesses and order of its list."""
    bad = []
    t, g, n = s.T, s.gamma, s.n
    for a in range(t.size):
        for b in range(t.size):
            if t.add(a, b) != t.add(b, a):
                bad.append(("monoid-commutative", (a, b)))
            for c in range(t.size):
                if t.add(t.add(a, b), c) != t.add(a, t.add(b, c)):
                    bad.append(("monoid-associative", (a, b, c)))
        if t.add(t.zero, a) != a:
            bad.append(("monoid-zero", (a,)))
    for a in range(g.size):
        for b in range(g.size):
            if g.add(a, b) != g.add(b, a):
                bad.append(("gamma-commutative", (a, b)))
            for c in range(g.size):
                if g.add(g.add(a, b), c) != g.add(a, g.add(b, c)):
                    bad.append(("gamma-associative", (a, b, c)))
    all_x = list(product(range(t.size), repeat=n))
    all_g = list(product(range(g.size), repeat=n - 1))
    for xs in all_x:
        for gs in all_g:
            val = s.mu(xs, gs)
            for jj in range(n):
                for y in range(t.size):
                    ys = xs[:jj] + (y,) + xs[jj + 1:]
                    summed = xs[:jj] + (t.add(xs[jj], y),) + xs[jj + 1:]
                    if s.mu(summed, gs) != t.add(val, s.mu(ys, gs)):
                        bad.append(("slot-additivity", (jj, xs, y, gs)))
            for kk in range(n - 1):
                for d in range(g.size):
                    if d == gs[kk] and g.add(d, d) == d:
                        continue
                    hs = gs[:kk] + (d,) + gs[kk + 1:]
                    summed = gs[:kk] + (g.add(gs[kk], d),) + gs[kk + 1:]
                    if s.mu(xs, summed) != t.add(val, s.mu(xs, hs)):
                        bad.append(("parameter-additivity", (kk, xs, gs, d)))
            if t.zero in xs and val != t.zero:
                bad.append(("zero-absorption", (xs, gs)))
            if g.has_zero and g.zero in gs and val != t.zero:
                bad.append(("gamma-zero-absorption", (xs, gs)))
    wlen = 2 * n - 1
    for xs in product(range(t.size), repeat=wlen):
        for gs in product(range(g.size), repeat=wlen - 1):
            vals = set()
            for i in range(wlen - n + 1):
                inner = s.mu(xs[i:i + n], gs[i:i + n - 1])
                outer = xs[:i] + (inner,) + xs[i + n:]
                vals.add(s.mu(outer, gs[:i] + gs[i + n - 1:]))
            if len(vals) > 1:
                bad.append(("associativity", (xs, gs, tuple(sorted(vals)))))
    return bad


def test_naive_axioms_match_the_per_instance_reference():
    for name, s in bundled_semirings().items():
        assert oracle.naive_axiom_failures(s) == _reference_axiom_failures(s), name
    # 204 mutants, fewer where the carrier and parameter words are larger.
    per_family = {"f2_ternary": 64, "boolean_ternary": 64, "z4_ternary": 56,
                  "m2f2_binary": 12, "gamma_scaled_z4": 8}
    mutants = failing = 0
    for family, base in FAMILIES.items():
        rng = random.Random(f"oracle-reference/{family}")
        for _ in range(per_family[family]):
            mut = oracle.mutate_semiring(base, rng)
            got = oracle.naive_axiom_failures(mut)
            assert got == _reference_axiom_failures(mut), family
            mutants += 1
            failing += bool(got)
    assert mutants >= 200 and failing >= mutants // 2


def test_naive_axioms_read_each_mu_cell_once(count_calls):
    for name, s in FAMILIES.items():
        counts = count_calls(NaryGammaSemiring, "mu")
        oracle.naive_axiom_failures(s)
        assert counts["mu"] == s.T.size ** s.n * s.gamma.size ** (s.n - 1), name


def test_oracle_all_reads_each_action_cell_at_most_once(count_calls, capsys):
    # Sum over the modules of n |T|^(n-1) |Gamma|^(n-1) |M|: every cell of
    # every action table once, whatever the hom and tensor blocks compare.
    cells = sum(b.parent.n * (b.parent.T.size * b.parent.gamma.size) ** (b.parent.n - 1)
                * b.M.size for b in bundled_workspace().modules.values())
    assert cells == 888
    counts = count_calls(BiGammaModule, "act")
    assert cli.main(["--format", "structured", "oracle", "all"]) == 0
    capsys.readouterr()
    assert 0 < counts["act"] <= cells


@pytest.mark.parametrize("target", ["all", "spectrum"])
def test_oracle_scans_each_semiring_once(target, count_calls, capsys):
    # The ideals and spectrum blocks share one subset scan per semiring.
    counts = count_calls(oracle, "subset_scan_ideals", "subset_scan_primes")
    assert cli.main(["--format", "structured", "oracle", target]) == 0
    capsys.readouterr()
    semirings = len(bundled_workspace().semirings)
    assert counts["subset_scan_ideals"] == counts["subset_scan_primes"] == semirings


def test_scans_share_the_columns_they_are_given(count_calls):
    # A reader shared by a hom and a tensor scan reads each module once, and
    # a pair its bound refuses reads no action.
    ws = bundled_workspace()
    reg, sub, big = ws.modules["z4_reg"], ws.modules["z4_ideal02"], ws.modules["z4_sum"]
    maps = oracle.all_maps_hom(reg, sub)
    count = oracle.tensor_class_count(sub, reg, 2, 0)
    counts = count_calls(BiGammaModule, "act")
    columns = oracle.column_reader()
    assert oracle.all_maps_hom(reg, sub, columns) == maps
    assert oracle.tensor_class_count(sub, reg, 2, 0, columns) == count
    assert counts["act"] == 3 * 4 ** 2 * (reg.M.size + sub.M.size)
    counts.clear()
    columns = oracle.column_reader()
    with pytest.raises(BoundExceeded):
        oracle.tensor_class_count(reg, reg, 2, 0, columns)
    with pytest.raises(BoundExceeded):
        oracle.all_maps_hom(big, big, columns)
    assert counts["act"] == 0


def _verdicts(s):
    return validate_semiring(s).ok, not oracle.naive_axiom_failures(s)


def test_opposite_structure_keeps_verdicts_ideals_and_primes():
    fams = {**FAMILIES, "m2b_binary": make_matrix_family(boolean_semiring(), 2, 2)}
    for name, s in fams.items():
        op = opposite(s)
        assert _verdicts(op) == _verdicts(s) == (True, True), name
        ideals = oracle.subset_scan_ideals(s)
        assert sorted(i.bitmask for i in all_ideals(s)) == ideals, name
        assert sorted(i.bitmask for i in all_ideals(op)) == ideals, name
        assert oracle.subset_scan_ideals(op) == ideals, name
        primes = oracle.subset_scan_primes(s, ideals)
        assert sorted(p.bitmask for p in spectrum(s).primes) == primes, name
        assert sorted(p.bitmask for p in spectrum(op).primes) == primes, name
        assert oracle.subset_scan_primes(op, ideals) == primes, name
    # At least one family is not commutative, so op is not s itself there.
    assert any(opposite(s).mu_table != s.mu_table for s in fams.values())
    for family, base in FAMILIES.items():
        rng = random.Random(f"oracle-opposite/{family}")
        for _ in range(8):
            mut = oracle.mutate_semiring(base, rng)
            assert _verdicts(opposite(mut)) == _verdicts(mut), family


def _outcome(fn):
    """fn's answer, or the typed error it refuses with."""
    try:
        return fn()
    except (BoundExceeded, StructuralError, SoundnessError) as e:
        return type(e)


def test_opposite_modules_keep_verdicts_hom_and_tensor():
    # T and T^op agree on module verdicts, on Hom map counts (engine and
    # oracle) and on tensor sizes with the slots mirrored and the factors
    # swapped; where one side refuses the other refuses with the same error.
    s = FAMILIES["gamma_scaled_z4"]
    groups = [bundled_workspace().modules, {"reg": regular_bimodule(s)},
              {b.name: b for b in _one_sided_z4_modules()}]
    compared = refused = 0
    for mods in groups:
        ops = {}
        for name, b in mods.items():
            ops[name] = opposite_module(b)
            assert [(c.axiom, c.ok) for c in validate_module(ops[name]).checks] == \
                [(c.axiom, c.ok) for c in validate_module(b).checks], name
        for a, m in mods.items():
            for c, n in mods.items():
                if m.parent != n.parent:
                    continue
                mop, nop = ops[a], ops[c]
                pairs = [(_outcome(lambda: len(hom_gamma(m, n).maps)),
                          _outcome(lambda: len(hom_gamma(mop, nop).maps))),
                         (_outcome(lambda: len(oracle.all_maps_hom(m, n))),
                          _outcome(lambda: len(oracle.all_maps_hom(mop, nop))))]
                last = m.parent.n - 1
                pairs += [(_outcome(lambda: tensor_positional(m, n, j, k).module.M.size),
                           _outcome(lambda: tensor_positional(nop, mop, last - k,
                                                              last - j).module.M.size))
                          for j in range(last + 1) for k in range(last + 1)]
                for got, got_op in pairs:
                    assert got_op == got, (a, c)
                    compared += 1
                    refused += isinstance(got, type)
    assert compared > 400 and refused > 0


def test_oracle_stays_independent_of_the_engine():
    # The oracle reads tables only through core, BiGammaModule.act and
    # CompletedModule; it borrows none of the engine's scans.
    allowed = {"core": None, "modules": {"BiGammaModule"},
               "completion": {"CompletedModule"}}
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "ngamma" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ngamma"):
            module = node.module or ""
            module = module if node.level else module.removeprefix("ngamma.")
            assert module in allowed, module
            names = {a.name for a in node.names}
            assert allowed[module] is None or names <= allowed[module], names
            imported.add(module)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert node.func.attr != "actions", node.lineno
    assert imported == set(allowed)


def test_subset_scans_agree():
    fams = {name: s for name, s in REGULAR_FAMILIES.items()
            if s.T.size <= oracle.ORACLE_CARRIER_BOUND}
    for name, s in fams.items():
        ideals = oracle.subset_scan_ideals(s)
        assert sorted(i.bitmask for i in all_ideals(s)) == ideals, name
        assert sorted(p.bitmask for p in spectrum(s).primes) == \
            oracle.subset_scan_primes(s, ideals), name


def _one_sided_z4_modules():
    """Z/2 over ternary Z/4 acted on through one outer slot only, by the
    product of everything mod 2: modules whose slot columns differ."""
    z4 = bundled_semirings()["z4_ternary"]
    z2 = FiniteAddMonoid(2, (0, 1, 1, 0))
    mods = [build_module(z4, z2, lambda j, t, m, gs, slot=slot:
                         m * t[0] * t[1] % 2 if j == slot else 0, name=f"slot{slot}")
            for slot in (0, 2)]
    assert all(validate_module(b).ok for b in mods)
    return mods + [regular_bimodule(z4)]


def test_hom_enumeration_agrees():
    z4 = bundled_semirings()["z4_ternary"]
    reg = regular_bimodule(z4)
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    for m, n in [(reg, reg), (reg, sub), (sub, reg), (sub, sub)]:
        assert sorted(hom_gamma(m, n).maps) == sorted(oracle.all_maps_hom(m, n))
    for m in _one_sided_z4_modules():
        for n in _one_sided_z4_modules():
            assert sorted(hom_gamma(m, n).maps) == sorted(oracle.all_maps_hom(m, n))


def _product_filter(src, dst):
    """Additive maps by filtering every table in ``product`` order, each
    against the zero law and every sum."""
    for f in product(range(dst.size), repeat=src.size):
        if f[src.zero] == dst.zero and not any(
                f[src.add(a, b)] != dst.add(f[a], f[b])
                for a in range(src.size) for b in range(src.size)):
            yield f


def _product_filter_hom(src, dst):
    """Equivariant maps by reading both actions for every candidate."""
    s = src.parent
    return [f for f in _product_filter(src.M, dst.M)
            if all(f[src.act(jj, t, m, gs)] == dst.act(jj, t, f[m], gs)
                   for jj in range(s.n)
                   for t in product(range(s.T.size), repeat=s.n - 1)
                   for gs in product(range(s.gamma.size), repeat=s.n - 1)
                   for m in range(src.M.size))]


def test_pruned_map_search_matches_the_product_filter():
    # The same maps in the same order, on the bundled monoids and the fuzz
    # pool, wherever the oracle's bound admits the pair.
    ws = bundled_workspace()
    pool = list(ws.monoids.values()) + [m for size in range(1, 5)
                                        for m in _monoid_pool(size)]
    pairs = 0
    for src in pool:
        for dst in pool:
            if dst.size ** src.size > oracle.ORACLE_MAP_BOUND:
                continue
            pairs += 1
            assert list(oracle.all_additive_maps(src, dst)) == list(_product_filter(src, dst))
    assert pairs > 100
    for m in ws.modules.values():
        for n in ws.modules.values():
            if m.parent == n.parent and \
                    n.M.size ** m.M.size <= oracle.ORACLE_MAP_BOUND:
                assert oracle.all_maps_hom(m, n) == _product_filter_hom(m, n)


def test_injectivity_probe_cofree_extends():
    f2 = bundled_semirings()["f2_ternary"]
    reg = regular_bimodule(f2)
    z = zero_module(f2)
    cf = cofree(f2, reg.M)
    conf = Conflation(ModuleMorphism(z, reg, (0,)),
                      identity_module_morphism(reg))
    results = oracle.injectivity_probe(cf.module, [(conf, None)])
    assert all(r.ok for r in results)


def test_injectivity_probe_detects_failure():
    z4 = bundled_semirings()["z4_ternary"]
    regz = regular_bimodule(z4)
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    incl = ModuleMorphism(sub, regz, (0, 2))
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    proj = ModuleMorphism(regz, quo, (0, 1, 0, 1))
    conf = Conflation(incl, proj)
    # Target with only the zero action: the identity-like map 1 -> 1 from the
    # two-element ideal cannot extend additively over Z/4.
    z2 = FiniteAddMonoid(2, (0, 1, 1, 0))
    zact = build_module(z4, z2, lambda j, t, m, gs: 0, name="zero-action")
    assert validate_module(zact).ok
    results = oracle.injectivity_probe(zact, [(conf, [(0, 1)])])
    assert not results[0].ok
    assert results[0].witness == (0, 1)


def test_hom_group_bruteforce_agrees():
    z4 = bundled_semirings()["z4_ternary"]
    reg = linearize_module(regular_bimodule(z4))
    sub = linearize_module(ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2}))))
    for x, y in [(reg, reg), (sub, reg), (reg, sub)]:
        assert EquivariantHom(x, y).group.invariant_factors() == \
            oracle.hom_group_bruteforce(x, y)


def test_invariants_from_orders():
    # Z/6 as pairs modulo (2, 3).
    elems = [(a, b) for a in range(2) for b in range(3)]
    add = lambda u, v: ((u[0] + v[0]) % 2, (u[1] + v[1]) % 3)
    assert oracle.invariants_from_orders(elems, add, (0, 0)) == (6,)
    # Z/2 x Z/4 vs Z/8 are distinguished.
    elems24 = [(a, b) for a in range(2) for b in range(4)]
    add24 = lambda u, v: ((u[0] + v[0]) % 2, (u[1] + v[1]) % 4)
    assert oracle.invariants_from_orders(elems24, add24, (0, 0)) == (2, 4)
    elems8 = list(range(8))
    assert oracle.invariants_from_orders(elems8, lambda a, b: (a + b) % 8, 0) == (8,)


def test_invariants_from_orders_refuses_a_non_group():
    # Six elements under addition mod 3 are all killed by 3: not a power of 3,
    # so no finite abelian group has these order statistics.
    with pytest.raises(SoundnessError, match="not a power of 3"):
        oracle.invariants_from_orders(range(6), lambda a, b: (a + b) % 3, 0)


def test_tensor_class_count_agrees():
    for name, s in bundled_semirings().items():
        reg = regular_bimodule(s)
        if s.T.size == 2:
            assert oracle.tensor_class_count(reg, reg, 2, 0) == \
                tensor_positional(reg, reg, 2, 0).module.M.size
    z4 = bundled_semirings()["z4_ternary"]
    reg = regular_bimodule(z4)
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    for m, n in [(reg, sub), (sub, reg), (sub, sub), (quo, sub), (quo, quo)]:
        assert oracle.tensor_class_count(m, n, 2, 0) == \
            tensor_positional(m, n, 2, 0).module.M.size
    # Modules acted on through one slot, at every slot pair: the sizes
    # depend on which slots are balanced.
    sizes = set()
    for m, n in product(_one_sided_z4_modules(), repeat=2):
        if m.M.size * n.M.size > 8:
            continue
        for j, k in product(range(3), repeat=2):
            size = tensor_positional(m, n, j, k).module.M.size
            assert oracle.tensor_class_count(m, n, j, k) == size, (m.name, n.name, j, k)
            sizes.add(size)
    assert sizes == {1, 2}


@pytest.mark.parametrize("base", [f2_semiring, boolean_semiring])
@pytest.mark.parametrize("j, k, size", [(2, 0, 4), (1, 0, 1)])
def test_tensor_class_count_agrees_on_odd_parts(monkeypatch, base, j, k, size):
    # The regular modules of Lister's odd parts have counter boxes of 19,683
    # points, past the bound that ``oracle all`` keeps; under a raised bound
    # the brute-force count is the engine's class count.
    monkeypatch.setattr(oracle, "ORACLE_BOX_BOUND", 20000)
    reg = regular_bimodule(odd_part(base(), 2))
    assert oracle.tensor_class_count(reg, reg, j, k) == \
        TensorCongruence(reg, reg, j, k).monoid.size == size


def _full_vector_class_count(caps, wraps, relations):
    """The shift-edge walk over whole count vectors: at every box point each
    relation direction is tested on every count, and each shifted vector is
    wrapped and packed again.  The reference for the oracle's edges, which
    it builds as products of per-count moves."""
    sizes = [c + 1 for c in caps]
    total = prod(sizes)

    def pack(vec):
        out = 0
        for v, sz in zip(vec, sizes):
            out = out * sz + v
        return out

    def unpack(idx):
        out = []
        for sz in reversed(sizes):
            out.append(idx % sz)
            idx //= sz
        return list(reversed(out))

    def reduce_vec(vec):
        return [wraps[i] + (v - wraps[i]) % (caps[i] - wraps[i])
                if v > caps[i] else v for i, v in enumerate(vec)]

    parent = list(range(total))

    def find(z):
        while parent[z] != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    for idx in range(total):
        vec = unpack(idx)
        for gi in range(len(caps)):
            if vec[gi] == caps[gi]:
                other = list(vec)
                other[gi] = wraps[gi]
                union(idx, pack(other))
        for (lhs, rhs) in relations:
            if all(v >= l for v, l in zip(vec, lhs)):
                shifted = [v - l + r for v, l, r in zip(vec, lhs, rhs)]
                union(idx, pack(reduce_vec(shifted)))
            if all(v >= r for v, r in zip(vec, rhs)):
                shifted = [v - r + l for v, l, r in zip(vec, lhs, rhs)]
                union(idx, pack(reduce_vec(shifted)))

    return len({find(z) for z in range(total)})


def _gamma_scaled_z4_modules():
    s = gamma_scaled_z4()
    ideal = GammaIdeal(s, frozenset({0, 2}))
    return {"reg": regular_bimodule(s), "sub": ideal_submodule(s, ideal),
            "quo": quotient_module(s, ideal)}


def test_tensor_edges_match_the_full_vector_walk():
    # Every same-parent pair of the bundled workspace, of the Gamma-scaled
    # Z/4 modules and of the opposites of the bundled and one-sided Z/4
    # modules, at every slot pair, within the box bound.
    bundled = bundled_workspace().modules
    opposites = {b.name: opposite_module(b)
                 for b in [*bundled.values(), *_one_sided_z4_modules()]}
    groups = [bundled, _gamma_scaled_z4_modules(), opposites]
    checked = 0
    for mods in groups:
        for m in mods.values():
            for n in mods.values():
                if m.parent != n.parent:
                    continue
                for j in range(m.parent.n):
                    for k in range(m.parent.n):
                        try:
                            box = oracle.tensor_presentation(m, n, j, k)
                        except BoundExceeded:
                            continue
                        assert oracle.tensor_class_count(m, n, j, k) == \
                            _full_vector_class_count(*box), (m.name, n.name, j, k)
                        checked += 1
    assert checked > 50


def test_tensor_oracle_bound_is_enforced():
    z4 = bundled_semirings()["z4_ternary"]
    reg = regular_bimodule(z4)
    with pytest.raises(BoundExceeded):
        oracle.tensor_class_count(reg, reg, 2, 0)


def test_homology_bruteforce_agrees():
    for name, s in bundled_semirings().items():
        bar = bar_complex(s, regular_bimodule(s), 2, 0, depth=3)
        hs = homology(bar.chain)
        for r in range(4):
            assert hs[r].invariant_factors() == \
                oracle.homology_orders_bruteforce(bar.chain, r), (name, r)


def test_mutations_are_single_entry():
    rng = random.Random(5)
    s = bundled_semirings()["z4_ternary"]
    for _ in range(50):
        mut = oracle.mutate_semiring(s, rng)
        diffs = sum(a != b for a, b in zip(mut.mu_table, s.mu_table))
        diffs += sum(a != b for a, b in zip(mut.T.add_table, s.T.add_table))
        diffs += sum(a != b for a, b in zip(mut.gamma.add_table, s.gamma.add_table))
        assert diffs == 1
