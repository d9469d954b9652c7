import ast
import importlib
import importlib.util
import inspect
import itertools
import pkgutil
import random
from pathlib import Path

import pytest

import ngamma
from ngamma import intlinalg as la

from ngamma.abgroups import SoundnessError
from ngamma.completion import EquivariantHom, TensorGroup
from ngamma.core import (
    FiniteAddMonoid, GammaSemigroup, GammaSemiringMorphism, NaryGammaSemiring,
    StructuralError, boolean_semiring, boolean_ternary, bundled_semirings, f2_semiring,
    f2_ternary, gamma_scaled_z4, identity_morphism, make_endomorphism_family,
    make_matrix_family, neutral_words, opposite, product, relabel, trivial_gamma,
    flatten_index, truncated_nat_semiring, validate_morphism, validate_semiring,
    ternary_from_semiring, upper_triangular, word_product, z4_ternary, zmod_semiring,
)
from ngamma.ideals import all_ideals
from ngamma.modules import (
    opposite_module, quotient_module, regular_bimodule, relabel_module, validate_module,
)


def test_bundled_families_validate():
    for name, s in bundled_semirings().items():
        report = validate_semiring(s)
        assert report.ok, f"{name}: {report}"


def test_zero_absorption_failure_carries_witness():
    s = f2_ternary()
    # Corrupt mu(1,0,1) to 1: zero absorption must fail with that witness.
    bad = list(s.mu_table)
    bad[1 * 4 + 0 * 2 + 1] = 1
    broken = NaryGammaSemiring(3, s.T, s.gamma, tuple(bad))
    report = validate_semiring(broken)
    assert not report.ok
    failed = {c.axiom for c in report.failures()}
    assert "zero absorption" in failed


def test_mu_examples():
    s = f2_ternary()
    assert s.mu((1, 1, 1), (0, 0)) == 1
    assert s.mu((1, 0, 1), (0, 0)) == 0
    for xs in itertools.product(range(2), repeat=3):
        if 0 in xs:
            assert s.mu(xs, (0, 0)) == 0


def _regular_and_quotients(s):
    """The regular module and its quotient by every proper nonzero ideal, so
    that the module element's size differs from the carrier's."""
    return [regular_bimodule(s)] + [quotient_module(s, i) for i in all_ideals(s)
                                    if i.is_proper() and len(i.members) > 1]


def test_mu_and_act_read_the_flat_tables():
    # mu and act fold the flat index by Horner; each must read the cell that
    # flatten_index addresses in mu_table and act_tables, everywhere.
    z2 = GammaSemigroup(2, (0, 1, 1, 0), has_zero=True, zero=0)
    # The ternary M2(F2) is there because only a non-commutative carrier
    # tells the carrier positions of a table apart.
    families = [make_matrix_family(f2_semiring(), 2, 2),
                make_matrix_family(f2_semiring(), 2, 3),
                gamma_scaled_z4(),
                make_matrix_family(zmod_semiring(4), 1, 4, gamma=z2, gamma_scalars=(0, 2))]
    quotients = 0
    for s in families:
        n, ts, gsz = s.n, s.T.size, s.gamma.size
        for xs in itertools.product(range(ts), repeat=n):
            for gs in itertools.product(range(gsz), repeat=n - 1):
                assert s.mu(xs, gs) == s.mu_table[flatten_index(xs + gs, s.sizes)]
        modules = _regular_and_quotients(s)
        quotients += len(modules) - 1
        for b in modules:
            for j in range(n):
                sizes = [ts] * j + [b.M.size] + [ts] * (n - 1 - j) + [gsz] * (n - 1)
                for t in itertools.product(range(ts), repeat=n - 1):
                    for gs in itertools.product(range(gsz), repeat=n - 1):
                        for m in range(b.M.size):
                            args = t[:j] + (m,) + t[j:] + gs
                            assert b.act(j, t, m, gs) == \
                                b.act_tables[j][flatten_index(args, sizes)]
        with pytest.raises(StructuralError):
            s.mu((0,) * (n - 1), (0,) * (n - 1))
        with pytest.raises(StructuralError):
            s.mu((0,) * n, (0,) * n)
    assert quotients  # the Z/4 families give modules smaller than the carrier


def test_word_product():
    s = f2_ternary()
    assert word_product(s, (1, 1, 1), (0, 0)) == s.mu((1, 1, 1), (0, 0))
    assert word_product(s, (1, 1, 1, 1, 1), (0, 0, 0, 0)) == 1
    assert word_product(s, (1, 0, 1, 1, 1), (0, 0, 0, 0)) == 0
    with pytest.raises(StructuralError):
        word_product(s, (1, 1), (0,))
    with pytest.raises(StructuralError):
        word_product(s, (1, 1, 1, 1), (0, 0, 0))


def _all_bracketing_values(s, xs, gs):
    """The value of every admissible bracketing of the word, recursively."""
    n = s.n
    if len(xs) == n:
        return [s.mu(xs, gs)]
    vals = []
    for i in range(len(xs) - n + 1):
        inner = s.mu(xs[i:i + n], gs[i:i + n - 1])
        vals.extend(_all_bracketing_values(
            s, xs[:i] + (inner,) + xs[i + n:], gs[:i] + gs[i + n - 1:]))
    return vals


def bracketed_product(s, xs, gs):
    """The word's product, raising SoundnessError when bracketings disagree."""
    vals = _all_bracketing_values(s, tuple(xs), tuple(gs))
    if len(set(vals)) > 1:
        raise SoundnessError(f"word {xs} has bracket-dependent values {sorted(set(vals))}")
    return vals[0]


def test_word_bracketing_independence_exhaustive():
    for s in bundled_semirings().values():
        for xs in s.t_tuples(5):
            for gs in s.g_tuples(4):
                assert bracketed_product(s, xs, gs) == word_product(s, xs, gs)


def test_word_bracketing_flag_detects_broken_table():
    s = f2_ternary()
    bad = list(s.mu_table)
    bad[1 * 4 + 1 * 2 + 1] = 0  # mu(1,1,1) = 0 while the rest stays
    broken = NaryGammaSemiring(3, s.T, s.gamma, tuple(bad))
    # This particular corruption keeps every bracketing at zero, so take a
    # table that is genuinely bracket-dependent instead.
    dep = list(s.mu_table)
    dep[0 * 4 + 1 * 2 + 1] = 1  # mu(0,1,1) = 1
    broken = NaryGammaSemiring(3, s.T, s.gamma, tuple(dep))
    with pytest.raises(SoundnessError):
        for xs in itertools.product(range(2), repeat=5):
            bracketed_product(broken, xs, (0, 0, 0, 0))


def test_matrix_family_boolean_1x1():
    s = make_matrix_family(boolean_semiring(), 1, 3)
    assert len(s.mu_table) == 8
    assert validate_semiring(s).ok
    assert s.mu((1, 1, 1), (0, 0)) == 1
    assert s.mu((1, 0, 1), (0, 0)) == 0
    assert s.mu_table == boolean_ternary().mu_table


def test_matrix_family_f2_1x1_equals_scalar_family():
    s = make_matrix_family(f2_semiring(), 1, 3)
    assert s.mu_table == f2_ternary().mu_table
    assert s.T.add_table == f2_ternary().T.add_table


def test_matrix_family_zero_absorption_2x2():
    s = make_matrix_family(boolean_semiring(), 2, 3)
    zero = s.T.zero
    for a in (1, 5, 9):
        assert s.mu((a, zero, a), (0, 0)) == zero


def test_endomorphism_family_z2():
    m = FiniteAddMonoid(2, (0, 1, 1, 0))
    s = make_endomorphism_family(m, 3)
    assert s.T.size == 2  # zero map and identity
    ident = 1
    assert s.mu((ident, ident, ident), (0, 0)) == ident
    assert s.mu((ident, 0, ident), (0, 0)) == 0
    assert validate_semiring(s).ok


def test_endomorphism_family_z3():
    m = FiniteAddMonoid(3, tuple((a + b) % 3 for a in range(3) for b in range(3)))
    s = make_endomorphism_family(m, 3)
    assert s.T.size == 3  # multiplication by 0, 1, 2
    assert s.mu((2, 2, 2), (0, 0)) == 2  # 2*2*2 = 8 = 2 mod 3
    assert validate_semiring(s).ok


def _additive_tables(m: FiniteAddMonoid) -> list[tuple[int, ...]]:
    """Reference: every table of |M|^|M| that is an additive self-map, in
    ``itertools.product`` (lexicographic) order."""
    return [f for f in itertools.product(range(m.size), repeat=m.size)
            if f[m.zero] == m.zero and all(f[m.add(a, b)] == m.add(f[a], f[b])
                                           for a in range(m.size) for b in range(m.size))]


@pytest.mark.parametrize("m", [
    FiniteAddMonoid(4, tuple(a ^ b for a in range(4) for b in range(4))),
    FiniteAddMonoid(4, tuple((a + b) % 4 for a in range(4) for b in range(4))),
    FiniteAddMonoid(2, (0, 1, 1, 1)),
], ids=["K4", "Z4", "B"])
def test_endomorphism_family_orders_elements_as_the_table_filter(m):
    ends = _additive_tables(m)
    index = {f: i for i, f in enumerate(ends)}
    s = make_endomorphism_family(m, 2)
    assert s.T.add_table == tuple(index[tuple(m.add(a, b) for a, b in zip(f, g))]
                                  for f in ends for g in ends)
    assert s.mu_table == tuple(index[tuple(f[g[x]] for x in range(m.size))]
                               for f in ends for g in ends)


def test_plain_semirings_are_binary_and_trivially_parameterized():
    s = boolean_semiring()
    assert (s.n, s.gamma, s.mu_table) == (2, trivial_gamma(), (0, 0, 0, 1))
    assert neutral_words(s) == [(1, (0,))]
    assert validate_semiring(s).ok and validate_semiring(truncated_nat_semiring(2)).ok

    zero_ring = NaryGammaSemiring(2, FiniteAddMonoid(1, (0,)), trivial_gamma(), (0,))
    assert validate_semiring(zero_ring).ok and neutral_words(zero_ring) == [(0, (0,))]

    # 0 * 1 = 1 breaks zero absorption, so no builder takes it as a base.
    broken = NaryGammaSemiring(2, FiniteAddMonoid(2, (0, 1, 1, 0)), trivial_gamma(),
                               (0, 1, 1, 1))
    assert not validate_semiring(broken).ok
    with pytest.raises(StructuralError):
        upper_triangular(broken, 2)
    # The families fold a binary, trivially parameterized base only.
    for base in (f2_ternary(), gamma_scaled_z4()):
        with pytest.raises(StructuralError):
            ternary_from_semiring(base)
        with pytest.raises(StructuralError):
            make_matrix_family(base, 1, 2)


def test_product_is_componentwise_and_needs_one_arity_and_one_gamma():
    a, b = zmod_semiring(2), zmod_semiring(3)
    s = product(a, b)
    assert (s.name, s.T.size, validate_semiring(s).ok) == ("z2xz3", 6, True)
    for x, y, u, v in itertools.product(range(2), range(3), range(2), range(3)):
        assert s.T.add(3 * x + y, 3 * u + v) == 3 * a.T.add(x, u) + b.T.add(y, v)
        assert s.mu((3 * x + y, 3 * u + v), (0,)) == 3 * a.mu((x, u), (0,)) + b.mu((y, v), (0,))
    for left, right in ((a, ternary_from_semiring(b)), (z4_ternary(), gamma_scaled_z4())):
        with pytest.raises(StructuralError):
            product(left, right)


def test_relabel_and_opposite_undo_themselves_and_keep_the_axioms():
    # Each family's regular module and its quotients, whose carriers are
    # smaller than T, are copied too; M2(F2)'s opposite is another table.
    rng = random.Random("builder-laws")
    for s in (z4_ternary(), gamma_scaled_z4(), make_matrix_family(f2_semiring(), 2, 2)):
        perm = rng.sample(range(s.T.size), s.T.size)
        inv = sorted(range(s.T.size), key=perm.__getitem__)
        assert relabel(relabel(s, perm), inv) == s
        assert opposite(opposite(s)).mu_table == s.mu_table
        assert validate_semiring(relabel(s, perm)).ok and validate_semiring(opposite(s)).ok
        for b in _regular_and_quotients(s):
            mperm = rng.sample(range(b.M.size), b.M.size)
            moved = relabel_module(b, perm, mperm)
            back = relabel_module(moved, inv, sorted(range(b.M.size), key=mperm.__getitem__))
            assert (back.parent, back.M, back.act_tables) == (b.parent, b.M, b.act_tables)
            assert opposite_module(opposite_module(b)).act_tables == b.act_tables
            assert validate_module(moved).ok and validate_module(opposite_module(b)).ok
    with pytest.raises(StructuralError):
        relabel(z4_ternary(), [0, 1, 1, 3])


def test_relabellings_are_the_benchmark_generators():
    # perfbench/gen.py's relabellers, loaded by path, give the same tables
    # on every relabelled family it generates.
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    cases = [(workload, fam, s, seed) for workload in ("derived", "tables")
             for fam, (s, relabelled) in gen.families(workload).items() if relabelled
             for seed in range(3)]
    assert len(cases) == 6
    for workload, fam, s, seed in cases:
        tperm, mperm = (gen.permutation(workload, seed, f"{fam}.{part}", s.T.size)
                        for part in "TM")
        reg, want = regular_bimodule(s), gen.relabel_semiring(s, tperm)
        copy, got = relabel(s, tperm), relabel_module(reg, tperm, mperm)
        want_reg = gen.relabel_module(reg, want, tperm, mperm)
        assert (copy.T, copy.mu_table, got.M, got.act_tables) == \
            (want.T, want.mu_table, want_reg.M, want_reg.act_tables), (fam, seed)


def test_validate_morphism():
    s = f2_ternary()
    assert validate_morphism(identity_morphism(s)).ok
    const = GammaSemiringMorphism(s, s, (1, 1))
    rep = validate_morphism(const)
    assert not rep.ok
    assert not rep.checks[0].ok  # additivity fails first


def test_morphism_structural_checks():
    s = f2_ternary()
    z4 = z4_ternary()
    with pytest.raises(StructuralError):
        GammaSemiringMorphism(s, s, (0, 1, 1))
    q = GammaSemiringMorphism(z4, s, (0, 1, 0, 1))
    assert validate_morphism(q).ok


def test_neutral_words():
    assert neutral_words(f2_ternary()) == [(1, (0, 0))]
    assert neutral_words(boolean_ternary()) == [(1, (0, 0))]
    assert neutral_words(z4_ternary()) == [(1, (0, 0)), (3, (0, 0))]


def test_mu_additivity_in_every_slot():
    # Slot additivity restated directly against the tables.
    for s in bundled_semirings().values():
        for j in range(s.n):
            for rest in s.t_tuples(s.n - 1):
                for x in s.T.elements():
                    for y in s.T.elements():
                        xs = rest[:j] + (s.T.add(x, y),) + rest[j:]
                        a = rest[:j] + (x,) + rest[j:]
                        b = rest[:j] + (y,) + rest[j:]
                        assert s.mu(xs, (0, 0)) == s.T.add(s.mu(a, (0, 0)), s.mu(b, (0, 0)))


def test_structural_errors():
    with pytest.raises(StructuralError):
        FiniteAddMonoid(2, (0, 1, 1))
    with pytest.raises(StructuralError):
        FiniteAddMonoid(2, (0, 1, 1, 2))
    with pytest.raises(StructuralError):
        GammaSemigroup(1, (0,), has_zero=True, zero=None)
    # An unflagged zero is read by no law and written as null by the
    # workspace, so it would only make equal semigroups compare unequal.
    with pytest.raises(StructuralError, match="^a zero is given but not flagged$"):
        GammaSemigroup(1, (0,), has_zero=False, zero=0)
    with pytest.raises(StructuralError):
        NaryGammaSemiring(3, FiniteAddMonoid(2, (0, 1, 1, 0)), trivial_gamma(), (0,) * 7)


@pytest.mark.parametrize("n", [40, 10**6, 10**8])
def test_huge_arity_is_refused_without_forming_the_table_size(n):
    # |T|^n |Γ|^(n-1) for n = 10^6 has too many digits for str(), and for
    # n = 10^8 it takes seconds to form; the refusal needs neither.
    z2 = FiniteAddMonoid(2, (0, 1, 1, 0))
    with pytest.raises(StructuralError, match=f"arity {n} needs"):
        NaryGammaSemiring(n, z2, trivial_gamma(), (0,) * 8)
    with pytest.raises(StructuralError, match=f"arity {n} needs"):
        NaryGammaSemiring(n, FiniteAddMonoid(1, (0,)), GammaSemigroup(2, (0, 1, 1, 0)),
                          (0,) * 8)


def test_additive_generators():
    z4 = z4_ternary().T
    assert z4.additive_generators() == [1]
    bool2 = make_matrix_family(boolean_semiring(), 2, 3).T
    gens = bool2.additive_generators()
    assert len(gens) == 4  # the four matrix units
    assert bool2.additive_closure(gens) == set(range(16))


def test_engine_has_no_assert_statements():
    # ``python -O`` strips asserts, so no check in the package, the oracle's
    # included, may rest on one.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ngamma.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _public_signatures():
    """(qualified name, parameter names) of every public function, class and
    public method defined in an ``ngamma`` module; exceptions take a message."""
    for info in pkgutil.iter_modules(ngamma.__path__):
        mod = importlib.import_module(f"ngamma.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                members = [(name, obj)] + [(f"{name}.{attr}", fn)
                                           for attr, fn in vars(obj).items()
                                           if not attr.startswith("_") and inspect.isfunction(fn)]
            else:
                continue
            for qual, fn in members:
                yield f"{info.name}.{qual}", list(inspect.signature(fn).parameters)


def test_bounds_are_module_constants_and_unset_options_are_gone():
    # Refusal bounds live in module constants read when their check runs;
    # only the carrier-size bound of ideal enumeration, which the CLI's
    # --bound sets, is a parameter.
    bounds = {"bound", "element_bound", "word_bound", "box_bound"}
    unnamed = {"modules.cofree", "modules.tensor_positional", "modules.direct_sum_modules",
               "completion.linearize_module", "completion.TensorGroup",
               "completion.zero_completed", "completion.direct_sum_completed",
               "spectral.extend_scalars", "core.product",
               "core.make_matrix_family", "core.make_endomorphism_family", "core.relabel",
               "core.opposite", "core.gamma_scaled_z4", "core.truncated_polynomial",
               "core.upper_triangular", "core.odd_part", "modules.relabel_module",
               "modules.opposite_module"}
    signatures = dict(_public_signatures())
    assert {qual for qual, params in signatures.items() if bounds & set(params)} == \
        {"ideals.all_ideals", "ideals.spectrum"}
    assert unnamed <= set(signatures)
    assert [qual for qual in sorted(unnamed) if "name" in signatures[qual]] == []
    assert signatures["core.make_endomorphism_family"] == ["monoid", "arity"]


def test_hom_and_tensor_induced_maps_take_one_side_alike():
    # Both functors map one side at a time: (dst, side, gm, *, what).
    kinds = [[(p.name, p.kind) for p in inspect.signature(cls.induced).parameters.values()]
             for cls in (EquivariantHom, TensorGroup)]
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert kinds[0] == kinds[1] == [("self", positional), ("dst", positional),
                                    ("side", positional), ("gm", positional),
                                    ("what", inspect.Parameter.KEYWORD_ONLY)]


# The entry points that share one memo of factorizations per call
# (``intlinalg.shares_factorizations``), with their parameters: wrapping
# them adds and removes none.
SHARING_ENTRY_POINTS = {
    "homology.bar_complex": ["s", "module", "j", "k", "depth", "policy"],
    "homology.ext_via_bar": ["s", "m", "n", "j", "k", "depth", "policy"],
    "homology.tor_via_bar": ["s", "m", "n", "j", "k", "depth", "policy"],
    "homology.cofree_coresolution": ["s", "b", "depth"],
    "homology.ext_via_cofree": ["s", "m", "n", "depth"],
    "homology.balance_check": ["s", "m", "n", "depth", "j", "k"],
    "homology.les_check": ["c", "n", "depth", "side", "j", "k"],
    "homology.yoneda_compose": ["ext_nl", "p", "f_cocycle", "ext_mn", "q", "g_cocycle",
                                "ext_ml", "rng"],
    "spectral.kunneth_check": ["s", "m", "n", "l", "depth", "j", "k"],
    "spectral.base_change_check": ["f", "m", "n", "depth", "j", "k"],
}


def test_sharing_entry_points_keep_their_parameters():
    scoped = la.shares_factorizations(lambda: None).__code__
    wrapped = set()
    for info in pkgutil.iter_modules(ngamma.__path__):
        for name, obj in vars(importlib.import_module(f"ngamma.{info.name}")).items():
            fn = obj.__init__ if inspect.isclass(obj) else obj
            if getattr(fn, "__code__", None) is scoped:
                wrapped.add(f"{obj.__module__.removeprefix('ngamma.')}.{name}")
    assert wrapped == set(SHARING_ENTRY_POINTS)
    signatures = dict(_public_signatures())
    assert {qual: signatures[qual] for qual in SHARING_ENTRY_POINTS} == SHARING_ENTRY_POINTS


def test_slot_tables_are_read_only_in_modules():
    # ``BiGammaModule.actions`` and ``module_from_actions`` are the one reader
    # and writer of the slot-table layout; the workspace serialises the
    # tables as they stand.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ngamma.__file__).parent.rglob("*.py"))
             if path.name not in ("modules.py", "workspace.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "act_tables"]
    assert found == []


def test_only_the_oracle_reads_modules_cell_by_cell():
    # Engine loops read a module through ``BiGammaModule.actions`` columns;
    # the oracle keeps its direct per-cell scans.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ngamma.__file__).parent.rglob("*.py"))
             if path.name != "oracle.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "act"]
    assert found == []


def _functions(tree, prefix=""):
    """(qualified name, node) of every function and method under ``tree``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def test_only_the_bar_tower_takes_a_contraction_policy():
    # The semiring picks the contraction (homology.default_policy); only the
    # bar tower and its two derived functors take one, and the command line
    # offers no choice.
    package = Path(ngamma.__file__).parent
    found = sorted(f"{path.name}:{name}"
                   for path in sorted(package.rglob("*.py"))
                   for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")))
                   if any(isinstance(a, ast.arg) and a.arg == "policy"
                          for a in ast.walk(fn.args)))
    assert found == ["homology.py:bar_complex", "homology.py:ext_via_bar",
                     "homology.py:tor_via_bar"]
    cli_tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(cli_tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(cli_tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(cli_tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not names & {"ContractionPolicy", "default_policy"}


def test_towers_are_built_only_by_the_resolution_constructors():
    # ``homology.Resolution`` checks a tower exact when it is built; the bar
    # and the cofree tower are its only builders, and only ``homology``
    # reads the bar's own fields.  No tower keeps a lift cache, a findings
    # report or a carrier of its own.
    builders, readers, leftovers = [], [], []
    for path in sorted(Path(ngamma.__file__).parent.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "Resolution"]
        builders += [f"{path.name}:{name}" for name, fn in _functions(tree)
                     for node in ast.walk(fn) if node in calls]
        assert len(builders) >= len(calls), path.name
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if path.name != "homology.py" and isinstance(node, ast.Attribute)
                    and node.attr in ("tensors", "word_dims")]
        leftovers += [f"{path.name}:{word}" for word in ("lift_stages", "exactness_findings")
                      if word in text]
        leftovers += [f"{path.name}:{name}" for name, fn in _functions(tree)
                      if any(a.arg == "carrier" for a in ast.walk(fn.args)
                             if isinstance(a, ast.arg))]
    assert builders == ["homology.py:bar_complex", "homology.py:cofree_coresolution"]
    assert readers == [] and leftovers == []


def test_no_kronecker_matrix_is_built():
    # Every pair-space product has an identity factor and is contracted
    # through the other one alone (``intlinalg.mul_kron_identity`` and
    # ``kron_identity_mul``), and a tensor group's operators are summed from
    # its matrix units: no module defines or calls a dense ``kron``.
    found = []
    for path in sorted(Path(ngamma.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.name == "kron")
                  or (isinstance(node, ast.Call) and getattr(
                      node.func, "id", getattr(node.func, "attr", None)) == "kron")]
    assert found == []


def test_smith_normal_form_has_one_kind_flag_and_no_transform_selection():
    # A factorization is a presentation form (S, S^-1) or a solver form
    # (S, T), chosen by one keyword-only flag; no caller names transforms,
    # and kernels and solutions are read off a solver form.
    params = inspect.signature(la.smith_normal_form).parameters
    assert [(name, p.kind) for name, p in params.items()] == \
        [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in ("a", "nrows", "ncols")] \
        + [("solve", inspect.Parameter.KEYWORD_ONLY)]
    assert [name for name in ("TRANSFORMS", "kernel_basis", "solve") if hasattr(la, name)] == []
    found = []
    for path in sorted(Path(ngamma.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.keyword, ast.arg))
                  and getattr(node, "arg", None) == "track"]
    assert found == []


def test_derived_results_are_built_only_by_the_ext_and_tor_entry_points():
    # Consumers read a ``homology.DerivedResult`` off ``ext_via_bar``,
    # ``tor_via_bar`` or ``ext_via_cofree``, each of which shares its towers
    # through the call's scope; ``spectral`` builds no functor complex and
    # imports neither the record nor the functors.
    builders, spectral_names = [], set()
    for path in sorted(Path(ngamma.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builders += [f"{path.name}:{name}" for name, fn in _functions(tree)
                     for node in ast.walk(fn) if isinstance(node, ast.Call)
                     and getattr(node.func, "id", getattr(node.func, "attr", None))
                     == "DerivedResult"]
        if path.name == "spectral.py":
            spectral_names = ({getattr(node, "id", None) for node in ast.walk(tree)}
                              | {getattr(node, "attr", None) for node in ast.walk(tree)}
                              | {alias.name for node in ast.walk(tree)
                                 if isinstance(node, ast.ImportFrom) for alias in node.names})
    assert builders == ["homology.py:ext_via_bar", "homology.py:tor_via_bar",
                        "homology.py:ext_via_cofree"]
    assert not spectral_names & {"DerivedResult", "HomCochain", "TensorChain"}


def test_derived_groups_are_read_only_through_the_derived_result():
    # ``homology.DerivedResult`` is the one reader of Ext and Tor: the
    # deleted ``ExtSetup`` and ``spectral.ext_modules_with_ops`` stay gone,
    # and no code outside the record takes the homology of a Hom or tensor
    # complex, whether built in the call or bound to a name first.
    deleted = {"ExtSetup", "ext_modules_with_ops"}
    functors = {"HomCochain", "TensorChain"}

    def builds_functor(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functors)

    returned, readers = [], []
    for path in sorted(Path(ngamma.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        returned += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if {getattr(node, attr, None) for attr in ("name", "id", "attr")}
                     & deleted]
        for name, fn in _functions(tree):
            if name.startswith("DerivedResult."):
                continue
            bound = {target.id for node in ast.walk(fn)
                     if isinstance(node, ast.Assign) and builds_functor(node.value)
                     for target in node.targets if isinstance(target, ast.Name)}
            readers += [f"{path.name}:{name}" for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and "homology" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None))
                        and any(builds_functor(sub) or (isinstance(sub, ast.Name)
                                                         and sub.id in bound)
                                for arg in node.args for sub in ast.walk(arg))]
    assert returned == [] and readers == []
