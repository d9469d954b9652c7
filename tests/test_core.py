import ast
from itertools import product
from pathlib import Path

import pytest

import ngamma

from ngamma.abgroups import SoundnessError
from ngamma.core import (
    BinarySemiring, FiniteAddMonoid, GammaSemigroup, GammaSemiringMorphism,
    NaryGammaSemiring, StructuralError, binary_specialization,
    boolean_semiring, boolean_ternary, bundled_semirings, f2_semiring,
    f2_ternary, identity_morphism, make_endomorphism_family,
    make_matrix_family, mu_eval, neutral_words, trivial_gamma,
    truncated_nat_semiring, validate_morphism, validate_semiring,
    word_product, z4_ternary,
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


def test_mu_eval_examples():
    s = f2_ternary()
    assert mu_eval(s, (1, 1, 1), (0, 0)) == 1
    assert mu_eval(s, (1, 0, 1), (0, 0)) == 0
    for xs in product(range(2), repeat=3):
        if 0 in xs:
            assert mu_eval(s, xs, (0, 0)) == 0
    with pytest.raises(StructuralError):
        mu_eval(s, (2, 0, 0), (0, 0))


def test_word_product():
    s = f2_ternary()
    assert word_product(s, (1, 1, 1), (0, 0)) == s.mu((1, 1, 1), (0, 0))
    assert word_product(s, (1, 1, 1, 1, 1), (0, 0, 0, 0)) == 1
    assert word_product(s, (1, 0, 1, 1, 1), (0, 0, 0, 0)) == 0
    with pytest.raises(StructuralError):
        word_product(s, (1, 1), (0,))
    with pytest.raises(StructuralError):
        word_product(s, (1, 1, 1, 1), (0, 0, 0))


def test_word_bracketing_independence_exhaustive():
    for s in bundled_semirings().values():
        for xs in s.t_tuples(5):
            for gs in s.g_tuples(4):
                word_product(s, xs, gs, check_bracketings=True)


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
        for xs in product(range(2), repeat=5):
            word_product(broken, xs, (0, 0, 0, 0), check_bracketings=True)


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
    for _ in range(5):
        pass
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


def test_binary_specialization():
    s = binary_specialization(boolean_semiring())
    assert s.n == 2 and s.gamma.size == 1
    assert s.mu((1, 1), (0,)) == 1
    assert validate_semiring(s).ok
    # Forgetting the parameter recovers the input multiplication table.
    assert s.mu_table == boolean_semiring().mul_table

    s2 = binary_specialization(truncated_nat_semiring(2))
    assert validate_semiring(s2).ok

    zero_ring = BinarySemiring(1, (0,), (0,), zero=0, one=0)
    s3 = binary_specialization(zero_ring)
    assert validate_semiring(s3).ok
    assert set(s3.mu_table) == {0}

    broken = BinarySemiring(2, (0, 1, 1, 0), (0, 1, 1, 1))
    with pytest.raises(StructuralError):
        binary_specialization(broken)


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
    with pytest.raises(StructuralError):
        NaryGammaSemiring(3, FiniteAddMonoid(2, (0, 1, 1, 0)), trivial_gamma(), (0,) * 7)


def test_additive_generators():
    z4 = z4_ternary().T
    assert z4.additive_generators() == [1]
    bool2 = make_matrix_family(boolean_semiring(), 2, 3).T
    gens = bool2.additive_generators()
    assert len(gens) == 4  # the four matrix units
    assert bool2.additive_closure(gens) == set(range(16))


def test_engine_has_no_assert_statements():
    # ``python -O`` strips asserts, so no engine check may rest on one; the
    # oracle is a test aid and keeps its asserts.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ngamma.__file__).parent.rglob("*.py"))
             if path.name != "oracle.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
