import os
import random
import subprocess
import sys
from pathlib import Path

from ngamma import intlinalg as la
from ngamma.abgroups import GroupMap, isomorphic
from ngamma.core import (
    FiniteAddMonoid, boolean_ternary, f2_semiring, f2_ternary,
    make_matrix_family, truncated_nat_semiring, z4_ternary,
)
from ngamma.ideals import GammaIdeal
from ngamma.modules import (
    ModuleMorphism, hom_gamma, ideal_submodule, quotient_module,
    regular_bimodule, tensor_positional,
)
from ngamma.completion import (
    EquivariantHom, TensorGroup, direct_sum_completed, group_complete,
    linearize_module, linearize_morphism, zero_completed,
)


def test_group_complete_examples():
    z2 = FiniteAddMonoid(2, (0, 1, 1, 0))
    comp = group_complete(z2)
    assert comp.group.invariant_factors() == (2,)
    assert comp.vector(1) != comp.group.zero()

    boolm = FiniteAddMonoid(2, (0, 1, 1, 1))
    assert group_complete(boolm).group.is_trivial()

    # Saturating counter {0,1,2}: 2+1 = 2 collapses everything.
    nat = truncated_nat_semiring(2)
    tri = FiniteAddMonoid(3, nat.add_table)
    assert group_complete(tri).group.is_trivial()


def test_group_complete_idempotent_on_groups():
    z4m = FiniteAddMonoid(4, tuple((a + b) % 4 for a in range(4) for b in range(4)))
    comp = group_complete(z4m)
    assert comp.group.invariant_factors() == (4,)
    # Completion of a group is the group again.
    assert comp.group.order() == 4
    assert len({comp.vector(m) for m in range(4)}) == 4


def test_completion_functorial_naturality():
    z4 = z4_ternary()
    f2 = f2_ternary()
    reg4 = regular_bimodule(z4)
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    proj = ModuleMorphism(reg4, quo, (0, 1, 0, 1))
    c4 = linearize_module(reg4)
    c2 = linearize_module(quo)
    gm = linearize_morphism(proj, c4, c2)
    for m in range(4):
        assert gm(c4.completion.vector(m)) == c2.completion.vector(proj(m))


def test_linearize_module_examples():
    f2 = f2_ternary()
    lin = linearize_module(regular_bimodule(f2))
    assert lin.group.invariant_factors() == (2,)
    for slot in range(3):
        for w in range(len(lin.ops[slot])):
            assert lin.op(slot, w).src is lin.group

    boolt = boolean_ternary()
    linb = linearize_module(regular_bimodule(boolt))
    assert linb.group.is_trivial()

    z = zero_completed(f2)
    assert z.group.is_trivial()


def test_equivariant_hom_group_examples():
    f2 = f2_ternary()
    lin = linearize_module(regular_bimodule(f2))
    hom = EquivariantHom(lin, lin)
    assert hom.group.invariant_factors() == (2,)
    # Elements realize as the zero map and the identity.
    mats = sorted(tuple(tuple(r) for r in hom.matrix(c).mat)
                  for c in hom.group.elements())
    assert mats == [((0,),), ((1,),)]

    triv = zero_completed(f2)
    assert EquivariantHom(lin, triv).group.is_trivial()

    double = direct_sum_completed([lin, lin])
    hom2 = EquivariantHom(double, lin)
    assert hom2.group.invariant_factors() == (2, 2)


def test_equivariant_hom_group_z4():
    z4 = z4_ternary()
    lin = linearize_module(regular_bimodule(z4))
    hom = EquivariantHom(lin, lin)
    assert hom.group.invariant_factors() == (4,)
    sub = linearize_module(ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2}))))
    hom2 = EquivariantHom(sub, lin)
    assert hom2.group.invariant_factors() == (2,)


def test_hom_coords_roundtrip():
    z4 = z4_ternary()
    lin = linearize_module(regular_bimodule(z4))
    hom = EquivariantHom(lin, lin)
    for c in hom.group.elements():
        mat = hom.matrix(c)
        back = hom.coords(mat)
        assert back == c


def test_balanced_tensor_group_examples():
    f2 = f2_ternary()
    lin = linearize_module(regular_bimodule(f2))
    t = TensorGroup(lin, lin, 2, 0)
    assert t.group.invariant_factors() == (2,)

    triv = zero_completed(f2)
    assert TensorGroup(lin, triv, 2, 0).group.is_trivial()

    z4 = z4_ternary()
    lin4 = linearize_module(regular_bimodule(z4))
    sub = linearize_module(ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2}))))
    t2 = TensorGroup(lin4, sub, 2, 0)
    assert t2.group.invariant_factors() == (2,)
    mod = t2.as_module()
    assert mod.group.invariant_factors() == (2,)


def test_tensor_group_matches_monoid_tensor_completion():
    # Right-exactness shadow: K(tensor of modules) = balanced tensor of K's.
    z4 = z4_ternary()
    reg = regular_bimodule(z4)
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    for (m, n) in [(reg, reg), (reg, sub), (sub, sub)]:
        monoid_level = tensor_positional(m, n, 2, 0)
        k_of_tensor = group_complete(monoid_level.module.M).group
        lin_t = TensorGroup(linearize_module(m), linearize_module(n), 2, 0)
        assert isomorphic(k_of_tensor, lin_t.group)


def test_hom_group_embeds_in_completed_hom_module():
    # Compare orders of the equivariant hom group against the completion of
    # the enumerated hom module; strict inequality would be a finding.
    z4 = z4_ternary()
    reg = regular_bimodule(z4)
    hom_monoid = hom_gamma(reg, reg)
    k_hom = group_complete(hom_monoid.module.M).group
    hom_lin = EquivariantHom(linearize_module(reg), linearize_module(reg))
    assert hom_lin.group.order() <= k_hom.order() or k_hom.order() == 0
    assert hom_lin.group.order() == k_hom.order()  # equality on this instance


def test_pair_matrix_to_quotient_identity_on_binary_m2f2():
    # The pair space (16) is larger than the quotient (4): the lift must be
    # multiplied over the pair dimension.
    lin = linearize_module(regular_bimodule(make_matrix_family(f2_semiring(), 2, 2)))
    tg = TensorGroup(lin, lin, 1, 0)
    assert tg.pair_dim == 16
    assert tg.group.orders == (2, 2, 2, 2)
    assert tg.pair_matrix_to_quotient(la.identity(16)).equal(GroupMap.identity(tg.group))


def _pair_matrix_to_quotient_per_relation(tg, pairmat):
    """Reference definition: W descends when every W.r projects to zero."""
    for r in tg.pres.relations:
        if not tg.pres.is_zero(la.mat_vec(pairmat, r)):
            return None
    mid = la.mat_mul(pairmat, tg.pres.lift_matrix(), tg.pair_dim)
    return GroupMap(tg.group, tg.group, la.mat_mul(tg.pres.proj_matrix(), mid, tg.pair_dim),
                    check=False)


def test_pair_matrix_to_quotient_matches_per_relation_definition():
    m2 = linearize_module(regular_bimodule(make_matrix_family(f2_semiring(), 2, 2)))
    z4 = z4_ternary()
    reg_ideal = direct_sum_completed([
        linearize_module(regular_bimodule(z4)),
        linearize_module(ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2}))))])
    rng = random.Random(3)
    for tg in (TensorGroup(m2, m2, 1, 0), TensorGroup(reg_ideal, reg_ideal, 2, 0)):
        xs, ys = tg.x.group.dim, tg.y.group.dim
        through_factors = [la.kron(op.mat, xs, xs, la.identity(ys), ys, ys)
                           for slot_ops in tg.x.ops for op in slot_ops[:8]]
        through_factors += [la.kron(la.identity(xs), xs, xs, op.mat, ys, ys)
                            for slot_ops in tg.y.ops for op in slot_ops[:8]]
        seeded = [[[rng.randint(-3, 3) for _ in range(tg.pair_dim)]
                   for _ in range(tg.pair_dim)] for _ in range(6)]
        descended = []
        for pairmat in through_factors + seeded:
            got = tg.pair_matrix_to_quotient(pairmat)
            want = _pair_matrix_to_quotient_per_relation(tg, pairmat)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.mat == want.mat
            descended.append(got is not None)
        # Both outcomes occur, so neither branch of the check goes untested.
        assert any(descended[:len(through_factors)])
        assert not any(descended[len(through_factors):])


MISMATCH_SCRIPT = """
from ngamma import intlinalg as la
from ngamma.abgroups import AbGroup, GroupMap
from ngamma.completion import (
    EquivariantHom, TensorGroup, linearize_module, linearize_morphism,
    zero_completed,
)
from ngamma.homology import ChainComplexAb, Cochain, ExtSetup, bar_complex, bar_map
from ngamma.core import f2_ternary, z4_ternary
from ngamma.modules import (
    compose_module_morphisms, direct_sum_modules, identity_module_morphism,
    regular_bimodule, zero_module,
)
f2, z4 = f2_ternary(), z4_ternary()
reg2, reg4 = regular_bimodule(f2), regular_bimodule(z4)
lin2, lin4 = linearize_module(reg2), linearize_module(reg4)
c2 = AbGroup((2,))
cases = [
    lambda: EquivariantHom(lin2, lin4),
    lambda: TensorGroup(lin2, lin4, 2, 0),
    lambda: direct_sum_modules([reg2, reg4]),
    lambda: compose_module_morphisms(identity_module_morphism(zero_module(f2)),
                                     identity_module_morphism(reg2)),
    lambda: linearize_morphism(identity_module_morphism(reg2), zero_completed(f2), lin2),
    lambda: la.mat_mul([[1, 2]], [[1]], 2),
    lambda: bar_map(bar_complex(f2, lin2, 2, 0, 1), bar_complex(f2, lin2, 2, 0, 2),
                    GroupMap.identity(lin2.group)),
    lambda: bar_complex(f2, lin2, 2, 0, 1, carrier=zero_completed(f2)),
    lambda: ExtSetup(f2, reg2, zero_module(f2), 0).identity_cocycle(),
    lambda: ChainComplexAb([c2, c2], {1: GroupMap.zero(c2, AbGroup(()))}),
    lambda: Cochain([c2], [GroupMap.identity(c2)]),
]
for case in cases:
    try:
        case()
        print("accepted")
    except Exception as e:
        print(type(e).__name__)
"""


def test_caller_mismatches_raise_typed_errors_under_optimize():
    # python -O strips assert statements, so each check must raise itself.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", MISMATCH_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == (["StructuralError"] * 5 + ["ValueError"] * 2
                                  + ["StructuralError"] * 2 + ["ValueError"] * 2)
