import os
import random
import subprocess
import sys
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from conftest import kron
from hypothesis import given, settings, strategies as st

from ngamma import completion, intlinalg as la
from ngamma.abgroups import (
    AbGroup, GroupMap, Presentation, SoundnessError, descent_parts,
    induced_on_quotients, isomorphic, kernel,
)
from ngamma.bundled import bundled_workspace
from ngamma.core import (
    FiniteAddMonoid, boolean_semiring, boolean_ternary, f2_semiring, f2_ternary,
    gamma_scaled_z4, make_matrix_family, relabel, ternary_from_semiring,
    truncated_nat_semiring, z4_ternary, zmod_semiring,
)
from ngamma.homology import balance_check, ext_via_bar, ext_via_cofree, les_check, tor_via_bar
from ngamma.ideals import GammaIdeal, all_ideals, generate_ideal, spectrum
from ngamma.modules import (
    Conflation, ModuleMorphism, build_module, filler_tuples, hom_gamma, ideal_submodule,
    module_from_actions, quotient_module, quotient_projection, regular_bimodule,
    resolve_slot, tensor_positional,
)
from ngamma.spectral import kunneth_check
from ngamma.completion import (
    CompletedModule, EquivariantHom, HomBase, TensorGroup, completion_map,
    direct_sum_completed, group_complete, linearize_module, linearize_morphism,
    zero_completed,
)


def test_group_complete_examples():
    z2 = FiniteAddMonoid(2, (0, 1, 1, 0))
    comp = group_complete(z2)
    assert comp.group.invariant_factors() == (2,)
    assert comp.vectors[1] != comp.group.zero()

    boolm = FiniteAddMonoid(2, (0, 1, 1, 1))
    assert group_complete(boolm).group.is_trivial()

    # Saturating counter {0,1,2}: 2+1 = 2 collapses everything.
    assert group_complete(truncated_nat_semiring(2).T).group.is_trivial()


def test_group_complete_idempotent_on_groups():
    z4m = FiniteAddMonoid(4, tuple((a + b) % 4 for a in range(4) for b in range(4)))
    comp = group_complete(z4m)
    assert comp.group.invariant_factors() == (4,)
    # Completion of a group is the group again.
    assert comp.group.order() == 4
    assert len({comp.vectors[m] for m in range(4)}) == 4


def _relation_completion(monoid):
    """(presentation, vectors, lifts) of the completion through one relation
    per unordered pair of elements and the zero relation, with no exit."""
    size = monoid.size
    rels = []
    for a in range(size):
        for b in range(a, size):
            r = [0] * size
            r[a] += 1
            r[b] += 1
            r[monoid.add(a, b)] -= 1
            rels.append(r)
    rels.append([int(m == monoid.zero) for m in range(size)])
    pres = Presentation(size, rels)
    vectors = tuple(pres.project(e) for e in la.identity(size))
    lift = pres.lift_matrix()
    lifts = tuple(tuple((m, row[c]) for m, row in enumerate(lift) if row[c])
                  for c in range(pres.group.dim))
    return pres, vectors, lifts


def _assert_relation_completion(monoid):
    comp = group_complete(monoid)
    pres, vectors, lifts = _relation_completion(monoid)
    assert comp.group == pres.group
    assert comp.vectors == vectors
    assert comp.lifts == lifts
    assert comp.pres.proj_matrix() == pres.proj_matrix()
    assert comp.pres.lift_matrix() == pres.lift_matrix()
    return comp


def _has_absorbing(monoid):
    return any(all(monoid.add(a, t) == t for a in range(monoid.size))
               for t in range(monoid.size))


def test_zero_exit_matches_the_relations_on_every_small_monoid():
    # Every valid commutative monoid table of order <= 3, every zero.  For a
    # finite commutative monoid the completion is 0 exactly when an element
    # absorbs every other, so the exit is taken exactly there.
    seen = {True: 0, False: 0}
    for size in (1, 2, 3):
        for table in product(range(size), repeat=size * size):
            for zero in range(size):
                if table[zero * size:(zero + 1) * size] != tuple(range(size)):
                    continue
                m = FiniteAddMonoid(size, table, zero)
                if m.validate():
                    continue
                comp = _assert_relation_completion(m)
                assert comp.group.is_trivial() == _has_absorbing(m), (table, zero)
                seen[_has_absorbing(m)] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_zero_exit_on_families_with_an_absorbing_element():
    monoids = [make_matrix_family(boolean_semiring(), 2, 2).T, boolean_ternary().T]
    monoids += [truncated_nat_semiring(cap).T for cap in range(1, 6)]
    for m in monoids:
        comp = _assert_relation_completion(m)
        assert comp.group.is_trivial() and comp.lifts == ()
        assert comp.vectors == ((),) * m.size
        assert comp.pres.proj_matrix() == []
        assert comp.pres.lift_matrix() == [[]] * m.size


def test_completions_without_an_absorbing_element_are_unchanged():
    monoids = [FiniteAddMonoid(n, tuple((a + b) % n for a in range(n) for b in range(n)))
               for n in range(2, 13)]
    monoids.append(make_matrix_family(f2_semiring(), 2, 3).T)  # F2^4
    for m in monoids:
        assert not _has_absorbing(m)
        assert not _assert_relation_completion(m).group.is_trivial()


def test_linearization_snf_shapes(monkeypatch):
    # A zero completion factors no relation matrix wider than its monoid;
    # a nonzero one factors its relations once, and operators factor none.
    shapes = []
    real = la.smith_normal_form

    def recording(a, nrows, ncols, **kwargs):
        shapes.append((nrows, ncols))
        return real(a, nrows, ncols, **kwargs)

    monkeypatch.setattr(la, "smith_normal_form", recording)
    m2b = regular_bimodule(make_matrix_family(boolean_semiring(), 2, 2))
    assert linearize_module(m2b).group.is_trivial()
    assert shapes and all(ncols <= m2b.M.size for _, ncols in shapes)
    shapes.clear()
    assert linearize_module(regular_bimodule(make_matrix_family(f2_semiring(), 2, 3))
                            ).group.invariant_factors() == (2, 2, 2, 2)
    assert len(shapes) == 1


def test_completion_functorial_naturality():
    z4 = z4_ternary()
    reg4 = regular_bimodule(z4)
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    proj = ModuleMorphism(reg4, quo, (0, 1, 0, 1))
    c4 = linearize_module(reg4)
    c2 = linearize_module(quo)
    gm = linearize_morphism(proj, c4, c2)
    for m in range(4):
        assert gm(c4.completion.vectors[m]) == c2.completion.vectors[proj(m)]


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
        back = hom.coords(mat, "a Hom element")
        assert back == c


def test_hom_coords_refuses_a_non_equivariant_map():
    lin = linearize_module(regular_bimodule(make_matrix_family(f2_semiring(), 2, 2)))
    hom = EquivariantHom(lin, lin)
    assert hom.group.invariant_factors() == (2,)
    swap = la.identity(lin.group.dim)
    swap[0], swap[1] = swap[1], swap[0]
    with pytest.raises(SoundnessError, match="^the coordinate swap left the equivariant maps$"):
        hom.coords(GroupMap(lin.group, lin.group, swap), "the coordinate swap")


def _z4_module_maps():
    """The completed z4 modules of the bundled workspace, by name, and the
    maps between them as (source, target, GroupMap): the linearized module
    morphisms and the scalar endomorphisms x2 and x3 of z4_reg."""
    ws = bundled_workspace()
    names = ["z4_ideal02", "z4_reg", "z4_mod2", "z4_sum"]
    lins = {n: completion.linearize_module(ws.module(n)) for n in names}
    named = {id(ws.module(n)): n for n in names}
    maps = []
    for f in ws.module_morphisms.values():
        src, dst = named[id(f.source)], named[id(f.target)]
        maps.append((src, dst, linearize_morphism(f, lins[src], lins[dst])))
    ident = GroupMap.identity(lins["z4_reg"].group)
    maps += [("z4_reg", "z4_reg", ident.scale(c)) for c in (2, 3)]
    return lins, maps


def test_hom_induced_is_a_functor_on_both_sides():
    lins, maps = _z4_module_maps()
    homs = {}

    def hom(x, y):
        if (x, y) not in homs:
            homs[x, y] = EquivariantHom(lins[x], lins[y])
        return homs[x, y]

    nonzero = 0
    # g: a -> b and h: b -> c; pre sends Hom(target, y) back along the map,
    # post sends Hom(y, source) forward.
    for a, b, g in maps:
        for b2, c, h in maps:
            if b2 != b:
                continue
            hg = h.compose(g)
            for y in lins:
                pre = hom(c, y).induced(hom(a, y), "pre", hg, what="pre")
                assert pre.equal(hom(b, y).induced(hom(a, y), "pre", g, what="pre").compose(
                    hom(c, y).induced(hom(b, y), "pre", h, what="pre")))
                post = hom(y, a).induced(hom(y, c), "post", hg, what="post")
                assert post.equal(hom(y, b).induced(hom(y, c), "post", h, what="post").compose(
                    hom(y, a).induced(hom(y, b), "post", g, what="post")))
                nonzero += (not pre.is_zero()) + (not post.is_zero())
    assert nonzero > 0
    # Precomposition and postcomposition commute.
    for x2, x, g in maps:
        for y, y2, f in maps:
            pre_first = hom(x2, y).induced(hom(x2, y2), "post", f, what="post").compose(
                hom(x, y).induced(hom(x2, y), "pre", g, what="pre"))
            post_first = hom(x, y2).induced(hom(x2, y2), "pre", g, what="pre").compose(
                hom(x, y).induced(hom(x, y2), "post", f, what="post"))
            assert pre_first.equal(post_first)
    # Only those two sides exist.
    ident = GroupMap.identity(lins["z4_reg"].group)
    with pytest.raises(ValueError, match="'both'"):
        hom("z4_reg", "z4_reg").induced(hom("z4_reg", "z4_reg"), "both", ident, what="both")


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
    cases = [(m, n, 2, 0) for m, n in [(reg, reg), (reg, sub), (sub, sub)]]
    # Slot pairs (3,1), (1,1) and (2,3) on the direct sum Z/4 (+) Z/2 and on
    # regular ternary Z/m.
    ws = bundled_workspace()
    z4_reg, z4_sum = ws.module("z4_reg"), ws.module("z4_sum")
    pairs = [(z4_reg, z4_sum), (z4_sum, z4_sum)]
    pairs += [(r, r) for r in (regular_bimodule(ternary_from_semiring(zmod_semiring(m)))
                               for m in (5, 6, 8))]
    cases += [(m, n, j, k) for m, n in pairs for j, k in [(2, 0), (0, 0), (1, 2)]]
    # Binary M2(F2) and M2(B) at slots (2,1): slot 1 acts through the left
    # factor and slot 2 through the right.
    cases += [(r, r, 1, 0) for r in (regular_bimodule(make_matrix_family(base, 2, 2))
                                     for base in (f2_semiring(), boolean_semiring()))]
    for m, n, j, k in cases:
        monoid_level = tensor_positional(m, n, j, k)
        k_of_tensor = group_complete(monoid_level.module.M).group
        lin_t = TensorGroup(linearize_module(m), linearize_module(n), j, k)
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
    assert kron(la.identity(4), la.identity(4)) == la.identity(16)
    assert _pair_matrix_to_quotient_per_relation(tg, la.identity(16)).equal(
        GroupMap.identity(tg.group))
    for side in ("right", "left"):
        assert tg.pair_matrix_to_quotient(side, la.identity(4)).equal(
            GroupMap.identity(tg.group))


def test_pair_matrix_to_quotient_refuses_a_malformed_factor():
    # A factor operator of the wrong size, or an unknown side, is a caller
    # error, not an operator that fails to descend (None) or a map.
    lin = linearize_module(regular_bimodule(make_matrix_family(f2_semiring(), 2, 2)))
    tg = TensorGroup(lin, lin, 1, 0)
    assert lin.group.dim == 4
    for side, mat in (("right", la.identity(5)), ("left", la.identity(5)),
                      ("right", la.identity(3)), ("left", la.identity(3)),
                      ("up", la.zeros(4, 4))):
        with pytest.raises(ValueError):
            tg.pair_matrix_to_quotient(side, mat)


def _pair_matrix_to_quotient_per_relation(tg, pairmat):
    """Reference definition: W descends when every W.r projects to zero."""
    for r in tg.pres.relations:
        if not tg.pres.is_zero(la.mat_vec(pairmat, r)):
            return None
    mid = la.mat_mul(pairmat, tg.pres.lift_matrix(), tg.group.dim)
    return GroupMap(tg.group, tg.group,
                    la.mat_mul(tg.pres.proj_matrix(), mid, tg.group.dim), check=False)


def _pair_matrix(tg, side, mat):
    """The dense pair-space matrix of I (x) mat (side "right") or mat (x) I."""
    if side == "right":
        return kron(la.identity(tg.x.group.dim), mat)
    return kron(mat, la.identity(tg.y.group.dim))


def test_pair_matrix_to_quotient_matches_per_relation_definition():
    # Every distinct operator of both sides, then random integer factors on
    # either side, each against the per-relation definition on the dense
    # Kronecker matrix.  Ternary M2(F2) at slots (3,1) refuses on both sides;
    # the bundled z4_zero and the Boolean carrier complete to 0.
    z4 = z4_ternary()
    reg_ideal = direct_sum_completed([
        linearize_module(regular_bimodule(z4)),
        linearize_module(ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2}))))])
    m2, m2t = (linearize_module(regular_bimodule(make_matrix_family(f2_semiring(), 2, n)))
               for n in (2, 3))
    ws = bundled_workspace()
    z4_zero = linearize_module(ws.module("z4_zero"))
    boolean = linearize_module(regular_bimodule(boolean_ternary()))
    assert z4_zero.group.dim == boolean.group.dim == 0
    rng = random.Random(3)
    outcomes = set()
    for tg in (TensorGroup(reg_ideal, reg_ideal, 2, 0), TensorGroup(m2, m2, 1, 0),
               TensorGroup(m2t, m2t, 2, 0), TensorGroup(reg_ideal, z4_zero, 2, 0),
               TensorGroup(z4_zero, reg_ideal, 2, 0), TensorGroup(boolean, boolean, 2, 0)):
        factors = [(side, op.mat) for side, mod in (("right", tg.y), ("left", tg.x))
                   for op in dict.fromkeys(op for slot_ops in mod.ops for op in slot_ops)]
        factors += [(side, [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
                    for side, dim in (("right", tg.y.group.dim), ("left", tg.x.group.dim))
                    for _ in range(3)]
        for side, mat in factors:
            got = tg.pair_matrix_to_quotient(side, mat)
            want = _pair_matrix_to_quotient_per_relation(tg, _pair_matrix(tg, side, mat))
            assert (got is None) == (want is None)
            if got is not None:
                assert got.mat == want.mat
            outcomes.add(got is not None)
    # Both outcomes occur, so neither branch of the check goes untested.
    assert outcomes == {True, False}


def test_tensor_refusal_texts_name_the_first_failing_operator():
    # The operator each side refuses first, and the bar differential that
    # does not descend, as the dense products gave them.
    m2t = linearize_module(regular_bimodule(make_matrix_family(f2_semiring(), 2, 3)))
    failing = "the action at slot 2 with carriers (1, 1) and parameters (0, 0) does not descend"
    with pytest.raises(SoundnessError) as exc:
        TensorGroup(m2t, m2t, 2, 0).as_module()
    assert str(exc.value) == (f"no residual action descends at slot 2: through the "
                              f"right factor, {failing}; through the left factor, {failing}")
    m2 = make_matrix_family(f2_semiring(), 2, 2)
    reg = regular_bimodule(m2)
    with pytest.raises(SoundnessError) as exc:
        ext_via_bar(m2, reg, reg, depth=0)
    assert str(exc.value) == "bar differential d_1 does not descend to the quotient"


def test_ext_via_bar_projects_each_attached_operator_once(monkeypatch, count_calls):
    # Each tensor group the tower's terms share (one presentation: every
    # term is Z/4 with the regular operators) projects every distinct
    # operator it attaches once, in two products (``descent_parts``).  The
    # dense Kronecker products took 114 products here, one tensor group per
    # term 31 products and 20 projections, and summing the projections from
    # cached matrix units 23 products.
    s = z4_ternary()
    reg = regular_bimodule(s)
    projected, attached = [], []
    project, as_module = TensorGroup.pair_matrix_to_quotient, TensorGroup.as_module

    def recording(tg, side, mat):
        gm = project(tg, side, mat)
        projected.append(((tg.pres, side, tuple(map(tuple, mat))), gm))
        return gm

    monkeypatch.setattr(TensorGroup, "pair_matrix_to_quotient", recording)
    monkeypatch.setattr(TensorGroup, "as_module",
                        lambda tg: attached.append(tg) or as_module(tg))
    counts = count_calls(la, "mat_mul")
    assert ext_via_bar(s, reg, reg, depth=2).factors() == [(4,), (), ()]
    assert counts["mat_mul"] == 29
    # Every slot of ternary Z/4 is carried by the right factor.
    assert all(gm is not None for _, gm in projected)
    keys = [key for key, _ in projected]
    assert len(keys) == len(set(keys)) == 4
    assert set(keys) == {(tg.pres, "right", op.key) for tg in attached
                         for slot_ops in tg.y.ops for op in slot_ops}


MISMATCH_SCRIPT = """
from ngamma import intlinalg as la
from ngamma.abgroups import AbGroup, GroupMap, HomologyNode, Subquotient, is_exact
from ngamma.completion import (
    EquivariantHom, TensorGroup, linearize_module, linearize_morphism,
    zero_completed,
)
from ngamma.homology import Complex, bar_complex, bar_map, ext_via_bar
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
    lambda: la.mat_mul([[1, 2]], [[1]], 1),
    lambda: bar_map(bar_complex(f2, lin2, 2, 0, 1), bar_complex(f2, lin2, 2, 0, 2),
                    GroupMap.identity(lin2.group)),
    lambda: ext_via_bar(f2, reg2, zero_module(f2), depth=0).identity_cocycle(),
    lambda: Complex([c2, c2], {1: GroupMap.zero(c2, AbGroup(()))}),
    lambda: Complex([c2], {0: GroupMap.identity(c2)}, step=1),
    lambda: AbGroup((1,)),
    lambda: GroupMap(c2, c2, [[1, 1]]),
    lambda: GroupMap.identity(c2).compose(GroupMap.identity(AbGroup((4,)))),
    lambda: GroupMap.identity(c2).add(GroupMap.identity(AbGroup((4,)))),
    lambda: is_exact(GroupMap.identity(c2), GroupMap.identity(AbGroup((4,)))),
    lambda: HomologyNode(c2, GroupMap.identity(AbGroup((4,))), GroupMap.identity(c2)),
    lambda: la.smith_normal_form([[1, 2], [3]], 2, 2),
    lambda: la.smith_normal_form([[2, 0], [0, 3]], 2, 2, solve=True).solve([4]),
    lambda: la.smith_normal_form([[2, 0], [0, 3]], 2, 2, solve=True).solve([4, 9, 1]),
    lambda: Subquotient(AbGroup((2, 2)), [[2, 0, 7]], []),
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
                                  + ["StructuralError"] + ["ValueError"] * 12)


# ---------------------------------------------------------------------------
# Distinct operators: references that keep every (slot, filler) operator
# ---------------------------------------------------------------------------

def _full_hom_kernel(x, y):
    """The EquivariantHom kernel with one constraint block per (slot, w)."""
    base = HomBase(x.group, y.group)
    rows, orders = [], []
    for slot in range(x.semiring.n):
        for p, q in zip(x.ops[slot], y.ops[slot]):
            for jj in range(y.group.dim):
                for aa in range(x.group.dim):
                    rows.append([(mult * p.mat[i0][aa] if j0 == jj else 0)
                                 - (q.mat[jj][j0] * mult if i0 == aa else 0)
                                 for (i0, j0, _order, mult) in base.coords])
                    orders.append(y.group.orders[jj])
    if not rows:
        return kernel(GroupMap.zero(base.group, AbGroup(())))
    return kernel(GroupMap(base.group, AbGroup(tuple(orders)), rows))


def _full_tensor_relations(x, y, j, k):
    """TensorGroup's relations with one balancing block per filler w."""
    xs, ys = x.group.dim, y.group.dim
    rels = []
    for i, a in enumerate(x.group.orders):
        for i2, b in enumerate(y.group.orders):
            for o in (a, b):
                r = [0] * (xs * ys)
                r[i * ys + i2] = o
                rels.append(r)
    for p, q in zip(x.ops[j], y.ops[k]):
        via_x = kron(p.mat, la.identity(ys))
        via_y = kron(la.identity(xs), q.mat)
        rels.extend([a - b for a, b in zip(cx, cy)]
                    for cx, cy in zip(zip(*via_x), zip(*via_y)))
    return rels


def _full_residual_ops(tg, pres):
    """Residual operators projected per (slot, w) through ``pres`` from
    their dense pair-space matrices, each slot through the right factor when
    every operator of it descends there, else through the left; or the head
    of the refusal text."""
    xs, ys = tg.x.group.dim, tg.y.group.dim
    lift, proj = pres.lift_matrix(), pres.proj_matrix()
    out = []
    for slot in range(tg.x.semiring.n):
        for pairmats in ([kron(la.identity(xs), yop.mat) for yop in tg.y.ops[slot]],
                         [kron(xop.mat, la.identity(ys)) for xop in tg.x.ops[slot]]):
            try:
                out.append([induced_on_quotients(
                    pres.group, pres.group,
                    *descent_parts(la.mat_mul(proj, pairmat, xs * ys), lift, proj),
                    "op").mat for pairmat in pairmats])
                break
            except SoundnessError:
                pass
        else:
            return f"no residual action descends at slot {slot + 1}"
    return out


def _endomorphism(rnd, orders):
    """A random well-defined endomorphism of the coordinate group ``orders``."""
    # An entry of target order a and source order b is a multiple of a/gcd(a, b).
    return [[rnd.randint(-2, 3) * (a // gcd(a, b)) for b in orders] for a in orders]


def _random_completed(rnd, s, orders, pool_size):
    g = AbGroup(orders)
    pool = [GroupMap(g, g, _endomorphism(rnd, orders)) for _ in range(pool_size)]
    nw = len(filler_tuples(s))
    ops = tuple(tuple(rnd.choice(pool) for _ in range(nw)) for _ in range(s.n))
    return CompletedModule(s, g, ops)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_distinct_operator_systems_keep_invariant_factors(rnd):
    # Dropping repeated constraints or relations leaves the same lattice, so
    # the invariant factors agree whatever the pivot sequence does.
    s = f2_ternary()
    choices = (2, 2, 3, 4, 4, 6, 8)
    x, y = (_random_completed(rnd, s, tuple(rnd.choice(choices)
                                            for _ in range(rnd.randint(1, 2))),
                              rnd.randint(1, 3)) for _ in range(2))
    hom = EquivariantHom(x, y)
    assert hom.group.invariant_factors() == \
        _full_hom_kernel(x, y).group.invariant_factors()
    j, k = rnd.randrange(3), rnd.randrange(3)
    tg = TensorGroup(x, y, j, k)
    full = Presentation(tg.pair_dim, _full_tensor_relations(x, y, j, k))
    assert tg.group.invariant_factors() == full.group.invariant_factors()
    assert len(tg.pres.relations) <= len(full.relations)


SWEEP_FAMILIES = {f"ternary z{m}": lambda m=m: ternary_from_semiring(zmod_semiring(m))
                  for m in range(2, 13)}
SWEEP_FAMILIES["binary f2"] = lambda: f2_semiring()
SWEEP_FAMILIES["gamma-scaled z4"] = gamma_scaled_z4
# Non-commutative, so half of its slots descend through the left factor.
SWEEP_FAMILIES["binary m2f2"] = lambda: make_matrix_family(f2_semiring(), 2, 2)
# Relabellings per family; binary M2(F2) keeps two to bound its cost.
SWEEP_RELABELLINGS = {"binary m2f2": 2}


@pytest.mark.parametrize("family", list(SWEEP_FAMILIES))
def test_distinct_operator_coordinates_match_full_systems(family):
    # Byte-identity is not a theorem (the SNF's divisibility repair can see
    # a dropped duplicate), so these fixtures are the evidence for it.
    base = SWEEP_FAMILIES[family]()
    size = base.T.size
    for relabelling in range(SWEEP_RELABELLINGS.get(family, 4)):
        perm = list(range(size))
        random.Random(f"{family}/{relabelling}").shuffle(perm)
        s = relabel(base, perm if relabelling else list(range(size)))
        lin = linearize_module(regular_bimodule(s))
        pair = direct_sum_completed([lin, lin])
        for x, y in ((lin, lin), (pair, lin)):
            got, want = EquivariantHom(x, y)._kernel, _full_hom_kernel(x, y)
            assert got.gens == want.gens
            assert got.pres.proj_matrix() == want.pres.proj_matrix()
            assert got.pres.lift_matrix() == want.pres.lift_matrix()
            assert got.inclusion.mat == want.inclusion.mat
            for j, k in ((s.n - 1, 0), (0, s.n - 1)):
                tg = TensorGroup(x, y, j, k)
                full = Presentation(tg.pair_dim, _full_tensor_relations(x, y, j, k))
                assert tg.group.orders == full.group.orders
                assert tg.pres.proj_matrix() == full.proj_matrix()
                assert tg.pres.lift_matrix() == full.lift_matrix()
                try:
                    residual = [[op.mat for op in slot] for slot in tg.as_module().ops]
                except SoundnessError as exc:
                    residual = str(exc).partition(":")[0]
                assert residual == _full_residual_ops(tg, full)


def _nested_loop_tables(s, monoid, act_fn):
    """Slot tables written cell by cell in layout order: the carriers before
    the module element, the element, the carriers after it, the parameters."""
    tables = []
    for j in range(s.n):
        tbl = []
        for prefix in product(range(s.T.size), repeat=j):
            for m in range(monoid.size):
                for suffix in product(range(s.T.size), repeat=s.n - 1 - j):
                    for gs in s.g_tuples(s.n - 1):
                        tbl.append(act_fn(j, prefix + suffix, m, gs))
        tables.append(tuple(tbl))
    return tuple(tables)


TABLE_FAMILIES = {
    "binary m2f2": lambda: make_matrix_family(f2_semiring(), 2, 2),
    "ternary m2f2": lambda: make_matrix_family(f2_semiring(), 2, 3),
    "gamma-scaled z4": gamma_scaled_z4,
    "relabelled ternary z6": lambda: relabel(ternary_from_semiring(zmod_semiring(6)),
                                             [3, 0, 5, 1, 4, 2]),
    "binary f2": lambda: f2_semiring(),
    "binary z4": lambda: zmod_semiring(4),
    "quaternary f2": lambda: make_matrix_family(f2_semiring(), 1, 4),
    "binary m2b": lambda: make_matrix_family(boolean_semiring(), 2, 2),
    "boolean ternary": boolean_ternary,
}


@pytest.mark.parametrize("family", list(TABLE_FAMILIES))
def test_operators_read_off_table_slices(family):
    s = TABLE_FAMILIES[family]()
    reg = regular_bimodule(s)
    assert reg.act_tables == _nested_loop_tables(
        s, s.T, lambda j, t, m, gs: s.mu(t[:j] + (m,) + t[j:], gs))
    mods = [reg]
    if family == "binary z4":  # a module carrier smaller than the semiring's
        mods.append(quotient_module(s, GammaIdeal(s, frozenset({0, 2}))))
    for b in mods:
        actions = [b.actions(j) for j in range(s.n)]
        for j in range(s.n):
            assert actions[j] == tuple(tuple(b.act(j, tf, m, gf) for m in range(b.M.size))
                                       for tf, gf in filler_tuples(s))
        assert module_from_actions(b.parent, b.M, actions).act_tables == b.act_tables
        assert build_module(s, b.M, b.act).act_tables == _nested_loop_tables(s, b.M, b.act)
        lin = linearize_module(b)
        comp = lin.completion
        for j in range(s.n):
            assert [op.mat for op in lin.ops[j]] == [
                completion_map(comp, comp,
                               tuple(b.act(j, tf, m, gf) for m in range(b.M.size))).mat
                for tf, gf in filler_tuples(s)]


def _per_basis_completion_map(src, dst, elem_map):
    """The induced map built as it was before completions stored their
    lifts: one ``pres.lift`` per basis vector, through ``from_images``."""
    def image_of(basis):
        img = [0] * dst.group.dim
        for m, coeff in enumerate(src.pres.lift(basis)):
            if coeff:
                img = [x + coeff * y for x, y in zip(img, dst.vectors[elem_map[m]])]
        return img

    gm = GroupMap.from_images(src.group, dst.group, image_of)
    assert gm.well_defined()
    return gm


@pytest.mark.parametrize("family", list(TABLE_FAMILIES) + ["bundled"])
def test_stored_lifts_match_per_basis_lifts(family):
    mods = (list(bundled_workspace().modules.values()) if family == "bundled"
            else [regular_bimodule(TABLE_FAMILIES[family]())])
    for b in mods:
        lin = linearize_module(b)
        comp = lin.completion
        assert [[m for m, _ in pairs] for pairs in comp.lifts] == [
            [m for m, c in enumerate(comp.pres.lift(e)) if c]
            for e in la.identity(comp.group.dim)]
        for j in range(b.parent.n):
            assert [op.mat for op in lin.ops[j]] == [
                _per_basis_completion_map(comp, comp, col).mat for col in b.actions(j)]


# ---------------------------------------------------------------------------
# Operator keys are read once per distinct operator pair
# ---------------------------------------------------------------------------

def test_operator_keys_are_read_per_distinct_object_pair(monkeypatch):
    # The regular module of ternary Z/16 keeps 768 (slot, filler) operators,
    # 16 distinct objects per slot; a key read per filler would be 1,536.
    lin = linearize_module(regular_bimodule(ternary_from_semiring(zmod_semiring(16))))
    key_reads = []
    monkeypatch.setattr(GroupMap, "key", property(
        lambda gm: key_reads.append(gm) or tuple(map(tuple, gm.mat))))

    def bound(x, y, slots):
        return 2 * sum(len(set(zip(x.ops[j], y.ops[k]))) for j, k in slots)

    every_slot = [(j, j) for j in range(3)]
    assert bound(lin, lin, every_slot) == 96
    EquivariantHom(lin, lin)
    assert 0 < len(key_reads) <= 96
    key_reads.clear()
    tg = TensorGroup(lin, lin, 2, 0)
    assert 0 < len(key_reads) <= bound(lin, lin, [(2, 0)])
    key_reads.clear()
    tg.as_module()
    assert 0 < len(key_reads) <= 96


def test_equal_operators_on_distinct_objects_give_one_block(monkeypatch):
    # A direct sum builds a new object per filler, so only the keys see that
    # its 768 operators per side are 16 maps: one constraint block (2 x 2
    # rows) and one balancing block (4 relations) per distinct key pair.
    s = ternary_from_semiring(zmod_semiring(16))
    lin = linearize_module(regular_bimodule(s))
    ds = direct_sum_completed([lin, lin])
    assert [len(set(ops)) for ops in ds.ops] == [256] * 3
    rows = []
    real_kernel = completion.kernel
    monkeypatch.setattr(completion, "kernel",
                        lambda f: rows.append(f.dst.dim) or real_kernel(f))
    EquivariantHom(ds, ds)
    assert rows == [16 * 4]
    tg = TensorGroup(ds, ds, 2, 0)
    assert len(tg.pres.relations) == 8 + 16 * 4
    assert tg.group.invariant_factors() == (16,) * 4


# ---------------------------------------------------------------------------
# Relabelling the carrier: isomorphic tables give the same invariants
# ---------------------------------------------------------------------------

def _label_free_invariants(s, g):
    """Ideal and prime counts of s; for each pair of its regular module and
    its quotient by the ideal I generated by g, the Hom map count, the tensor
    size, Ext on both towers and Tor at depth 2 and the balance verdict; the
    Hom-side long exact sequence of I -> s -> s/I into s at depth 1; and the
    Künneth verdicts on the regular module at depth 1."""
    ideal = generate_ideal(s, [g])
    reg = regular_bimodule(s)
    mods = (reg, quotient_module(s, ideal))
    j = resolve_slot(s, None)
    out = {"ideals": len(all_ideals(s)), "primes": len(spectrum(s).primes)}
    for (a, m), (b, n) in product(enumerate(mods), repeat=2):
        out[a, b] = (len(hom_gamma(m, n, j, 0).maps),
                     tensor_positional(m, n, j, 0).module.M.size,
                     ext_via_bar(s, m, n, depth=2).factors(),
                     ext_via_cofree(s, m, n, depth=2).factors(),
                     tor_via_bar(s, m, n, depth=2).factors(),
                     balance_check(s, m, n, 2).balanced)
    c = Conflation(ModuleMorphism(ideal_submodule(s, ideal), reg, tuple(ideal.sorted_members())),
                   quotient_projection(reg, ideal.members, "quotient"))
    les = les_check(c, reg, depth=1, side="hom")
    out["les"] = ([h.invariant_factors() for h in les.groups], les.exact_at,
                  les.deltas_zero, les.ses_ok, les.completion_exact)
    kun = kunneth_check(s, reg, reg, reg, depth=1)
    out["kunneth"] = (kun.consistent, kun.e2_first, kun.e2_matches_direct)
    return out


def _seeded_permutations(family, size):
    for seed in range(3):
        perm = list(range(size))
        random.Random(f"relabel {family}/{seed}").shuffle(perm)
        assert perm != sorted(perm)
        yield perm


RELABEL_FAMILIES = {"z4_ternary": z4_ternary,
                    "ternary z6": lambda: ternary_from_semiring(zmod_semiring(6))}


@pytest.mark.parametrize("family", list(RELABEL_FAMILIES))
def test_relabelling_the_carrier_moves_no_invariant(family):
    # The ideal generated by 2 is relabelled to the one generated by perm[2].
    base = RELABEL_FAMILIES[family]()
    want = _label_free_invariants(base, 2)
    for perm in _seeded_permutations(family, base.T.size):
        assert _label_free_invariants(relabel(base, perm), perm[2]) == want, perm


def test_relabelled_binary_m2f2_refuses_derived_calls_alike():
    base = make_matrix_family(f2_semiring(), 2, 2)
    for s in [base] + [relabel(base, perm) for perm in _seeded_permutations("m2f2", 16)]:
        reg = regular_bimodule(s)
        for derived in (ext_via_bar, tor_via_bar):
            with pytest.raises(SoundnessError, match="^bar differential d_1 does not "
                                                     "descend to the quotient$"):
                derived(s, reg, reg, depth=2)
