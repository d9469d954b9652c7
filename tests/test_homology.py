import ast
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from ngamma.abgroups import AbGroup, GroupMap, HomologyNode, SoundnessError, is_short_exact
from ngamma.bundled import bundled_workspace
from ngamma.core import (
    BoundExceeded, FiniteAddMonoid, NaryGammaSemiring, StructuralError, boolean_semiring,
    boolean_ternary, bundled_semirings, f2_semiring, f2_ternary, make_matrix_family, odd_part,
    product,
    ternary_from_semiring, trivial_gamma, truncated_polynomial, z4_ternary, zmod_semiring,
)
from ngamma.completion import linearize_module, linearize_morphism, zero_completed
from ngamma.ideals import GammaIdeal, all_ideals, coset_congruence
from ngamma.modules import (
    Conflation, ModuleMorphism, build_module, direct_sum_modules,
    ideal_submodule, identity_module_morphism, quotient_module, quotient_projection,
    regular_bimodule, zero_module,
)
from ngamma import abgroups, cli, homology as homology_mod, spectral as spectral_mod
from ngamma.workspace import dump_document, workspace_document
from ngamma.homology import (
    Complex, ContractionPolicy, RegularityError, Resolution, _lift_chain_map,
    balance_check, default_policy,
    bar_complex, bar_map, cofree_coresolution, ext_via_bar, ext_via_cofree,
    homology, les_check, tor_via_bar, yoneda_compose,
)


def test_complexes_through_a_zero_group():
    zero = AbGroup(())
    for g in (AbGroup((2,)), AbGroup((8,)), AbGroup((2, 4))):
        into, out = GroupMap.zero(zero, g), GroupMap.zero(g, zero)
        assert out.compose(into).mat == []
        assert into.compose(out).mat == GroupMap.zero(g, g).mat
        chain = Complex([g, zero, g], {1: into, 2: out})
        assert homology(chain) == [g, zero, g]
        cochain = Complex([g, zero, g], {0: out, 1: into}, step=1)
        assert homology(cochain, 2) == [g, zero, g]
        node = HomologyNode(zero, into, out)
        assert node.group == zero and node.classify(()) == ()
        assert node.representative(()) == ()


@pytest.fixture(scope="module")
def f2():
    return f2_ternary()


@pytest.fixture(scope="module")
def z4():
    return z4_ternary()


@pytest.fixture(scope="module")
def z4_conflation(z4):
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    reg = regular_bimodule(z4)
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    return Conflation(ModuleMorphism(sub, reg, (0, 2)),
                      ModuleMorphism(reg, quo, (0, 1, 0, 1)))


def test_chain_complex_textbook_homology():
    c2 = AbGroup((2,))
    c8 = AbGroup((8,))
    # 0 -> C2 --0--> C2 -> 0
    c = Complex([c2, c2], {1: GroupMap(c2, c2, [[0]])})
    assert [g.invariant_factors() for g in homology(c)] == [(2,), (2,)]
    # 0 -> C8 --2--> C8 -> 0: C8/2C8 = C2 and the kernel of 2 is {0, 4} = C2.
    c = Complex([c8, c8], {1: GroupMap(c8, c8, [[2]])})
    assert [g.invariant_factors() for g in homology(c)] == [(2,), (2,)]


def test_chain_complex_rejects_bad_differentials():
    z = AbGroup((8,))
    two = GroupMap(z, z, [[2]])  # 2*2 = 4 != 0 mod 8
    with pytest.raises(SoundnessError):
        Complex([z, z, z], {1: two, 2: two})
    # The same checks on a cochain complex, whose differentials raise degrees.
    with pytest.raises(SoundnessError):
        Complex([z, z, z], {0: two, 1: two}, step=1)
    with pytest.raises(ValueError):
        Complex([z, AbGroup((2,))], {0: two}, step=1)
    with pytest.raises(ValueError):
        Complex([z, z], {1: two}, step=1)


def test_bar_complex_f2(f2):
    bar = bar_complex(f2, regular_bimodule(f2), 2, 0, depth=2)
    assert [g.invariant_factors() for g in bar.chain.groups] == [(2,), (2,), (2,)]
    assert bar.diffs[1].mat == [[0]]
    assert bar.diffs[2].mat == [[1]]
    hs = homology(bar.chain)
    assert hs[0].invariant_factors() == (2,)  # K(M) at degree zero


def test_bar_complex_zero_module(f2):
    bar = bar_complex(f2, zero_module(f2), 2, 0, depth=2)
    assert all(g.is_trivial() for g in bar.chain.groups)


def test_bar_complex_depth3_homology(f2, z4):
    # Oracle-style check: count elements of ker/im directly on the tiny
    # groups rather than through normal forms.
    for s in (f2, z4):
        bar = bar_complex(s, regular_bimodule(s), 2, 0, depth=3)
        for r in range(3):
            node_order = homology(bar.chain)[r].order()
            g = bar.chain.groups[r]
            dout = bar.chain.d(r)
            din = bar.chain.d(r + 1)
            kernel_elems = [v for v in g.elements() if dout.dst.is_zero(dout(v))]
            image_elems = {din(v) for v in bar.chain.groups[r + 1].elements()} \
                if r + 1 <= bar.chain.top else {g.zero()}
            # order of ker/im = |ker| / |im| for finite groups
            assert node_order == len(kernel_elems) // len(image_elems)


def test_bar_word_space_bound_names_degree_and_size(monkeypatch):
    # M2(F2) completes to a group of dimension 4: degree 1 has 4*4 = 16 words.
    s = make_matrix_family(f2_semiring(), 2, 2)
    reg = linearize_module(regular_bimodule(s))
    monkeypatch.setattr("ngamma.homology.BAR_WORD_BOUND", 20)
    with pytest.raises(BoundExceeded, match=r"bar word space at degree 2: tdim\^r\*mdim = "
                                            r"4\^2\*4 = 64 exceeds its bound 20"):
        bar_complex(s, reg, 1, 0, 2)


def test_bar_map_needs_one_carrier_and_slot_pair(z4):
    # Towers built by separate calls over one semiring and slot pair compare:
    # the carrier is the semiring's regular module, not a caller's choice.
    reg = linearize_module(regular_bimodule(z4))
    ident = GroupMap.identity(reg.group)
    src = bar_complex(z4, reg, 2, 0, 2)
    maps = bar_map(src, bar_complex(z4, reg, 2, 0, 2), ident)
    assert [m.mat for m in maps] == [GroupMap.identity(t.group).mat for t in src.terms]
    with pytest.raises(ValueError, match="different semirings or slots"):
        bar_map(src, bar_complex(z4, reg, 1, 0, 2), ident)


def test_derived_calls_refuse_modules_over_another_semiring(f2, z4, z4_conflation):
    f2_reg = regular_bimodule(f2)
    with pytest.raises(StructuralError, match="module 'f2_ternary.regular' does not "
                                              "live over z4_ternary"):
        ext_via_bar(z4, f2_reg, f2_reg)
    with pytest.raises(StructuralError, match="does not live over z4_ternary"):
        ext_via_cofree(z4, f2_reg, f2_reg)
    with pytest.raises(StructuralError, match="does not live over f2_ternary"):
        les_check(z4_conflation, f2_reg)


def test_les_check_refuses_an_unknown_side_before_any_work(z4, z4_conflation, count_calls):
    calls = count_calls(homology_mod, "linearize_over", "is_short_exact")
    with pytest.raises(ValueError, match="side must be 'hom' or 'tor'"):
        les_check(z4_conflation, regular_bimodule(z4), side="ext")
    assert not calls


def test_ext_and_tor_via_bar(f2, z4):
    reg2 = regular_bimodule(f2)
    assert ext_via_bar(f2, reg2, reg2, 2, 0, 2).factors() == [(2,), (), ()]
    assert tor_via_bar(f2, reg2, reg2, 2, 0, 2).factors() == [(2,), (), ()]
    regz = regular_bimodule(z4)
    assert ext_via_bar(z4, regz, regz, 2, 0, 2).factors() == [(4,), (), ()]
    z = zero_module(z4)
    assert ext_via_bar(z4, regz, z, 2, 0, 2).factors() == [(), (), ()]
    assert tor_via_bar(z4, regz, z, 2, 0, 2).factors() == [(), (), ()]
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    assert ext_via_bar(z4, sub, regz, 2, 0, 2).factors() == [(2,), (), ()]
    assert tor_via_bar(z4, regz, sub, 2, 0, 2).factors() == [(2,), (), ()]


def test_ext_degree_zero_is_equivariant_hom(f2, z4):
    from ngamma.completion import EquivariantHom, linearize_module
    for s, pair in ((f2, None), (z4, None)):
        reg = regular_bimodule(s)
        ext0 = ext_via_bar(s, reg, reg, 2, 0, 0).factors()[0]
        hom = EquivariantHom(linearize_module(reg), linearize_module(reg))
        assert ext0 == hom.group.invariant_factors()


def test_tor_degree_zero_is_balanced_tensor(z4):
    from ngamma.completion import TensorGroup, linearize_module
    reg = regular_bimodule(z4)
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    tor0 = tor_via_bar(z4, reg, sub, 2, 0, 0).factors()[0]
    bt = TensorGroup(linearize_module(reg), linearize_module(sub), 2, 0)
    assert tor0 == bt.group.invariant_factors()


def test_tor_builds_a_homology_node_per_degree_it_reports(z4, count_calls):
    # The tower runs one degree past the depth; that degree's node is never read.
    built = count_calls(HomologyNode, "__init__")
    reg = regular_bimodule(z4)
    assert tor_via_bar(z4, reg, reg, depth=3).factors() == [(4,), (), (), ()]
    assert built["__init__"] == 4


def test_cofree_coresolution_f2(f2):
    # A cochain resolution: F2 embeds in its cofree module, of two elements,
    # and the cokernel's stages are zero.
    tower = cofree_coresolution(f2, regular_bimodule(f2), depth=2)
    assert (tower.chain.step, tower.depth, tower.jslot) == (1, 2, None)
    assert tower.terms[0].group.invariant_factors() == (2,)
    assert all(t.group.is_trivial() for t in tower.terms[1:])


def test_coker_of_ideal_inclusion_is_bourne_quotient():
    for s in bundled_semirings().values():
        reg = regular_bimodule(s)
        for ideal in all_ideals(s):
            incl = ModuleMorphism(ideal_submodule(s, ideal), reg,
                                  tuple(ideal.sorted_members()))
            coker = quotient_projection(reg, set(incl.map), "coker")
            assert list(coker.map) == coset_congruence(s.T, ideal.members)[0]


def test_cofree_coresolution_zero_module(f2):
    tower = cofree_coresolution(f2, zero_module(f2), depth=2)
    assert all(t.group.is_trivial() for t in tower.terms)


def test_cofree_regularity_error():
    boolt = boolean_ternary()
    z2 = FiniteAddMonoid(2, (0, 1, 1, 0))
    zact = build_module(boolt, z2, lambda j, t, m, gs: 0, name="zero-action")
    with pytest.raises(RegularityError):
        cofree_coresolution(boolt, zact, depth=1)


def test_cofree_unit_that_is_not_a_module_morphism_is_refused_with_its_witness():
    # On Lister's odd part of M2(B) the unit m -> (t -> t.m) is additive but
    # not equivariant: a tower hypothesis fails, so the refusal names the
    # stage and the witness (slot, carriers, element, parameters).
    s = odd_part(boolean_semiring(), 2)
    with pytest.raises(RegularityError, match=re.escape(
            "unit into the cofree module is not a module morphism (tower stage 0): "
            "morphism equivariance fails, witness (2, (1, 1), 1, (0, 0))")):
        cofree_coresolution(s, regular_bimodule(s), depth=1)


def test_ext_via_cofree_degree_zero(z4):
    from ngamma.completion import EquivariantHom, linearize_module
    reg = regular_bimodule(z4)
    res = ext_via_cofree(z4, reg, reg, depth=2)
    hom = EquivariantHom(linearize_module(reg), linearize_module(reg))
    assert res.factors()[0] == hom.group.invariant_factors()


def test_balance(f2, z4):
    reg2 = regular_bimodule(f2)
    rep = balance_check(f2, reg2, reg2, depth=3)
    assert rep.balanced, (rep.bar_factors, rep.cofree_factors)
    regz = regular_bimodule(z4)
    rep = balance_check(z4, regz, regz, depth=2)
    assert rep.balanced
    # Zero target: both routes identically zero.
    rep = balance_check(z4, regz, zero_module(z4), depth=2)
    assert rep.balanced
    assert all(f == () for f in rep.bar_factors)
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    rep = balance_check(z4, sub, regz, depth=2)
    assert rep.balanced
    rep = balance_check(z4, regz, sub, depth=2)
    assert rep.balanced


def test_boolean_balance_trivially_zero():
    boolt = boolean_ternary()
    reg = regular_bimodule(boolt)
    rep = balance_check(boolt, reg, reg, depth=2)
    assert rep.balanced
    assert all(f == () for f in rep.bar_factors)


def test_les_hom_side(z4, z4_conflation):
    reg = regular_bimodule(z4)
    rep = les_check(z4_conflation, reg, depth=2, side="hom")
    assert rep.ses_ok and rep.completion_exact
    assert all(rep.exact_at)
    assert [g.invariant_factors() for g in rep.groups[:3]] == [(2,), (4,), (2,)]


def test_les_tor_side(z4, z4_conflation):
    reg = regular_bimodule(z4)
    rep = les_check(z4_conflation, reg, depth=2, side="tor")
    assert rep.ses_ok
    assert all(rep.exact_at)


@pytest.mark.xfail(strict=True, reason="the Tor LES lists degrees 4, 3 and 2 of the "
                   "tensored bar towers, reversed at their cut (ROADMAP item 7)")
def test_tor_les_shows_tor_0(z4, z4_conflation):
    # Tor_0 of the regular module against the ideal, the carrier and the
    # quotient is (2,), (4,) and (2,) (tor_via_bar); the bundled c_ideal
    # sequence lists nine trivial nodes instead.
    reg = regular_bimodule(z4)
    rep = les_check(z4_conflation, reg, 2, "tor")
    assert (4,) in [g.invariant_factors() for g in rep.groups]


def test_les_split_conflation(z4):
    reg = regular_bimodule(z4)
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    total, injs, prjs = direct_sum_modules([reg, quo])
    split = Conflation(injs[0], prjs[1])
    rep = les_check(split, reg, depth=2, side="hom")
    assert all(rep.exact_at)
    assert all(rep.deltas_zero)


@pytest.mark.parametrize("side", ["hom", "tor"])
def test_les_refuses_without_degreewise_exactness(z4, z4_conflation, side):
    # Against the ideal module the functor breaks degreewise short exactness
    # (on the hom side the restriction along the inflation is not
    # surjective), so no ladder is induced; the check must refuse with a
    # report that says why rather than chase a broken zig-zag.
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    rep = les_check(z4_conflation, sub, depth=2, side=side)
    assert not rep.ses_ok
    assert not rep.all_exact
    assert "short exactness" in rep.note
    i, p = z4_conflation.i, z4_conflation.p
    lin_a, lin_b, lin_c = map(linearize_module, (i.source, i.target, p.target))
    assert rep.completion_exact == is_short_exact(linearize_morphism(i, lin_a, lin_b),
                                                  linearize_morphism(p, lin_b, lin_c))


def test_les_trivial_first_leg(z4):
    reg = regular_bimodule(z4)
    conf = Conflation(ModuleMorphism(zero_module(z4), reg, (0,)),
                      identity_module_morphism(reg))
    rep = les_check(conf, reg, depth=1, side="hom")
    assert all(rep.exact_at)


@pytest.mark.parametrize("side,bound", [("hom", 27), ("tor", 12)])
def test_les_decides_exactness_without_subgroup_comparisons(count_calls, side, bound):
    # Comparing image and kernel Subgroups at every position and for every
    # short sequence built 68 (hom) and 53 (tor).  What is left are the
    # kernels of the 12 homology nodes and, on the hom side, of the 15
    # equivariant Hom groups.
    ws = bundled_workspace()
    built = count_calls(abgroups, "Subgroup")
    rep = les_check(ws.conflation("c_ideal"), ws.module("z4_reg"), 2, side)
    assert rep.all_exact and len(rep.exact_at) == 8
    assert built["Subgroup"] <= bound


def test_yoneda_command_builds_one_degree_past_its_table(monkeypatch):
    # The table reads classes through degree depth and cocycle conditions
    # through d(depth), which need bar degree depth + 1 and nothing above it.
    depths = []
    build = homology_mod.bar_complex

    def recording(s, module, j=None, k=0, depth=4, *rest, **named):
        depths.append(depth)
        return build(s, module, j, k, depth, *rest, **named)

    monkeypatch.setattr(homology_mod, "bar_complex", recording)
    assert cli.main(["yoneda", "f2_ternary", "f2_reg", "--depth", "2"]) == 0
    assert depths == [3]


def test_yoneda_refuses_setups_that_do_not_share_slots(z4):
    reg = regular_bimodule(z4)
    ext = ext_via_bar(z4, reg, reg, 2, 0, 2)
    ident = ext.identity_cocycle()
    same = ext_via_bar(z4, reg, reg, 2, 0, 2)
    assert yoneda_compose(ext, 0, ident, same, 0, ident, ext) == ident
    for other in (ext_via_bar(z4, reg, reg, 1, 0, 2), ext_via_bar(z4, reg, reg, 2, 1, 2)):
        for setups in ((other, ext, ext), (ext, other, ext), (ext, ext, other)):
            with pytest.raises(ValueError, match="one semiring and slot pair"):
                yoneda_compose(setups[0], 0, ident, setups[1], 0, ident, setups[2])


def test_only_ext_out_of_a_chain_resolution_has_cocycle_classes(f2):
    # A cofree tower or a Tor record reaches the Ext-only readers and
    # yoneda_compose now; each refuses it before reading anything.
    reg = regular_bimodule(f2)
    ext = ext_via_bar(f2, reg, reg, depth=2)
    ident = ext.identity_cocycle()
    assert [len(ext.cocycles(p)) for p in range(3)] == [2, 1, 2]
    for other in (ext_via_cofree(f2, reg, reg, depth=2), tor_via_bar(f2, reg, reg, depth=2)):
        assert other.factors() == ext.factors()
        readers = [other.identity_cocycle, other.modules, lambda: other.cocycles(0),
                   lambda: other.class_of(0, ident), lambda: other.classes_equal(0, ident, ident)]
        readers += [lambda a=a, b=b, c=c: yoneda_compose(a, 0, ident, b, 0, ident, c)
                    for a, b, c in ((other, ext, ext), (ext, other, ext), (ext, ext, other))]
        for read in readers:
            with pytest.raises(ValueError, match="not Ext out of a chain resolution: "
                                                 r"(cofree tower|bar) of f2_ternary\.regular"):
                read()


@pytest.mark.parametrize("read", [
    lambda ext, c: ext.cocycles(3), lambda ext, c: ext.cocycles(-1),
    lambda ext, c: ext.class_of(-1, c), lambda ext, c: ext.class_of(3, c),
    lambda ext, c: ext.classes_equal(3, c, c),
], ids=["cocycles(3)", "cocycles(-1)", "class_of(-1)", "class_of(3)", "classes_equal(3)"])
def test_cocycle_readers_refuse_a_degree_outside_the_record(z4, read):
    # Depth 2 holds degrees 0..2; the tower's cut degree 3 has no node.
    reg = regular_bimodule(z4)
    ext = ext_via_bar(z4, reg, reg, depth=2)
    with pytest.raises(ValueError, match=r"degree -?\d+ is outside this record's "
                                         r"degrees 0\.\.2"):
        read(ext, ext.identity_cocycle())


@pytest.mark.parametrize("name", ["f2_reg", "z4_reg", "z4_mod2"])
def test_cocycles_are_every_cochain_the_differential_kills(name):
    m = bundled_workspace().module(name)
    ext = ext_via_bar(m.parent, m, m, depth=2)
    for r in range(len(ext.nodes)):
        group, d = ext.complex.groups[r], ext.complex.d(r)
        brute = [v for v in group.elements() if d(v) == d.dst.zero()]
        assert ext.cocycles(r) == brute, (name, r)


def test_cofree_tower_builds_no_cokernel_past_its_last_term(f2, count_calls):
    built = count_calls(homology_mod, "quotient_projection")
    for depth in (1, 2, 3):
        built.clear()
        cofree_coresolution(f2, regular_bimodule(f2), depth)
        assert built["quotient_projection"] == depth


def test_bar_contraction_tables_sum_only_the_lifted_carrier_elements(monkeypatch):
    # The completion of Z/16 has one basis vector, and element 1 is the least
    # element with that vector, so each of the three tables contracts that
    # one element, at any depth.
    s = ternary_from_semiring(zmod_semiring(16))
    contracted = []
    words = ContractionPolicy.words

    def recording(self, s, t):
        contracted.append(t)
        return words(self, s, t)

    monkeypatch.setattr(ContractionPolicy, "words", recording)
    for depth in (1, 3):
        contracted.clear()
        bar_complex(s, regular_bimodule(s), depth=depth)
        assert contracted == [1, 1, 1]


def test_yoneda_lift_independence(f2):
    reg = regular_bimodule(f2)
    ext = ext_via_bar(f2, reg, reg, depth=3)
    ident = ext.identity_cocycle()
    base = random.Random(2026)
    cocycles1 = ext.cocycles(1)
    for trial in range(50):
        rng1 = random.Random(base.randrange(1 << 30))
        rng2 = random.Random(base.randrange(1 << 30))
        for c in cocycles1:
            a = yoneda_compose(ext, 1, c, ext, 1, c, ext, rng1)
            b = yoneda_compose(ext, 1, c, ext, 1, c, ext, rng2)
            assert ext.classes_equal(2, a, b)


def _yoneda_modules(f2, z4):
    ideal = GammaIdeal(z4, frozenset({0, 2}))
    return {"f2": (f2, regular_bimodule(f2)), "reg": (z4, regular_bimodule(z4)),
            "ideal": (z4, ideal_submodule(z4, ideal)),
            "quot": (z4, quotient_module(z4, ideal))}


def test_yoneda_lifts_are_equivariant_chain_maps(f2, z4):
    # Lifts from B(M) to B(N) of every cocycle in Hom(B_q(M), N).  Maps
    # from the ideal {0, 2} into Z/4 carry a Hom multiplier of 2, which F2
    # alone never exercises.
    mods = _yoneda_modules(f2, z4)
    mods["f2sum"] = (f2, direct_sum_modules([mods["f2"][1], mods["f2"][1]])[0])
    pairs = [(a, a) for a in mods] + [("reg", "ideal"), ("ideal", "reg"),
                                      ("reg", "quot"), ("quot", "reg"),
                                      ("f2", "f2sum"), ("f2sum", "f2")]
    rng = random.Random(7)
    for a, b in pairs:
        (s, m), (_, n) = mods[a], mods[b]
        ext = ext_via_bar(s, m, n, depth=3)
        bar_m, bar_n = ext.resolution, bar_complex(s, n, depth=4)
        for q in range(3):
            for cg in ext.cocycles(q):
                g0 = ext.functor.homs[q].matrix(cg)
                for p in range(3 - q):
                    for gen in (None, rng):
                        lifts = _lift_chain_map(bar_m, bar_n, g0.mat, q, p, gen)
                        for i, g in enumerate(lifts):
                            if i:
                                assert bar_n.diffs[i].compose(g).equal(
                                    lifts[i - 1].compose(bar_m.diffs[q + i]))
                            src, dst = bar_m.terms[q + i], bar_n.terms[i]
                            for slot in range(s.n):
                                for pop, qop in zip(src.ops[slot], dst.ops[slot]):
                                    assert g.compose(pop).equal(qop.compose(g))


def test_yoneda_lift_mixing_stays_in_the_kernel(f2):
    # Towers F2 -0-> F2 and F2^2 -d-> F2^2 with d = [[1, 1], [0, 0]]: the
    # kernel of postcomposition by d on Hom(F2, F2^2) is generated by (1, 1),
    # so a random lift must scale both coordinates by one coefficient.  The
    # bundled towers only yield kernel generators with one nonzero entry.
    class Tower:
        def __init__(self, terms, diffs):
            self.terms, self.diffs = terms, diffs

    reg = regular_bimodule(f2)
    one = linearize_module(reg)
    two = linearize_module(direct_sum_modules([reg, reg])[0])
    src = Tower([one, one], {1: GroupMap(one.group, one.group, [[0]])})
    dst = Tower([two, two], {1: GroupMap(two.group, two.group, [[1, 1], [0, 0]])})
    for seed in range(20):
        g0, g1 = _lift_chain_map(src, dst, [[0], [0]], 0, 1, random.Random(seed))
        assert dst.diffs[1].compose(g1).equal(g0.compose(src.diffs[1]))


def test_yoneda_class_tables_z4(capsys):
    # The command's product table of classes, read from its structured
    # report, for the three bundled Z/4 modules.
    golden = json.loads(Path(__file__).with_name("golden_yoneda_z4.json").read_text())
    modules = {"reg": "z4_reg", "ideal": "z4_ideal02", "quot": "z4_mod2"}
    for name, want in golden.items():
        assert cli.main(["--format", "structured", "yoneda", "z4_ternary", modules[name],
                         "--depth", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["products"] == want, name


def test_yoneda_refuses_a_table_over_its_bound_before_composing(tmp_path, capsys, monkeypatch):
    # reg (+) reg over ternary Z/4 has 256 cocycles in degrees 0 and 2 and
    # one in degree 1, so its depth-2 table asks for 3 * 256^2 + 2 * 256 + 1
    # composites.
    z4 = z4_ternary()
    total = direct_sum_modules([regular_bimodule(z4)] * 2)[0]
    path = tmp_path / "ws.json"
    path.write_text(dump_document(workspace_document(
        {"m_z4": z4.T, "m_sum": total.M}, {"g": z4.gamma}, {"z4": (z4, "m_z4", "g")},
        {"sum": (total, "z4", "m_sum")})), encoding="utf-8")

    def composing(*args, **kwargs):
        raise AssertionError("composed before refusing")

    monkeypatch.setattr(homology_mod, "yoneda_compose", composing)
    assert cli.main(["--no-bundled", "-w", str(path), "yoneda", "z4", "sum",
                     "--depth", "2"]) == cli.ERROR
    assert capsys.readouterr().err == (
        "error: yoneda table of 197121 composites (every cocycle pair with p + q <= 2) "
        f"exceeds its bound {homology_mod.YONEDA_COMPOSITE_BOUND}\n")
    assert 3265 <= homology_mod.YONEDA_COMPOSITE_BOUND < 197121


def test_policies_are_configurable(z4):
    reg = regular_bimodule(z4)
    pol = ContractionPolicy(((0, 0),), ((1,),))
    bar = bar_complex(z4, reg, 2, 0, depth=2, policy=pol)
    assert [g.invariant_factors() for g in bar.chain.groups] == [(4,)] * 3
    # Summing fillers over all of T scales contractions by 0+1+2+3 = 6 = 2,
    # so d_2 is 2 and d_1 is 0: the tower has homology (2,) at degree 1.
    pol2 = ContractionPolicy(tuple(z4.g_tuples(2)), tuple(z4.t_tuples(1)))
    with pytest.raises(RegularityError, match=r"degree 1 has homology \(2,\)"):
        bar_complex(z4, reg, 2, 0, depth=2, policy=pol2)


@pytest.fixture
def built_chains(monkeypatch):
    """The chain of every ``Resolution`` built meanwhile, recorded before its
    exactness check runs."""
    chains = []
    init = Resolution.__init__

    def recording(self, semiring, terms, chain, *rest):
        chains.append(chain)
        init(self, semiring, terms, chain, *rest)

    monkeypatch.setattr(Resolution, "__init__", recording)
    return chains


def _witness(err) -> tuple[int, ...]:
    return ast.literal_eval(re.search(r"witness cycle (\(.*\))$", str(err)).group(1))


def _assert_witness(chain: Complex, r: int, err) -> None:
    """The refusal's witness is a cycle at degree r whose class is nonzero."""
    witness = _witness(err)
    assert chain.d(r).dst.is_zero(chain.d(r)(witness))
    node = chain.node(r)
    assert not node.group.is_zero(node.classify(witness))


def test_sum_policy_tower_is_refused_with_a_witness(z4, built_chains):
    # Under the all-fillers policy the tower is not exact: the constructor
    # refuses it at degree 1, naming the tower, its homology and a cycle that
    # is not a boundary; d.d = 0 and degree zero still hold.
    pol = ContractionPolicy(tuple(z4.g_tuples(2)), tuple(z4.t_tuples(1)))
    with pytest.raises(RegularityError) as err:
        bar_complex(z4, regular_bimodule(z4), 2, 0, depth=3, policy=pol)
    assert str(err.value).startswith(
        "bar of z4_ternary.regular (fillers ((0,), (1,), (2,), (3,)), parameter "
        "tuples ((0, 0),)) is not a resolution: degree 1 has homology (2,), ")
    chain, = built_chains
    assert homology(chain)[0].invariant_factors() == (4,)
    _assert_witness(chain, 1, err.value)


def _one_filler(s, f):
    return ContractionPolicy(tuple(s.g_tuples(s.n - 1)), ((f,) * (s.n - 2),))


@pytest.mark.parametrize("name", ["z4_reg", "z4_mod2", "z4_ideal02"])
def test_inexact_towers_are_refused_and_exact_ones_agree(z4, name, built_chains):
    # Over Z/4 the fillers 0 and 2, and the sum of all four, give towers with
    # homology at degree 1; the units 1 and 3 give the default's groups.
    m = bundled_workspace().module(name)
    policies = {f: _one_filler(z4, f) for f in range(4)}
    policies["all"] = ContractionPolicy(tuple(z4.g_tuples(2)), tuple(z4.t_tuples(1)))
    runs = {"bar": lambda policy: homology(bar_complex(z4, m, depth=3, policy=policy).chain),
            "ext": lambda policy: ext_via_bar(z4, m, m, depth=3, policy=policy).groups,
            "tor": lambda policy: tor_via_bar(z4, m, m, depth=3, policy=policy).groups}
    for what, run in runs.items():
        want = run(None)
        for f, policy in policies.items():
            if f in (1, 3):
                assert run(policy) == want, (what, f)
                continue
            with pytest.raises(RegularityError, match=r"is not a resolution: degree 1 ") as err:
                run(policy)
            _assert_witness(built_chains[-1], 1, err.value)


@pytest.mark.parametrize("step", [-1, 1])
def test_a_tower_with_homology_is_refused_in_either_direction(f2, step):
    # Z/2 in degrees 0..2 with zero differentials has Z/2 of homology at the
    # checked degree 1, whichever way the tower runs; degree 2 is the cut.
    lin = linearize_module(regular_bimodule(f2))
    chain = Complex([lin.group] * 3, {}, step)
    with pytest.raises(RegularityError, match=r"^zeros is not a resolution: degree 1 has "
                                              r"homology \(2,\), witness cycle \(1,\)$"):
        Resolution(f2, [lin] * 3, chain, None, None, "zeros")
    # Degree 0, the resolved module, and the cut are not checked.
    zero = zero_completed(f2)
    Resolution(f2, [lin, zero, lin], Complex([lin.group, zero.group, lin.group], {}, step),
               None, None, "zeros")


def _zero_multiplication(n):
    t = FiniteAddMonoid(2, (0, 1, 1, 0))
    return NaryGammaSemiring(n, t, trivial_gamma(), (0,) * 2 ** n, name="zm")


@pytest.fixture
def contractions(monkeypatch):
    """(semiring, policy) of every bar tower and the semiring of every cofree
    unit built meanwhile."""
    seen = {"bar": [], "unit": []}
    bar, unit = homology_mod.bar_complex, homology_mod._unit_into_cofree

    def recording_bar(s, module, j=None, k=0, depth=4, policy=None):
        seen["bar"].append((s, policy or default_policy(s)))
        return bar(s, module, j, k, depth, policy)

    def recording_unit(b):
        seen["unit"].append(b.parent)
        return unit(b)

    for owner in (homology_mod, spectral_mod):
        monkeypatch.setattr(owner, "bar_complex", recording_bar)
    monkeypatch.setattr(homology_mod, "_unit_into_cofree", recording_unit)
    return seen


def _defaulted(pairs):
    """The semiring names of ``pairs``, each checked to contract by its
    semiring's default."""
    for s, policy in pairs:
        want = default_policy(s)
        assert (policy.gammas, policy.fillers) == (want.gammas, want.fillers), s.name
    return {s.name for s, _ in pairs}


@pytest.mark.parametrize("argv, bar_semirings, unit_semirings", [
    ("ext z4_ternary z4_reg z4_reg --depth 1", {"z4_ternary"}, set()),
    ("tor z4_ternary z4_reg z4_ideal02 --depth 1", {"z4_ternary"}, set()),
    ("balance z4_ternary z4_reg z4_reg --depth 1", {"z4_ternary"}, {"z4_ternary"}),
    ("les c_ideal z4_reg --side hom --depth 1", {"z4_ternary"}, set()),
    ("les c_ideal z4_reg --side tor --depth 1", {"z4_ternary"}, set()),
    ("yoneda f2_ternary f2_reg --depth 1", {"f2_ternary"}, set()),
    ("kunneth f2_ternary f2_reg f2_reg f2_reg --depth 1", {"f2_ternary"}, set()),
    ("basechange q_z4_f2 z4_reg z4_reg", {"z4_ternary", "f2_ternary"}, set()),
])
def test_derived_commands_contract_with_each_semirings_default(
        argv, bar_semirings, unit_semirings, contractions):
    # Base change checks its source and target towers against their own
    # semirings.
    assert cli.main(argv.split()) == 0
    assert _defaulted(contractions["bar"]) == bar_semirings
    assert {s.name for s in contractions["unit"]} == unit_semirings


def test_default_policy_sums_fillers_without_a_neutral_word(f2, contractions,
                                                            built_chains):
    zm = _zero_multiplication(3)
    assert default_policy(zm).fillers == ((0,), (1,))
    # A carrier with a neutral word contracts with it; n = 2 has no fillers.
    assert default_policy(f2).fillers == ((1,),)
    assert default_policy(_zero_multiplication(2)).fillers == ((),)
    assert {default_policy(s).label for s in (zm, f2)} == {""}
    # Zero multiplication makes every face zero, so the default tower has
    # homology (2,) in every degree, and every derived call on it refuses.
    reg = regular_bimodule(zm)
    for derived in (ext_via_bar, tor_via_bar, balance_check):
        with pytest.raises(RegularityError, match=r"^bar of zm\.regular \(fillers "
                                                  r"\(\(0,\), \(1,\)\), .* degree 1 has "
                                                  r"homology \(2,\)"):
            derived(zm, reg, reg, depth=1)
    with pytest.raises(RegularityError):
        bar_complex(zm, reg, depth=4)
    assert [h.invariant_factors() for h in homology(built_chains[-1])] == [(2,)] * 5
    with pytest.raises(RegularityError, match="not injective after completion"):
        ext_via_cofree(zm, reg, reg, depth=1)
    assert _defaulted(contractions["bar"]) == {s.name for s in contractions["unit"]} \
        == {"zm"}


def test_distinct_operators_bound_the_smith_systems(monkeypatch):
    # Regular ternary Z/12 stores 432 operators per module but only 12 are
    # distinct; every system is built from the distinct ones.  Sizes are
    # counted, not timed.
    from ngamma import intlinalg as la
    from ngamma.core import zmod_semiring

    rows = []
    snf = la.smith_normal_form

    def recording(a, nrows, ncols, **kw):
        rows.append(nrows)
        return snf(a, nrows, ncols, **kw)

    monkeypatch.setattr(la, "smith_normal_form", recording)
    z12 = ternary_from_semiring(zmod_semiring(12))
    reg = regular_bimodule(z12)
    assert ext_via_bar(z12, reg, reg, 2, 0, 2).factors() == [(12,), (), ()]
    assert rows and max(rows) <= 16
    monkeypatch.undo()

    z64 = ternary_from_semiring(zmod_semiring(64))
    reg = regular_bimodule(z64)
    assert ext_via_bar(z64, reg, reg, 2, 0, 3).factors() == [(64,), (), (), ()]


# sha256 of the depth-4 bar differentials of ext_via_bar(s, reg, reg,
# depth=3) and of the tensored differentials of tor_via_bar(s, reg, reg,
# depth=3), taken before the pair-space contractions became one-sided.  The
# carrier and the module have dimension 2, so every projection, lift and
# tensored map runs a contraction with an identity factor of size 2, which
# the cyclic benchmark jobs never do.  The Ext bar and the Tor chain agree
# here, and so do the binary and ternary lifts.
WIDE_BAR_DIGESTS = {
    "f2[x]/x^2": "1eae5f68ca478b3f0a55e5a5cc29db77ea61907a50787479ee118c840bff2e31",
    "f2xf2": "102c39681f3fd0b651a3958e024d4591f2e0ac923c9cc601f95f009607e42dc0",
}


def _diffs_digest(diffs) -> str:
    return hashlib.sha256(repr([(r, d.src.orders, d.dst.orders, d.mat)
                                for r, d in sorted(diffs.items())]).encode()).hexdigest()


@pytest.mark.parametrize("arity", ["binary", "ternary"])
@pytest.mark.parametrize("name, build", [
    ("f2[x]/x^2", lambda: truncated_polynomial(2, 2)),
    ("f2xf2", lambda: product(f2_semiring(), f2_semiring())),
])
def test_bar_and_tor_matrices_over_two_dimensional_carriers_are_pinned(name, build, arity):
    s = build() if arity == "binary" else ternary_from_semiring(build())
    reg = regular_bimodule(s)
    ext = ext_via_bar(s, reg, reg, depth=3)
    tor = tor_via_bar(s, reg, reg, depth=3)
    carrier_by_module = ext.resolution.tensors[1]
    assert carrier_by_module.x.group.dim == carrier_by_module.y.group.dim == 2
    assert _diffs_digest(ext.resolution.diffs) == WIDE_BAR_DIGESTS[name]
    assert _diffs_digest(tor.complex.diffs) == WIDE_BAR_DIGESTS[name]
