from itertools import chain, product

import pytest
from test_validate_once import REGULAR_FAMILIES

from ngamma.abgroups import SoundnessError
from ngamma.bundled import bundled_workspace
from ngamma.core import (
    BoundExceeded, FiniteAddMonoid, boolean_semiring,
    boolean_ternary, f2_semiring, f2_ternary, make_endomorphism_family, make_matrix_family,
    odd_part, StructuralError, ternary_from_semiring, z4_ternary, zmod_semiring,
)
from ngamma.completion import TensorGroup, linearize_module
from ngamma.homology import bar_complex
from ngamma.ideals import GammaIdeal
from ngamma.spectral import base_change_check, extend_scalars, flatness_probe
from ngamma.modules import (
    BiGammaModule, Conflation, ModuleMorphism, additive_maps, build_module,
    check_conflation, cofree, direct_sum_modules, equivariant_maps, hom_gamma, ideal_submodule,
    identity_module_morphism, quotient_module,
    TensorCongruence, regular_bimodule, tensor_positional, validate_module,
    validate_module_morphism, zero_module,
)


@pytest.fixture(scope="module")
def f2():
    return f2_ternary()


@pytest.fixture(scope="module")
def z4():
    return z4_ternary()


@pytest.fixture(scope="module")
def boolt():
    return boolean_ternary()


def test_regular_bimodule_validates(f2, z4, boolt):
    for s in (f2, z4, boolt):
        mod = regular_bimodule(s)
        assert mod.M.size == s.T.size
        rep = validate_module(mod)
        assert rep.ok, str(rep)


def test_zero_absorption_failure(f2):
    good = regular_bimodule(f2)
    # Break one entry: act_1(t=(1,1), m=1) := 1 stays, make act(t=(0,1), m=1) = 1.
    tables = [list(t) for t in good.act_tables]
    # Entry layout for slot 0: (m, t2, t3, g1, g2) with m slowest.
    i = (((1 * 2 + 0) * 2 + 1) * 1 + 0) * 1 + 0
    tables[0][i] = 1  # act_1((0,1), m=1) = 1 despite a zero carrier argument
    broken = BiGammaModule(f2, good.M, tuple(tuple(t) for t in tables))
    rep = validate_module(broken)
    assert not rep.ok
    assert any(c.axiom == "zero absorption" and not c.ok for c in rep.checks)


def test_module_zero_failure(f2):
    good = regular_bimodule(f2)
    tables = [list(t) for t in good.act_tables]
    # act_1 with m = 0, t = (1,1) must be 0; set it to 1.
    i = (((0 * 2 + 1) * 2 + 1) * 1 + 0) * 1 + 0
    tables[0][i] = 1
    broken = BiGammaModule(f2, good.M, tuple(tuple(t) for t in tables))
    rep = validate_module(broken)
    assert not rep.ok


def test_ideal_and_quotient_modules(z4):
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    assert sub.M.size == 2
    assert validate_module(sub).ok
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    assert quo.M.size == 2
    assert validate_module(quo).ok
    # Action of odd carrier material on the ideal generator: 1*1*2 = 2.
    assert sub.act(0, (1, 1), 1, (0, 0)) == 1
    # 2*2*m = 0 in the ideal module for every m.
    assert sub.act(0, (2, 2), 1, (0, 0)) == 0


def test_direct_sum(z4):
    reg = regular_bimodule(z4)
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    total, injs, prjs = direct_sum_modules([reg, quo])
    assert total.M.size == 8
    assert validate_module(total).ok
    for f in injs + prjs:
        assert validate_module_morphism(f).ok
    assert prjs[0](injs[0](3)) == 3
    assert prjs[1](injs[0](3)) == quo.M.zero


def _direct_sum_cell_by_cell(mods, monoid):
    """The sum's action restated through build_module and act, one cell each."""
    elems = list(product(*[range(m.M.size) for m in mods]))
    index = {e: i for i, e in enumerate(elems)}
    return build_module(
        mods[0].parent, monoid,
        lambda j, tother, m, gs: index[tuple(
            mod.act(j, tother, comp, gs) for mod, comp in zip(mods, elems[m]))])


def test_direct_sum_from_columns_matches_cell_by_cell(f2, z4):
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    m2f2 = make_matrix_family(f2_semiring(), 2, 2)
    z6 = zmod_semiring(6)
    cases = [[regular_bimodule(z4), quo],
             [regular_bimodule(f2), regular_bimodule(f2)],
             [regular_bimodule(m2f2), zero_module(m2f2), regular_bimodule(m2f2)],
             [regular_bimodule(z6), regular_bimodule(z6)]]
    for mods in cases:
        total, _, _ = direct_sum_modules(mods)
        want = _direct_sum_cell_by_cell(mods, total.M)
        assert total.act_tables == want.act_tables
        assert validate_module(total).ok


def test_additive_maps_enumeration(monkeypatch):
    z2 = FiniteAddMonoid(2, (0, 1, 1, 0))
    z4m = FiniteAddMonoid(4, tuple((a + b) % 4 for a in range(4) for b in range(4)))
    boolm = FiniteAddMonoid(2, (0, 1, 1, 1))
    assert len(additive_maps(z2, z2)) == 2
    assert len(additive_maps(z4m, z4m)) == 4
    assert len(additive_maps(z4m, z2)) == 2
    assert len(additive_maps(z2, z4m)) == 2  # 1 -> 0 or 2
    assert len(additive_maps(boolm, boolm)) == 2  # const-1 is not additive
    assert len(additive_maps(boolm, z2)) == 1  # 1+1=1 forces f(1)=0
    monkeypatch.setattr("ngamma.modules.MAP_BOUND", 3)
    with pytest.raises(BoundExceeded, match=r"additive map enumeration of \|dst\|\^g = 4\^1 "
                                            r"= 4 candidates exceeds its bound 3"):
        additive_maps(z4m, z4m)


def test_hom_gamma_examples(f2):
    reg = regular_bimodule(f2)
    h = hom_gamma(reg, reg, 2, 0)
    assert h.module.M.size == 2
    assert sorted(h.maps) == [(0, 0), (0, 1)]
    assert validate_module(h.module).ok
    z = zero_module(f2)
    assert hom_gamma(reg, z).module.M.size == 1
    assert hom_gamma(z, reg).module.M.size == 1


def test_hom_gamma_z4(z4):
    reg = regular_bimodule(z4)
    h = hom_gamma(reg, reg)
    assert h.module.M.size == 4
    assert validate_module(h.module).ok
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    h2 = hom_gamma(sub, reg)
    assert h2.module.M.size == 2


def test_tensor_f2(f2):
    reg = regular_bimodule(f2)
    t = tensor_positional(reg, reg, 2, 0)
    assert t.module.M.size == 2
    e = t.pair(1, 1)
    assert e != t.module.M.zero
    assert t.module.M.add(e, e) == t.module.M.zero  # 2(1x1) = (1+1)x1 = 0
    assert t.pair(0, 1) == t.module.M.zero
    assert validate_module(t.module).ok


def test_tensor_boolean(boolt):
    reg = regular_bimodule(boolt)
    t = tensor_positional(reg, reg, 2, 0)
    assert t.module.M.size == 2
    e = t.pair(1, 1)
    assert t.module.M.add(e, e) == e  # idempotency transported
    assert validate_module(t.module).ok


def test_tensor_with_zero(f2):
    reg = regular_bimodule(f2)
    z = zero_module(f2)
    t = tensor_positional(reg, z, 2, 0)
    assert t.module.M.size == 1


def test_tensor_z4(z4):
    reg = regular_bimodule(z4)
    t = tensor_positional(reg, reg, 2, 0)
    assert t.module.M.size == 4
    assert validate_module(t.module).ok
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    t2 = tensor_positional(reg, sub, 2, 0)
    assert t2.module.M.size == 2


def test_tensor_ternary_zmod_has_m_elements():
    # Z/m (x) Z/m over regular ternary Z/m is Z/m again; the ambient Z/m^1
    # stays small although the pair box grows like 2^((m-1)^2).
    for m in (5, 6, 8, 12, 16, 32):
        reg = regular_bimodule(ternary_from_semiring(zmod_semiring(m)))
        assert tensor_positional(reg, reg, 2, 0).module.M.size == m


def test_tensor_refusal_names_ambient_and_bound(z4, monkeypatch):
    reg = regular_bimodule(z4)
    monkeypatch.setattr("ngamma.modules.TENSOR_ELEMENT_BOUND", 3)
    with pytest.raises(BoundExceeded, match=r"\|L\|\^g = 4\^1 = 4 exceeds the element bound 3"):
        tensor_positional(reg, reg, 2, 0)


def test_residual_action_must_be_additive(z4):
    # Each pair a(x)b goes to the square of its class ab, so the images agree
    # on every pair class, but squaring is not additive on Z/4 (1+1 -> 0,
    # 1 -> 1): no additive action extends them.
    reg = regular_bimodule(z4)
    core = TensorCongruence(reg, reg, 2, 0)
    assert core.monoid.size == 4

    def squared(col, a, b):
        return core.gen_vec(a * a * b * b % 4, 1)

    with pytest.raises(SoundnessError, match=r"slot 1 with carriers \(0, 0\) .* does not descend"):
        core.residual_module(z4, [("right", reg, squared)], "squared")


# ---------------------------------------------------------------------------
# Residual actions: one factor per slot
# ---------------------------------------------------------------------------

_K4 = FiniteAddMonoid(4, tuple(a ^ b for a in range(4) for b in range(4)))
NONCOMMUTATIVE = {
    "m2f2^2": lambda: make_matrix_family(f2_semiring(), 2, 2),
    "m2b^2": lambda: make_matrix_family(boolean_semiring(), 2, 2),
    "endk4^2": lambda: make_endomorphism_family(_K4, 2),
    "m2f2^3": lambda: make_matrix_family(f2_semiring(), 2, 3),
    "endk4^3": lambda: make_endomorphism_family(_K4, 3),
}


@pytest.mark.parametrize("family, slots", [
    ("m2f2^2", "2,1"), ("m2b^2", "2,1"), ("endk4^2", "2,1"), ("m2f2^2", "1,2")])
def test_binary_noncommutative_regular_tensor_is_the_carrier(family, slots):
    # Slot 2 of a binary regular module multiplies on the left and slot 1 on
    # the right.  At slots (2,1) the tensor balances ta (x) b with a (x) bt, so
    # slot 1 acts through the left factor, slot 2 through the right, and the
    # class of (a, b) goes to ba; at slots (1,2) it is A (x)_A A and goes to
    # ab.  Either way it is a bijective module morphism onto the regular module.
    s = NONCOMMUTATIVE[family]()
    reg = regular_bimodule(s)
    j, k = (int(x) - 1 for x in slots.split(","))
    t = tensor_positional(reg, reg, j, k)
    assert t.module.M.size == 16
    assert validate_module(t.module).ok
    product_of = {}
    for a, b in product(range(16), repeat=2):
        ab = s.mu((b, a) if j else (a, b), (0,))
        assert product_of.setdefault(t.pair(a, b), ab) == ab
    f = ModuleMorphism(t.module, reg, tuple(product_of[c] for c in range(16)))
    assert sorted(f.map) == list(range(16))
    assert validate_module_morphism(f).ok


@pytest.mark.parametrize("family", ["m2f2^3", "endk4^3"])
def test_ternary_noncommutative_regular_tensor_refuses_at_slot_2(family):
    # The completed tensor group refuses with the monoid tensor's text.
    reg = regular_bimodule(NONCOMMUTATIVE[family]())
    filler = r"the action at slot 2 with carriers \(\d+, \d+\) and parameters \(0, 0\) " \
             r"does not descend"
    with pytest.raises(SoundnessError, match=rf"^no residual action descends at slot 2: "
                       rf"through the right factor, {filler}; "
                       rf"through the left factor, {filler}$") as monoid:
        tensor_positional(reg, reg, 2, 0)
    lin = linearize_module(reg)
    with pytest.raises(SoundnessError) as group:
        TensorGroup(lin, lin, 2, 0).as_module()
    assert str(group.value) == str(monoid.value)


@pytest.mark.parametrize("m", [4, 16])
def test_each_distinct_column_is_projected_once_per_side(m, count_calls):
    # Every slot of ternary Z/m acts through the right factor, and its 3 m^2
    # (slot, filler) columns are the m multiplications: one extension each.
    reg = regular_bimodule(ternary_from_semiring(zmod_semiring(m)))
    calls = count_calls(TensorCongruence, "_extension")
    tensor_positional(reg, reg, 2, 0)
    assert calls["_extension"] == len(set(chain(*map(reg.actions, range(3))))) == m


def _carried_tables(core, slot):
    """Slot ``slot``'s tables on the quotient through each factor of a
    TensorCongruence, right then left, that carries it: whose columns all
    extend to additive tables on the classes."""
    images = [(core.right, lambda col, a, b: core.gen_vec(a, col[b])),
              (core.left, lambda col, a, b: core.gen_vec(col[a], b))]
    carried = []
    for factor, image in images:
        cols = factor.actions(slot)
        tables = {col: core._extension([image(col, a, b) for a, b in core.pairs])
                  for col in dict.fromkeys(cols)}
        if None not in tables.values():
            carried.append([tables[col] for col in cols])
    return carried


def test_factors_that_both_carry_a_slot_agree():
    # Each slot acts through the right factor when both could carry it.  On
    # these fixtures that preference moves no table: wherever both factors
    # descend, their tables are equal.  This slice takes the default slots,
    # except slots (1,1) for the M2 families: at their default slots no slot
    # is carried by both.  Every (j, k) gives 1,108 such slot cases, all equal.
    ws = bundled_workspace()
    mods = [(ws.module(a), ws.module(b)) for a, b in product(sorted(ws.modules), repeat=2)
            if ws.module(a).parent == ws.module(b).parent]
    mods += [(regular_bimodule(s), regular_bimodule(s)) for s in REGULAR_FAMILIES.values()]
    m2 = {REGULAR_FAMILIES[f] for f in ("m2f2_binary", "m2b_binary", "m2f2_ternary")}
    both = 0
    for left, right in mods:
        s = left.parent
        slots = (0, 0) if s in m2 else (s.n - 1, 0)
        core = TensorCongruence(left, right, *slots)
        for slot in range(s.n):
            tables = _carried_tables(core, slot)
            if len(tables) == 2:
                both += 1
                assert tables[0] == tables[1], (left.name, right.name, slots, slot)
    assert both == 126


# On the regular modules of Lister's odd parts, at slots (3,1) and (1,3),
# slots 1 and 3 descend through both factors with different tables, so the
# right-first rule of ``residual_slots`` picks one of two actions.  No answer
# shows it yet, because slot 2 descends through neither factor and refuses
# first.  A case where a slot stops descending through both fails outright,
# through ``pytest.fail``, not as the expected failure.
ODD_PART_CHOICE = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "item 18: on odd(M2(F2)) and odd(M2(B)) at slots (3,1) and (1,3), slots 1 and 3 "
    "descend through both factors with different tables"))


@ODD_PART_CHOICE
@pytest.mark.parametrize("base", [f2_semiring, boolean_semiring])
@pytest.mark.parametrize("j, k", [(2, 0), (0, 2)])
def test_odd_parts_factors_that_both_carry_a_slot_agree(base, j, k):
    core = TensorCongruence(*[regular_bimodule(odd_part(base(), 2))] * 2, j, k)
    carried = [_carried_tables(core, slot) for slot in (0, 2)]
    if [len(tables) for tables in carried] != [2, 2]:
        pytest.fail("slots 1 and 3 no longer descend through both factors")
    assert all(right == left for right, left in carried)


@ODD_PART_CHOICE
@pytest.mark.parametrize("j, k", [(2, 0), (0, 2)])
def test_odd_part_operators_that_both_carry_a_slot_agree(j, k):
    # The group layer's residual operators on odd(M2(F2)); over odd(M2(B))
    # the completion is trivial, so the two factors cannot differ there.
    lin = linearize_module(regular_bimodule(odd_part(f2_semiring(), 2)))
    tg = TensorGroup(lin, lin, j, k)
    for slot in (0, 2):
        right, left = ([tg.pair_matrix_to_quotient(side, op.mat) for op in lin.ops[slot]]
                       for side in ("right", "left"))
        if None in right + left:
            pytest.fail(f"slot {slot + 1} no longer descends through both factors")
        assert [gm.key for gm in right] == [gm.key for gm in left]


def test_cofree_examples(f2, boolt):
    cf = cofree(f2, FiniteAddMonoid(2, (0, 1, 1, 0)))
    assert cf.module.M.size == 2
    assert validate_module(cf.module).ok
    trivial = cofree(f2, FiniteAddMonoid(1, (0,)))
    assert trivial.module.M.size == 1
    cfb = cofree(boolt, FiniteAddMonoid(2, (0, 1, 1, 1)))
    assert cfb.module.M.size == 2
    assert validate_module(cfb.module).ok


def test_cofree_coinduction_bijection(z4):
    # Module maps B -> cofree(UM) correspond to additive maps B -> M.
    reg = regular_bimodule(z4)
    cf = cofree(z4, reg.M)
    morphisms = equivariant_maps(reg, cf.module)
    addmaps = additive_maps(reg.M, reg.M)
    assert len(morphisms) == len(addmaps)


def test_maps_module_bounds_its_addition_table(z4, f2, monkeypatch):
    # Z/4 -> Z/4 has 4 additive maps (within the bound of 10), whose
    # addition table would have 16 entries: refused before tabulating.
    monkeypatch.setattr("ngamma.modules.MAP_BOUND", 10)
    with pytest.raises(BoundExceeded, match=r"cofree addition table of 4\^2 = 16 sums "
                                            r"exceeds its bound 10"):
        cofree(z4, z4.T)
    monkeypatch.setattr("ngamma.modules.MAP_BOUND", 16)
    assert cofree(z4, z4.T).module.M.size == 4
    reg = regular_bimodule(f2)
    monkeypatch.setattr("ngamma.modules.MAP_BOUND", 3)
    with pytest.raises(BoundExceeded, match=r"hom addition table of 2\^2 = 4 sums "
                                            r"exceeds its bound 3"):
        hom_gamma(reg, reg)


def test_conflations(f2, z4):
    reg = regular_bimodule(f2)
    z = zero_module(f2)
    ident = Conflation(identity_module_morphism(reg),
                       ModuleMorphism(reg, z, (0, 0)))
    assert check_conflation(ident).ok

    regz = regular_bimodule(z4)
    quo = quotient_module(z4, GammaIdeal(z4, frozenset({0, 2})))
    total, injs, prjs = direct_sum_modules([regz, quo])
    split = Conflation(injs[0], prjs[1])
    assert check_conflation(split).ok

    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    incl = ModuleMorphism(sub, regz, (0, 2))
    proj = ModuleMorphism(regz, quo, (0, 1, 0, 1))
    conf = Conflation(incl, proj)
    assert validate_module_morphism(incl).ok
    assert validate_module_morphism(proj).ok
    assert check_conflation(conf).ok

    broken = Conflation(incl, ModuleMorphism(regz, quo, (0, 1, 1, 1)))
    assert not check_conflation(broken).ok


def test_conflation_refusals_name_their_witness(z4):
    ideal = GammaIdeal(z4, frozenset({0, 2}))
    reg, sub, quo = regular_bimodule(z4), ideal_submodule(z4, ideal), quotient_module(z4, ideal)
    incl, proj = ModuleMorphism(sub, reg, (0, 2)), ModuleMorphism(reg, quo, (0, 1, 0, 1))
    cases = [
        (ModuleMorphism(sub, reg, (0, 1)), proj, ("inflation invalid",)),
        (ModuleMorphism(sub, reg, (0, 0)), proj, ("inflation not injective",)),
        (incl, ModuleMorphism(reg, quo, (0, 0, 0, 0)), ("deflation not surjective",)),
        (identity_module_morphism(reg), proj, ("composite nonzero", 1)),
        (ModuleMorphism(zero_module(z4), reg, (0,)), proj, ("middle exactness", [0], [0, 2])),
    ]
    for i, p, witness in cases:
        check = check_conflation(Conflation(i, p))
        assert (check.ok, check.witness) == (False, witness)


def test_hom_tensor_adjunction_counts(z4):
    reg = regular_bimodule(z4)
    sub = ideal_submodule(z4, GammaIdeal(z4, frozenset({0, 2})))
    for m, n, l in [(reg, reg, reg), (reg, sub, reg), (sub, reg, sub)]:
        t = tensor_positional(m, n, 2, 0)
        lhs = hom_gamma(t.module, l)
        inner = hom_gamma(n, l)
        rhs = hom_gamma(m, inner.module)
        assert len(lhs.maps) == len(rhs.maps)


def test_additive_maps_on_relabelled_carrier():
    # Z/4 with 2 and 3 swapped: 1+1 = 3 is needed before 1+3 = 2 can be read.
    m = FiniteAddMonoid(4, (0, 1, 2, 3, 1, 3, 0, 2, 2, 0, 3, 1, 3, 2, 1, 0))
    brute = [f for f in product(range(4), repeat=4)
             if all(f[m.add(x, y)] == m.add(f[x], f[y])
                    for x in range(4) for y in range(4))]
    got = additive_maps(m, m)
    assert len(got) == 4
    assert sorted(got) == brute


SLOT_ENTRY_POINTS = {
    "TensorCongruence": lambda ws, j, k: TensorCongruence(
        ws.module("z4_reg"), ws.module("z4_ideal02"), j, k),
    "tensor_positional": lambda ws, j, k: tensor_positional(
        ws.module("z4_reg"), ws.module("z4_ideal02"), j, k),
    "hom_gamma": lambda ws, j, k: hom_gamma(ws.module("z4_reg"), ws.module("z4_reg"), j, k),
    "TensorGroup": lambda ws, j, k: TensorGroup(
        linearize_module(ws.module("z4_reg")), linearize_module(ws.module("z4_ideal02")),
        j, k),
    "bar_complex": lambda ws, j, k: bar_complex(
        ws.semiring("z4_ternary"), ws.module("z4_reg"), j, k, 1),
    "extend_scalars": lambda ws, j, k: extend_scalars(
        ws.morphism("q_z4_f2"), ws.module("z4_reg"), j, k),
    "flatness_probe": lambda ws, j, k: flatness_probe(
        ws.semiring("z4_ternary"), linearize_module(ws.module("z4_reg")), j, k),
    "base_change_check": lambda ws, j, k: base_change_check(
        ws.morphism("q_z4_f2"), ws.module("z4_reg"), ws.module("z4_reg"), 1, j, k),
}


@pytest.mark.parametrize("entry", list(SLOT_ENTRY_POINTS))
@pytest.mark.parametrize("j, k", [(-1, 0), (3, 0), (0, -1), (0, 3)])
def test_slot_pairs_outside_the_arity_are_refused(entry, j, k):
    # Ternary Z/4: the slots are 0..2, and the refusal names them 1-based.
    with pytest.raises(StructuralError, match=rf"^slot pair \({j + 1}, {k + 1}\) "
                                              rf"is outside 1\.\.3$"):
        SLOT_ENTRY_POINTS[entry](bundled_workspace(), j, k)
