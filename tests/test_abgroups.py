from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from ngamma import intlinalg as la
from ngamma.abgroups import (
    AbGroup, GroupMap, HomologyNode, Presentation, SoundnessError, Subgroup,
    Subquotient, direct_sum, is_exact, is_short_exact, isomorphic, kernel,
    kernel_gens, preimage,
)


def test_invariant_factors():
    assert AbGroup((2, 3)).invariant_factors() == (6,)
    assert AbGroup((2, 4, 8, 3, 9, 5)).invariant_factors() == (2, 12, 360)
    assert isomorphic(AbGroup((6,)), AbGroup((2, 3)))
    assert not isomorphic(AbGroup((8,)), AbGroup((2, 4)))
    assert str(AbGroup(())) == "0"
    assert str(AbGroup((2, 4, 3))) == "C2 x C12"


def test_groups_are_finite():
    for orders in ((0,), (2, 0)):
        with pytest.raises(ValueError, match="at least 2"):
            AbGroup(orders)
    # Relations of rank below the generator count would leave a free
    # coordinate: Z^2 / <(1, 2)> is Z and Z^1 / 0 is Z.
    with pytest.raises(SoundnessError, match="rank 1 on 2 generators"):
        Presentation(2, [[1, 2]])
    with pytest.raises(SoundnessError, match="rank 0 on 1 generators"):
        Presentation(1, [])
    assert Presentation(0, []).group == AbGroup(())


def test_presentation_cyclic():
    # Z^2 / <(2,0),(0,3)> = C2 x C3
    p = Presentation(2, [[2, 0], [0, 3]])
    assert p.group.invariant_factors() == (6,)
    assert p.group.order() == 6
    # Projection and lift are mutually inverse on canonical coords.
    for cls in p.group.elements():
        assert p.project(p.lift(cls)) == cls


def test_presentation_with_unit_factor():
    # Z^2 / <(1,2), (0,4)> = C4: the d=1 coordinate must be dropped.
    p = Presentation(2, [[1, 2], [0, 4]])
    assert p.group.orders == (4,)
    assert p.is_zero([1, 2])
    assert not p.is_zero([0, 1])


def test_group_completion_style_presentation():
    # Klein four group presented by its full addition table relations.
    rels = []
    elems = list(product(range(2), repeat=2))
    idx = {e: i for i, e in enumerate(elems)}
    for a in elems:
        for b in elems:
            s = ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
            r = [0] * 4
            r[idx[a]] += 1
            r[idx[b]] += 1
            r[idx[s]] -= 1
            rels.append(r)
    rels.append([1 if e == (0, 0) else 0 for e in elems])
    p = Presentation(4, rels)
    assert p.group.invariant_factors() == (2, 2)


def test_group_map_well_defined():
    c4 = AbGroup((4,))
    c2 = AbGroup((2,))
    GroupMap(c4, c2, [[1]])
    with pytest.raises(SoundnessError):
        GroupMap(c2, c4, [[1]])
    GroupMap(c2, c4, [[2]])


def _scanned_well_defined(gm):
    """The all-cells scan: o*v = 0 modulo od for every source column."""
    return not any((o * v) % od for row, od in zip(gm.mat, gm.dst.orders)
                   for v, o in zip(row, gm.src.orders))


ORDERS = st.lists(st.integers(2, 12), max_size=4)


@st.composite
def _maps(draw):
    src, dst = draw(ORDERS), draw(ORDERS)
    mat = [draw(st.lists(st.integers(-30, 30), min_size=len(src), max_size=len(src)))
           for _ in dst]
    return GroupMap(AbGroup(tuple(src)), AbGroup(tuple(dst)), mat, check=False)


@settings(max_examples=400, deadline=None)
@given(_maps())
@example(GroupMap(AbGroup((12, 24, 6)), AbGroup((3, 2)), [[1, 1, 1], [1, 1, 1]], check=False))
@example(GroupMap(AbGroup((2, 4)), AbGroup((4, 2)), [[2, 1], [1, 1]], check=False))
@example(GroupMap(AbGroup((4, 2)), AbGroup((2, 8)), [[1, 1], [0, 0]], check=False))
@example(GroupMap(AbGroup((5,)), AbGroup((10, 5)), [[3], [4]], check=False))
def test_well_defined_matches_the_all_cells_scan(gm):
    assert gm.well_defined() == _scanned_well_defined(gm)


def test_kernel_image_quotient():
    c4 = AbGroup((4,))
    f = GroupMap(c4, c4, [[2]])
    k = kernel(f)
    assert k.group.invariant_factors() == (2,)
    assert k.contains([2])
    assert not k.contains([1])
    # im f = {0, 2} = ker f.
    assert is_exact(f, f)


def test_homology_node_textbook():
    # 0 -> C8 --2--> C8 -> 0 at the right node: ker(0)/im(2) = C2.
    c8 = AbGroup((8,))
    zero_out = GroupMap(c8, AbGroup(()), [])
    times2 = GroupMap(c8, c8, [[2]])
    node = HomologyNode(c8, zero_out, times2)
    assert node.group.invariant_factors() == (2,)
    cls = node.classify([1])
    assert cls != node.group.zero()
    assert node.classify([2]) == node.group.zero()
    rep = node.representative(cls)
    assert node.classify(rep) == cls


def test_homology_node_classify_errors():
    # At C4^2 with out = projection to the first coordinate, only (0, y) are
    # cycles; a vector of the wrong length is reported as such.
    c4, c4sq = AbGroup((4,)), AbGroup((4, 4))
    node = HomologyNode(c4sq, GroupMap(c4sq, c4, [[1, 0]]),
                        GroupMap.zero(AbGroup(()), c4sq))
    assert node.group.orders == (4,)
    assert node.representative(node.classify([0, 3])) == (0, 3)
    with pytest.raises(ValueError, match="not a cycle"):
        node.classify([1, 0])
    with pytest.raises(ValueError, match="3 entries, expected 2"):
        node.classify([0, 1, 0])


def test_homology_node_classify_on_zero_numerator():
    # Over C4 with the identity going out, the only cycle is 0.
    c4 = AbGroup((4,))
    node = HomologyNode(c4, GroupMap.identity(c4), GroupMap.zero(c4, c4))
    assert node.group.invariant_factors() == ()
    assert node.classify([0]) == node.group.zero()
    with pytest.raises(ValueError, match="not a cycle"):
        node.classify([1])


def test_homology_node_zero_differentials():
    c2 = AbGroup((2,))
    node = HomologyNode(c2, GroupMap.zero(c2, c2), GroupMap.zero(c2, c2))
    assert node.group.invariant_factors() == (2,)


def test_homology_rejects_nonsquare_zero():
    c8 = AbGroup((8,))
    two = GroupMap(c8, c8, [[2]])
    with pytest.raises(SoundnessError):
        HomologyNode(c8, two, two)  # 2*2 = 4 != 0 mod 8


def test_direct_sum():
    g, incs, prjs = direct_sum([AbGroup((2,)), AbGroup((3,)), AbGroup(())])
    assert g.orders == (2, 3)
    assert incs[0]([1]) == (1, 0)
    assert prjs[1]([1, 2]) == (2,)


C2, C3, C4, C6, C8 = (AbGroup((o,)) for o in (2, 3, 4, 6, 8))


def test_kernel_is_the_subgroup_of_kernel_gens():
    f = GroupMap(AbGroup((8, 4)), C2, [[1, 1]])
    gens = kernel_gens(f)
    assert all(f.dst.is_zero(f(g)) for g in gens)
    assert is_exact(kernel(f).inclusion, f)
    assert is_exact(Subgroup(f.src, gens).inclusion, f)
    assert is_exact(Subgroup(f.src, [[2, 0], [1, 1], [0, 2]]).inclusion, f)
    assert not is_exact(Subgroup(f.src, [[2, 0], [0, 2]]).inclusion, f)
    assert kernel_gens(GroupMap.zero(C4, AbGroup(()))) == [[1]]


def test_preimage():
    cases = [
        (GroupMap(C8, C4, [[2]]), [(0,), (2,)], [(1,), (3,)]),         # not onto
        (GroupMap(C6, AbGroup((2, 3)), [[1], [1]]), [(1, 2), (0, 1)], []),  # iso
        (GroupMap(AbGroup((8, 8)), C8, [[2, 4]]), [(6,), (-2,)], [(3,)]),  # not injective
        (GroupMap(AbGroup((8, 4)), C4, [[2, 2]]), [(2,)], [(1,)]),      # neither
        (GroupMap(C2, C4, [[2]]), [(0,), (2,)], [(1,)]),                # injective, not onto
    ]
    for f, hit, miss in cases:
        for t in hit:
            x = preimage(f, t)
            assert x is not None and f(x) == f.dst.reduce(t)
        for t in miss:
            assert preimage(f, t) is None
    assert preimage(GroupMap.zero(C4, AbGroup(())), ()) == (0,)


def test_is_short_exact():
    split = AbGroup((2, 3))
    assert is_short_exact(GroupMap(C4, C8, [[2]]), GroupMap(C8, C2, [[1]]))
    assert is_short_exact(GroupMap(C2, C4, [[2]]), GroupMap(C4, C2, [[1]]))
    assert is_short_exact(GroupMap(C2, split, [[1], [0]]), GroupMap(split, C3, [[0, 1]]))
    assert is_short_exact(GroupMap.zero(AbGroup(()), C4), GroupMap.identity(C4))
    # f not injective; g not surjective; exactness fails in the middle.
    assert not is_short_exact(GroupMap(C4, C4, [[2]]), GroupMap(C4, C2, [[1]]))
    assert not is_short_exact(GroupMap(C4, C8, [[2]]), GroupMap(C8, C4, [[2]]))
    assert not is_short_exact(GroupMap(C2, C8, [[4]]), GroupMap(C8, C2, [[1]]))


def _image(f):
    """The subgroup generated by f's columns."""
    return Subgroup(f.dst, [[f.mat[i][j] for i in range(f.dst.dim)]
                            for j in range(f.src.dim)])


def _same_subgroup(a, b):
    """Subgroup equality as two inclusions, each generator a member."""
    if a.ambient.orders != b.ambient.orders:
        raise ValueError(f"subgroups of different ambients {a.ambient.orders} "
                         f"and {b.ambient.orders}")
    return all(b.contains(v) for v in a.gens) and all(a.contains(v) for v in b.gens)


def _five_subgroup_short_exact(f, g):
    """ker f = 0, im g = C and ker g = im f, each through a built Subgroup."""
    return (kernel(f).group.is_trivial()
            and _same_subgroup(_image(g), Subgroup(g.dst, la.identity(g.dst.dim)))
            and _same_subgroup(kernel(g), _image(f)))


def _element_order(g, v):
    """Order of v in g."""
    return lcm(*(o // gcd(x, o) for x, o in zip(v, g.orders)))


SMALL_ORDERS = st.lists(st.sampled_from([2, 3, 4, 6, 8, 12]), max_size=3)


@st.composite
def _composable(draw):
    """(f, g) with A -f-> B -g-> C: g at random; f from (Z/e)^k onto the k
    generators of ker g, e the exponent of B, the inclusion of ker g, or with
    each column a combination of those generators or a random vector, scaled
    so that f is well defined."""
    b, c = AbGroup(tuple(draw(SMALL_ORDERS))), AbGroup(tuple(draw(SMALL_ORDERS)))
    entries = st.integers(-6, 6)
    g = GroupMap(b, c, [[draw(entries) * (od // gcd(o, od)) for o in b.orders]
                        for od in c.orders])
    gens = kernel_gens(g)
    mode = draw(st.sampled_from(["kernel", "inclusion", "combination", "random"]))
    if mode == "kernel":
        return GroupMap(AbGroup((lcm(*b.orders),) * len(gens)), b,
                        [[v[i] for v in gens] for i in range(b.dim)]), g
    if mode == "inclusion":
        return kernel(g).inclusion, g
    a = AbGroup(tuple(draw(SMALL_ORDERS)))
    cols = []
    for o in a.orders:
        if mode == "combination":
            coeffs = [draw(entries) for _ in gens]
            col = [sum(c * v[i] for c, v in zip(coeffs, gens)) for i in range(b.dim)]
        else:
            col = [draw(entries) for _ in range(b.dim)]
        step = _element_order(b, col)
        cols.append([step // gcd(o, step) * x for x in col])
    return GroupMap(a, b, [[col[i] for col in cols] for i in range(b.dim)]), g


@settings(max_examples=300, deadline=None)
@given(_composable())
@example((GroupMap(C4, C8, [[2]]), GroupMap(C8, C2, [[1]])))
@example((GroupMap(C2, C4, [[2]]), GroupMap(C4, C2, [[1]])))
@example((GroupMap(C4, C4, [[2]]), GroupMap(C4, C2, [[1]])))
@example((GroupMap(C4, C8, [[2]]), GroupMap(C8, C4, [[2]])))
def test_exactness_matches_the_subgroup_comparisons(pair):
    f, g = pair
    assert is_exact(f, g) == _same_subgroup(_image(f), kernel(g))
    assert is_short_exact(f, g) == _five_subgroup_short_exact(f, g)


def test_is_exact_refuses_maps_that_do_not_compose():
    with pytest.raises(ValueError, match="cannot compose"):
        is_exact(GroupMap.identity(C2), GroupMap.identity(C4))
    with pytest.raises(ValueError, match="cannot compose"):
        is_exact(GroupMap.identity(C2), GroupMap.zero(AbGroup((2, 2)), C2))


def test_subquotient_numerator_basis_and_membership():
    # The numerator <(2, 0), (0, 3), (2, 3)> of C12^2, C6 x C4, with no
    # denominator.
    c12sq = AbGroup((12, 12))
    sq = Subquotient(c12sq, [[2, 0], [0, 3], [2, 3]], [])
    assert sq.group.invariant_factors() == (2, 12)
    for v in ([2, 0], [0, 3], [4, 3], [-2, 6]):
        assert sq.representative(sq.classify(v)) == c12sq.reduce(v)
    with pytest.raises(ValueError, match="not in the numerator"):
        sq.classify([1, 0])
    empty = Subquotient(AbGroup((2, 2, 2)), [], [])
    assert empty.group.orders == () and empty.classify([0, 0, 0]) == ()
    with pytest.raises(ValueError, match="not in the numerator"):
        empty.classify([1, 0, 0])


def test_subquotient_factors_its_numerator_once(count_calls):
    # One factorization of the numerator and one of the relations.
    counts = count_calls(la, "smith_normal_form")
    Subquotient(AbGroup((8, 4)), [[2, 0], [0, 1], [2, 3]], [[4, 2]])
    assert counts["smith_normal_form"] == 2


def test_subquotient_refuses_a_denominator_outside_its_numerator():
    with pytest.raises(SoundnessError, match="page 1: denominator not inside numerator"):
        Subquotient(C8, [[2]], [[3]], what="page 1")
    with pytest.raises(SoundnessError, match="denominator not inside numerator"):
        Subquotient(C4, [[2]], [[1]])


def test_subquotient_induced():
    # (C4 x C6)/<(2,0)> = C2 x C6  ->  C6 by (a, b) -> 3a + b.
    src = Subquotient(AbGroup((4, 6)), [[1, 0], [0, 1]], [[2, 0]])
    dst = Subquotient(C6, [[1]], [])
    gm = GroupMap(src.ambient, dst.ambient, [[3, 1]])
    ind = src.induced(gm, dst)
    assert (ind.src.orders, ind.dst.orders) == (src.group.orders, dst.group.orders)
    for v in product(range(-3, 4), repeat=2):
        assert ind(src.classify(v)) == dst.classify(gm(v))
    # Torsion ambient: {0, 2} in C4 maps to zero in C2, and onto {0, 2} in C4.
    evens = Subquotient(C4, [[2]], [])
    assert evens.induced(GroupMap(C4, C2, [[1]]), Subquotient(C2, [[1]], [])).is_zero()
    onto = evens.induced(GroupMap.identity(C4), evens)
    assert onto.equal(GroupMap.identity(evens.group))
    # A map leaving the target numerator is refused.
    with pytest.raises(ValueError, match="not in the numerator"):
        Subquotient(C4, [[1]], []).induced(GroupMap.identity(C4), evens)
