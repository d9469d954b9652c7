from itertools import product

import pytest

from ngamma import intlinalg as la
from ngamma.abgroups import (
    AbGroup, GroupMap, HomologyNode, Presentation, SoundnessError, Subgroup,
    direct_sum, image, isomorphic, kernel, quotient,
)


def test_invariant_factors():
    assert AbGroup((2, 3)).invariant_factors() == (6,)
    assert AbGroup((2, 4, 8, 3, 9, 5)).invariant_factors() == (2, 12, 360)
    assert AbGroup((0, 0, 2)).rank == 2
    assert isomorphic(AbGroup((6,)), AbGroup((2, 3)))
    assert not isomorphic(AbGroup((8,)), AbGroup((2, 4)))
    assert str(AbGroup(())) == "0"
    assert str(AbGroup((2, 0))) == "C2 x Z"


def test_presentation_cyclic():
    # Z^2 / <(2,0),(0,3)> = C2 x C3
    p = Presentation(2, [[2, 0], [0, 3]])
    assert p.group.invariant_factors() == (6,)
    assert p.group.order() == 6
    # Projection and lift are mutually inverse on canonical coords.
    for cls in p.group.elements():
        assert p.project(p.lift(cls)) == cls


def test_presentation_with_unit_factor():
    # Z^2 / <(1,2)> = Z: the d=1 coordinate must be dropped.
    p = Presentation(2, [[1, 2]])
    assert p.group.orders == (0,)
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


def test_kernel_image_quotient():
    c4 = AbGroup((4,))
    f = GroupMap(c4, c4, [[2]])
    k = kernel(f)
    assert k.group.invariant_factors() == (2,)
    assert k.contains([2])
    assert not k.contains([1])
    im = image(f)
    assert im.group.invariant_factors() == (2,)
    q, proj, _ = quotient(c4, [[2]])
    assert q.invariant_factors() == (2,)
    assert proj([1]) != q.zero()
    assert proj([2]) == q.zero()


def test_homology_node_textbook():
    # 0 -> Z --2--> Z -> 0 at the right node: ker(0)/im(2) = C2.
    z = AbGroup((0,))
    zero_out = GroupMap(z, AbGroup(()), [])
    times2 = GroupMap(z, z, [[2]])
    node = HomologyNode(z, zero_out, times2)
    assert node.group.invariant_factors() == (2,)
    cls = node.classify([1])
    assert cls != node.group.zero()
    assert node.classify([2]) == node.group.zero()
    rep = node.representative(cls)
    assert node.classify(rep) == cls


def test_homology_node_classify_errors():
    # At Z^2 with out = projection to the first coordinate, only (0, y) are
    # cycles; a vector of the wrong length is reported as such.
    z, z2 = AbGroup((0,)), AbGroup((0, 0))
    node = HomologyNode(z2, GroupMap(z2, z, [[1, 0]]), GroupMap.zero(AbGroup(()), z2))
    assert node.classify([0, 3]) == (3,)
    with pytest.raises(ValueError, match="not a cycle"):
        node.classify([1, 0])
    with pytest.raises(ValueError, match="3 entries, expected 2"):
        node.classify([0, 1, 0])


def test_homology_node_classify_on_zero_numerator():
    # Over Z with the identity going out, the only cycle is 0.
    z = AbGroup((0,))
    node = HomologyNode(z, GroupMap(z, z, [[1]]), GroupMap.zero(z, z))
    assert node.group.invariant_factors() == ()
    assert node.classify([0]) == node.group.zero()
    with pytest.raises(ValueError, match="not a cycle"):
        node.classify([1])


def test_homology_node_zero_differentials():
    c2 = AbGroup((2,))
    node = HomologyNode(c2, GroupMap.zero(c2, c2), GroupMap.zero(c2, c2))
    assert node.group.invariant_factors() == (2,)


def test_homology_rejects_nonsquare_zero():
    z = AbGroup((0,))
    two = GroupMap(z, z, [[2]])
    with pytest.raises(SoundnessError):
        HomologyNode(z, two, two)  # 2*2 != 0 over Z


def test_direct_sum():
    g, incs, prjs = direct_sum([AbGroup((2,)), AbGroup((3,)), AbGroup(())])
    assert g.orders == (2, 3)
    assert incs[0]([1]) == (1, 0)
    assert prjs[1]([1, 2]) == (2,)


def test_subgroup_same_as():
    c8 = AbGroup((8,))
    a = Subgroup(c8, [[2]])
    b = Subgroup(c8, [[6]])
    assert a.same_as(b)
    assert not a.same_as(Subgroup(c8, [[4]]))
