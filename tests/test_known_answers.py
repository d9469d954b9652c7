"""Known answers of the derived layer, pinned as a ledger.

``ext_via_bar(s, reg, reg, depth=4)`` is the bimodule Ext of the regular
module, so for a binary unital carrier A it is the Hochschild cohomology
HH^n(A) (Loday, *Cyclic Homology*, §1.1; Happel 1989 for the path algebra
T2).  Each entry lists the literature's invariant factors in degrees 0..4;
the ternary lift xyz of a commutative base is held to its base's values.
Where the engine is wrong today the entry is a strict xfail that names the
ROADMAP item to fix it; the fix turns it into a pass and drops the marker.

Tor of the regular module against itself is left out: ``tor_via_bar``
reads a positional tensor balanced at one slot pair, so its Tor_0 is A,
not HH_0, until the enveloping ring is defined (ROADMAP item 12).
"""

import pytest

from ngamma.bundled import bundled_workspace
from ngamma.core import (
    BinarySemiring, SoundnessError, StructuralError, binary_specialization, boolean_semiring,
    f2_semiring, make_matrix_family, ternary_from_semiring, truncated_polynomial,
    upper_triangular, zmod_semiring,
)
from ngamma.homology import ext_via_bar, tor_via_bar
from ngamma.modules import regular_bimodule

DEPTH = 4

FORCED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "each balanced bar term is M when the carrier has a neutral element, so Ext "
    "above degree 0 vanishes (ROADMAP item 2)"))
UNDESCENDED = pytest.mark.xfail(strict=True, raises=SoundnessError, reason=(
    "bar differential d_1 does not descend on a non-commutative carrier "
    "(ROADMAP items 2 and 18)"))
NOT_PROJECTIVE = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Z/2 is not projective over Z/4, so no bar resolves it (ROADMAP items 2 and 5)"))


def _degrees(first, above):
    return [first] + [above] * DEPTH


# name -> (BinarySemiring builder, HH^0..HH^4, marks)
COMMUTATIVE = {
    "f2": (f2_semiring, _degrees((2,), ()), ()),
    "z4": (lambda: zmod_semiring(4), _degrees((4,), ()), ()),
    "f2[e]": (lambda: truncated_polynomial(2, 2), _degrees((2, 2), (2, 2)), FORCED),
    "f3[e]": (lambda: truncated_polynomial(3, 2), _degrees((3, 3), (3,)), FORCED),
    "f2[x]/x^3": (lambda: truncated_polynomial(2, 3), _degrees((2, 2, 2), (2, 2)), FORCED),
}
CASES = [pytest.param(lambda build=build, lift=lift: lift(build()), want,
                      id=f"{arity} {name}", marks=marks)
         for name, (build, want, marks) in COMMUTATIVE.items()
         for arity, lift in (("binary", binary_specialization),
                             ("ternary", ternary_from_semiring))]
CASES += [
    pytest.param(lambda: binary_specialization(upper_triangular(f2_semiring(), 2)),
                 _degrees((2,), ()), id="binary t2(f2)", marks=UNDESCENDED),
    pytest.param(lambda: make_matrix_family(f2_semiring(), 2, 2),
                 _degrees((2,), ()), id="binary m2(f2)", marks=UNDESCENDED),
]


@pytest.mark.parametrize("build, want", CASES)
def test_hochschild_cohomology_of_the_regular_module(build, want):
    s = build()
    reg = regular_bimodule(s)
    assert ext_via_bar(s, reg, reg, depth=DEPTH).factors() == want


@pytest.mark.parametrize("derived", [ext_via_bar, tor_via_bar], ids=["ext", "tor"])
@NOT_PROJECTIVE
def test_z4_mod2_over_ternary_z4_is_z2_in_every_degree(derived):
    m = bundled_workspace().module("z4_mod2")
    assert derived(m.parent, m, m, depth=DEPTH).factors() == _degrees((2,), (2,))


def test_ledger_builders_are_semirings_and_refuse_bad_parameters():
    for p, k in ((2, 1), (2, 2), (3, 2), (2, 3), (5, 2)):
        s = truncated_polynomial(p, k)
        assert (s.size, s.validate()) == (p ** k, []), (p, k)
    x = 2  # the element x of F_2[x]/(x^3): x * x = x^2, x * x^2 = 0
    s = truncated_polynomial(2, 3)
    assert (s.mul(x, x), s.mul(x, s.mul(x, x))) == (4, 0)
    for base, m in ((f2_semiring(), 1), (f2_semiring(), 2), (boolean_semiring(), 2)):
        s = upper_triangular(base, m)
        assert (s.size, s.validate()) == (base.size ** (m * (m + 1) // 2), []), (base.name, m)
    # T2(F2) on bits (a, b, c) = [[a, b], [0, c]]: e11 * e12 = e12, e12 * e11 = 0.
    t2 = upper_triangular(f2_semiring(), 2)
    assert (t2.mul(0b100, 0b010), t2.mul(0b010, 0b100), t2.one) == (0b010, 0, 0b101)
    for bad in ((1, 2), (4, 2), (9, 1), (2, 0)):
        with pytest.raises(StructuralError):
            truncated_polynomial(*bad)
    with pytest.raises(StructuralError):
        upper_triangular(f2_semiring(), 0)
    with pytest.raises(StructuralError):
        upper_triangular(BinarySemiring(2, (0, 1, 1, 0), (0, 1, 1, 1)), 2)
