"""The engine is arity-generic; the bundled families are all ternary, so
exercise the binary and quaternary paths explicitly."""

import pytest

from ngamma.completion import linearize_module
from ngamma.core import (
    BoundExceeded, GammaSemiringMorphism, RegularityError, SoundnessError, StructuralError,
    boolean_semiring, f2_semiring, identity_morphism,
    make_matrix_family, neutral_words, product, ternary_from_semiring, truncated_nat_semiring,
    validate_semiring, zmod_semiring,
)
from ngamma.homology import (
    balance_check, bar_complex, ext_via_bar, homology, les_check, tor_via_bar,
)
from ngamma.ideals import GammaIdeal, generate_ideal, spectrum
from ngamma.modules import (
    Conflation, ModuleMorphism, hom_gamma, ideal_submodule, quotient_module,
    regular_bimodule, tensor_positional, validate_module,
)
from ngamma.spectral import (
    base_change_check, extend_scalars, flatness_probe, kunneth_check,
)


@pytest.fixture(scope="module")
def f2_binary():
    return f2_semiring()


def test_binary_pipeline(f2_binary):
    s = f2_binary
    assert validate_semiring(s).ok
    assert neutral_words(s) == [(1, (0,))]
    assert [p.sorted_members() for p in spectrum(s).primes] == [[0]]
    reg = regular_bimodule(s)
    assert validate_module(reg).ok
    bar = bar_complex(s, reg, 1, 0, depth=3)
    assert [g.invariant_factors() for g in bar.chain.groups] == [(2,)] * 4
    assert bar.diffs[1].mat == [[0]] and bar.diffs[2].mat == [[1]]
    assert homology(bar.chain)[0].invariant_factors() == (2,)
    assert ext_via_bar(s, reg, reg, 1, 0, 2).factors() == [(2,), (), ()]
    assert balance_check(s, reg, reg, 2, 1, 0).balanced


def test_binary_z4_pipeline():
    s = zmod_semiring(4)
    reg = regular_bimodule(s)
    assert ext_via_bar(s, reg, reg, 1, 0, 2).factors() == [(4,), (), ()]
    assert balance_check(s, reg, reg, 2, 1, 0).balanced


def test_binary_slot_defaults_are_the_last_slot_against_the_first():
    # Every derived entry point defaults to slots (n - 1, 0), as the CLI
    # does; a fixed j = 2 would be out of range on a binary family.
    s = zmod_semiring(4)
    f2 = f2_semiring()
    reg = regular_bimodule(s)
    ideal = GammaIdeal(s, frozenset({0, 2}))
    conf = Conflation(ModuleMorphism(ideal_submodule(s, ideal), reg, (0, 2)),
                      ModuleMorphism(reg, quotient_module(s, ideal), (0, 1, 0, 1)))
    q = GammaSemiringMorphism(s, f2, (0, 1, 0, 1))
    calls = {
        "bar_complex": lambda *sl: [g.invariant_factors() for g in
                                    bar_complex(s, reg, *sl, depth=2).chain.groups],
        "ext_via_bar": lambda *sl: ext_via_bar(s, reg, reg, *sl).factors(),
        "tor_via_bar": lambda *sl: tor_via_bar(s, reg, reg, *sl).factors(),
        "balance_check": lambda *sl: balance_check(s, reg, reg, 2, *sl),
        "les_check hom": lambda *sl: les_check(conf, reg, 1, "hom", *sl),
        "les_check tor": lambda *sl: les_check(conf, reg, 1, "tor", *sl),
        "ext_via_bar nodes": lambda *sl: [nd.group.invariant_factors()
                                          for nd in ext_via_bar(s, reg, reg, *sl, depth=1).nodes],
        "kunneth_check": lambda *sl: kunneth_check(s, reg, reg, reg, 1, *sl),
        "extend_scalars": lambda *sl: extend_scalars(q, reg, *sl).module,
        "flatness_probe": lambda *sl: flatness_probe(s, linearize_module(reg), *sl),
        "base_change_check": lambda *sl: base_change_check(q, reg, reg, 1, *sl),
        "identity base change": lambda *sl: base_change_check(
            identity_morphism(f2), regular_bimodule(f2), regular_bimodule(f2), 1, *sl),
    }
    for name, call in calls.items():
        assert call() == call(1, 0), name


def test_quaternary_pipeline():
    s = make_matrix_family(f2_semiring(), 1, 4)
    assert validate_semiring(s).ok
    assert neutral_words(s) == [(1, (0, 0, 0))]
    assert [p.sorted_members() for p in spectrum(s).primes] == [[0]]
    reg = regular_bimodule(s)
    assert validate_module(reg).ok
    bar = bar_complex(s, reg, 3, 0, depth=3)
    assert [g.invariant_factors() for g in bar.chain.groups] == [(2,)] * 4
    assert ext_via_bar(s, reg, reg, 3, 0, 2).factors() == [(2,), (), ()]
    assert balance_check(s, reg, reg, 2, 3, 0).balanced
    assert hom_gamma(reg, reg, 3, 0).module.M.size == 2
    assert tensor_positional(reg, reg, 3, 0).module.M.size == 2


def _outcome(call):
    """A call's answer, or the type of its refusal."""
    try:
        return call()
    except (BoundExceeded, RegularityError, SoundnessError, StructuralError) as e:
        return type(e).__name__


@pytest.mark.parametrize("base, by_two", [
    (f2_semiring(), False), (boolean_semiring(), False), (zmod_semiring(4), True),
    (zmod_semiring(6), True), (zmod_semiring(8), True), (truncated_nat_semiring(2), False),
], ids=["F2", "Boolean", "Z4", "Z6", "Z8", "N_cap2"])
def test_binary_and_ternary_specializations_agree(base, by_two):
    # ROADMAP item 14's specialization identity: with the neutral filler, a
    # semiring read as a binary and as a ternary family gives the same Ext
    # and Tor at depth 2 on the regular module, and over Z/m the same groups
    # and balance verdict on the quotient by the ideal generated by 2.
    def derived(s):
        mods = [regular_bimodule(s)]
        if by_two:
            mods.append(quotient_module(s, generate_ideal(s, [2])))
        out = [_outcome(lambda: fn(s, m, m, depth=2).factors())
               for m in mods for fn in (ext_via_bar, tor_via_bar)]
        return out + [_outcome(lambda: balance_check(s, m, m, 2).balanced) for m in mods[1:]]

    assert derived(base) == derived(ternary_from_semiring(base))


@pytest.mark.parametrize("lift", [lambda s: s, ternary_from_semiring], ids=["binary", "ternary"])
def test_z2_times_z3_is_z6(lift):
    # Item 14 on a product: Z/2 x Z/3 and Z/6 are isomorphic, so their
    # regular modules give the same Ext and Tor at depth 2.
    def derived(s):
        reg = regular_bimodule(s)
        return [fn(s, reg, reg, depth=2).factors() for fn in (ext_via_bar, tor_via_bar)]

    assert derived(product(lift(zmod_semiring(2)), lift(zmod_semiring(3)))) == \
        derived(lift(zmod_semiring(6))) == [[(6,), (), ()]] * 2
