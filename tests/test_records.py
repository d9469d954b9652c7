"""The contract of the frozen value records.

Each record compares and hashes by its compared fields; members kept
beside them (a ``_memo`` filled on use, a completion's presentation and
lifts, a completed module's completion) take no part.  A record cannot be
assigned to or have a member deleted, and its constructor takes the
parameters pinned here, names, order and defaults.
"""

import inspect
from functools import cache

import pytest

from ngamma.abgroups import AbGroup
from ngamma.completion import Completion, CompletedModule, group_complete, linearize_module
from ngamma.core import (
    AxiomCheck, AxiomReport, FiniteAddMonoid, GammaSemigroup, GammaSemiringMorphism,
    NaryGammaSemiring, identity_morphism, z4_ternary, zmod_semiring,
)
from ngamma.homology import ContractionPolicy, default_policy
from ngamma.ideals import GammaIdeal, SpectrumData, spectrum
from ngamma.modules import (
    BiGammaModule, Conflation, HomModule, ModuleMorphism, TensorModule, hom_gamma,
    ideal_submodule, quotient_module, regular_bimodule, tensor_positional,
)

REQUIRED = inspect.Parameter.empty


def _conflation():
    s = zmod_semiring(4)
    reg, ideal = regular_bimodule(s), GammaIdeal(s, frozenset({0, 2}))
    return Conflation(ModuleMorphism(ideal_submodule(s, ideal), reg, (0, 2)),
                      ModuleMorphism(reg, quotient_module(s, ideal), (0, 1, 0, 1)))


@cache
def _linearized():
    return linearize_module(regular_bimodule(z4_ternary()))


def _completed_module():
    # A group map compares by identity, so each completed module is built
    # from the parts of one linearization.
    lin = _linearized()
    return CompletedModule(lin.semiring, lin.group, lin.ops, lin.completion, name=lin.name)

# Per record: a builder that makes one from freshly built arguments, the
# compared fields, the members that are not compared, and the constructor's
# (parameter, default) list.
RECORDS = {
    FiniteAddMonoid: (lambda: FiniteAddMonoid(3, (0, 1, 2, 1, 2, 0, 2, 0, 1)),
                      ("size", "add_table", "zero"), ("_memo",),
                      [("size", REQUIRED), ("add_table", REQUIRED), ("zero", 0)]),
    GammaSemigroup: (lambda: GammaSemigroup(2, (0, 1, 1, 0), True, 0),
                     ("size", "add_table", "has_zero", "zero"), (),
                     [("size", REQUIRED), ("add_table", REQUIRED), ("has_zero", False),
                      ("zero", None)]),
    NaryGammaSemiring: (z4_ternary, ("n", "T", "gamma", "mu_table", "name"), ("_memo",),
                        [("n", REQUIRED), ("T", REQUIRED), ("gamma", REQUIRED),
                         ("mu_table", REQUIRED), ("name", "")]),
    AxiomCheck: (lambda: AxiomCheck("zero absorption", False, (0, (1, 2))),
                 ("axiom", "ok", "witness"), (),
                 [("axiom", REQUIRED), ("ok", REQUIRED), ("witness", None)]),
    AxiomReport: (lambda: AxiomReport((AxiomCheck("a", True), AxiomCheck("b", False, (1,)))),
                  ("checks",), (), [("checks", REQUIRED)]),
    GammaSemiringMorphism: (lambda: identity_morphism(z4_ternary()),
                            ("source", "target", "map"), (),
                            [("source", REQUIRED), ("target", REQUIRED), ("map", REQUIRED)]),
    BiGammaModule: (lambda: regular_bimodule(z4_ternary()),
                    ("parent", "M", "act_tables", "name"), (),
                    [("parent", REQUIRED), ("M", REQUIRED), ("act_tables", REQUIRED),
                     ("name", "")]),
    ModuleMorphism: (lambda: _conflation().i, ("source", "target", "map"), ("_memo",),
                     [("source", REQUIRED), ("target", REQUIRED), ("map", REQUIRED)]),
    Conflation: (_conflation, ("i", "p"), (), [("i", REQUIRED), ("p", REQUIRED)]),
    HomModule: (lambda: hom_gamma(regular_bimodule(z4_ternary()),
                                  regular_bimodule(z4_ternary())),
                ("module", "maps"), (), [("module", REQUIRED), ("maps", REQUIRED)]),
    TensorModule: (lambda: tensor_positional(regular_bimodule(z4_ternary()),
                                             regular_bimodule(z4_ternary()), 2, 0),
                   ("module", "beta"), (), [("module", REQUIRED), ("beta", REQUIRED)]),
    GammaIdeal: (lambda: GammaIdeal(z4_ternary(), frozenset({0, 2})), ("parent", "members"),
                 (), [("parent", REQUIRED), ("members", REQUIRED)]),
    SpectrumData: (lambda: spectrum(z4_ternary()),
                   ("semiring", "ideals", "primes", "closed_sets"), (),
                   [("semiring", REQUIRED), ("ideals", REQUIRED), ("primes", REQUIRED),
                    ("closed_sets", REQUIRED)]),
    AbGroup: (lambda: AbGroup((2, 4, 6)), ("orders",), (), [("orders", REQUIRED)]),
    ContractionPolicy: (lambda: default_policy(z4_ternary()), ("gammas", "fillers", "label"),
                        (), [("gammas", REQUIRED), ("fillers", REQUIRED), ("label", "")]),
    Completion: (lambda: group_complete(FiniteAddMonoid(3, (0, 1, 2, 1, 2, 0, 2, 0, 1))),
                 ("monoid", "group", "vectors"), ("pres", "lifts"),
                 [("monoid", REQUIRED), ("group", REQUIRED), ("vectors", REQUIRED),
                  ("pres", REQUIRED), ("lifts", REQUIRED)]),
    CompletedModule: (_completed_module,
                      ("semiring", "group", "ops", "name"), ("completion",),
                      [("semiring", REQUIRED), ("group", REQUIRED), ("ops", REQUIRED),
                       ("completion", None), ("name", "")]),
}

CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def _hash(record):
    """The record's hash, or the type of error hashing it raises."""
    try:
        return hash(record)
    except TypeError as e:
        return type(e)


def _twin(record, **change):
    """A record of the same class with the same members but ``change``,
    made without running its constructor."""
    twin = object.__new__(type(record))
    for name, value in {**vars(record), **change}.items():
        object.__setattr__(twin, name, value)
    return twin


@CASES
def test_records_built_apart_from_equal_arguments_are_equal(cls):
    build = RECORDS[cls][0]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert _hash(a) == _hash(b)
    assert repr(a) == repr(b)


@CASES
def test_each_compared_field_counts_and_no_other_member_does(cls):
    build, compared, excluded, _ = RECORDS[cls]
    record = build()
    for name in compared:
        assert record != _twin(record, **{name: object()}), name
    for name in excluded:
        twin = _twin(record, **{name: object()})
        assert twin == record and _hash(twin) == _hash(record), name


@CASES
def test_records_refuse_assignment_and_deletion(cls):
    build, compared, excluded, _ = RECORDS[cls]
    record = build()
    for name in (*compared, *excluded, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == build()


@CASES
def test_record_constructors_keep_their_parameters(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == RECORDS[cls][3]
