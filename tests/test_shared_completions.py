"""Each derived call completes each monoid it touches once, and no more.

The counts come from wrapping ``completion.group_complete``.  Every derived
entry point linearizes its modules through ``completion.linearize_module``,
which keeps each monoid's completion and each module's linearization in the
call's scope (``intlinalg.shares_factorizations``).  Before the modules of
a call were linearized together the counts were 3 for ext/tor/yoneda over
the regular Z/4, 7 and 8 for the two long exact sequences, 10 for kunneth,
12 for balance and 16 for basechange; before the scope held them, 8 for
balance (two per cofree stage) and 3 for basechange.  The conflation's
three modules use two monoids, kunneth's four modules one, and balance's
cofree tower adds one, the one-element monoid of its later stages.

Towers are counted the same way, by wrapping ``Resolution.__init__``, and
tensor and Hom groups by wrapping their builders, ``TensorGroup._present``
(the presentation) and ``completion.kernel`` (the Hom kernel).  Inside a
call every operator family handed out is the first one equal to it by
value, so the tensor groups and Hom groups of one pair of families share
one build: before, Ext over the regular ternary Z/12 at depth 2 presented 5
tensor groups and solved 4 Hom kernels, and Tor over the regular ternary
Z/16 at depth 3 presented 12 tensor groups.
"""

import contextlib
import io

import pytest

from ngamma import cli, completion, homology
from ngamma import intlinalg as la
from ngamma.bundled import bundled_workspace
from ngamma.completion import EquivariantHom, TensorGroup
from ngamma.core import f2_ternary, ternary_from_semiring, z4_ternary, zmod_semiring
from ngamma.homology import ext_via_bar, tor_via_bar
from ngamma.modules import regular_bimodule
from ngamma.spectral import kunneth_check


@pytest.fixture
def completions(count_calls):
    return count_calls(completion, "group_complete")


def _run(command: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--format", "structured"] + command.split()) == 0


@pytest.mark.parametrize("command, most", [
    ("ext z4_ternary z4_reg z4_reg --depth 2 --emit-matrices", 1),
    ("tor z4_ternary z4_reg z4_reg --depth 2", 1),
    ("yoneda f2_ternary f2_reg --depth 2", 1),
    ("tor z4_ternary z4_reg z4_ideal02 --depth 2", 2),
    ("les c_ideal z4_reg --side hom --depth 2", 2),
    ("les c_ideal z4_reg --side tor --depth 2", 2),
    ("kunneth f2_ternary f2_reg f2_reg f2_reg --depth 2 --emit-pages", 1),
    ("balance z4_ternary z4_reg z4_reg --depth 2", 2),
    ("basechange q_z4_f2 z4_reg z4_reg", 2),
])
def test_bundled_commands_complete_each_monoid_once(completions, command, most):
    _run(command)
    assert 0 < completions["group_complete"] <= most


def test_no_completion_outlives_a_call(completions):
    # Two calls on the same objects do the same work: nothing is kept on the
    # semiring, its monoid or the module between them.
    s = z4_ternary()
    reg = regular_bimodule(s)
    counts = []
    for _ in range(2):
        before = completions["group_complete"]
        tor_via_bar(s, reg, reg, 2, 0, 1)
        counts.append(completions["group_complete"] - before)
    assert counts == [1, 1]


def test_one_scope_linearizes_a_module_once_under_each_name(completions):
    # The bundled z4_reg and a freshly built regular module are one module
    # up to name: inside one scope the second is the first's linearization
    # under its own name, and the next call starts from an empty scope.
    ws = bundled_workspace()
    s = ws.semiring("z4_ternary")
    named, built = ws.module("z4_reg"), regular_bimodule(s)

    @la.shares_factorizations
    def both():
        return completion.linearize_module(named), completion.linearize_module(built)

    for _ in range(2):
        before = completions["group_complete"]
        a, b = both()
        assert a.ops is b.ops and a.completion is b.completion
        assert (a.name, b.name) == ("z4_reg", "z4_ternary.regular")
        assert completions["group_complete"] - before == 1
        assert la._memo.get() is None
    # Outside a scope nothing is shared.
    assert completion.linearize_module(named).ops is not \
        completion.linearize_module(named).ops


@pytest.fixture
def bar_builds(count_calls):
    return count_calls(homology.Resolution, "__init__")


@pytest.mark.parametrize("command, towers", [
    # Tor tensors n's tower against the conflation; the conflation's own
    # towers and the maps between them serve only the Hom side.
    ("les c_ideal z4_reg --side tor --depth 2", 1),
    ("les c_ideal z4_reg --side hom --depth 2", 3),
    # One tower over the source, one over the target for both its Ext and
    # Tor, and one over the source for the restricted extensions' Tor.
    ("basechange q_z4_f2 z4_reg z4_reg", 3),
])
def test_bundled_commands_build_each_tower_once(bar_builds, command, towers):
    _run(command)
    assert bar_builds["__init__"] == towers


def _regular(modulus):
    s = ternary_from_semiring(zmod_semiring(modulus))
    return s, regular_bimodule(s)


def test_one_call_builds_one_tensor_group_and_one_hom_group_per_value(count_calls):
    presented = count_calls(TensorGroup, "_present")
    solved = count_calls(completion, "kernel")
    s, reg = _regular(12)
    assert ext_via_bar(s, reg, reg, depth=2).factors() == [(12,), (), ()]
    assert (presented["_present"], solved["kernel"]) == (1, 1)
    s, reg = _regular(16)
    assert tor_via_bar(s, reg, reg, depth=3).factors() == [(16,), (), (), ()]
    assert (presented["_present"], solved["kernel"]) == (2, 1)


def test_kunneth_grid_cells_share_one_presentation(monkeypatch):
    # The nine cells tensor two terms of one bar tower, every term the
    # regular F2 with its operators; before, each cell had its own.
    s = f2_ternary()
    reg = regular_bimodule(s)
    built, towers = [], []
    init, resolution = TensorGroup.__init__, homology.Resolution
    monkeypatch.setattr(TensorGroup, "__init__",
                        lambda tg, *args: built.append(tg) or init(tg, *args))
    monkeypatch.setattr(homology, "Resolution",
                        lambda *args: towers.append(resolution(*args)) or towers[-1])
    kunneth_check(s, reg, reg, reg, depth=2)
    terms = next(t.terms for t in towers if t.terms[0].name == reg.name)
    cells = [tg for tg in built if any(tg.x is t for t in terms)
             and any(tg.y is t for t in terms)]
    assert len(cells) == 9
    assert len({id(tg.pres) for tg in cells}) == 1


def test_kunneth_presents_each_tensor_group_value_once(count_calls):
    # The Ext modules whose Tor the check reads are the scope's families of
    # their value too, so Ext^1 and Ext^2, both zero with zero operators,
    # share one tensor group per slot pair; before, the check presented 8.
    presented = count_calls(TensorGroup, "_present")
    s = f2_ternary()
    reg = regular_bimodule(s)
    assert kunneth_check(s, reg, reg, reg, depth=2).consistent
    assert presented["_present"] == 4


def test_each_call_builds_its_own_groups(count_calls):
    presented = count_calls(TensorGroup, "_present")
    solved = count_calls(completion, "kernel")
    s, reg = _regular(12)
    first, second = (ext_via_bar(s, reg, reg, depth=2) for _ in range(2))
    assert (presented["_present"], solved["kernel"]) == (2, 2)
    assert first.resolution.tensors[1].pres is not second.resolution.tensors[1].pres
    assert la._memo.get() is None


def test_nothing_is_shared_outside_a_call(count_calls):
    presented = count_calls(TensorGroup, "_present")
    solved = count_calls(completion, "kernel")
    s, reg = _regular(12)
    lin = completion.linearize_module(reg)
    a, b = TensorGroup(lin, lin, 2, 0), TensorGroup(lin, lin, 2, 0)
    assert presented["_present"] == 2 and a.pres is not b.pres
    h, g = EquivariantHom(lin, lin), EquivariantHom(lin, lin)
    assert solved["kernel"] == 2 and h._kernel is not g._kernel
    # Nor is a module's value: its residual operators are its own.
    assert a.as_module().ops is not lin.ops
