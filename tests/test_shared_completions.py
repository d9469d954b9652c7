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

Towers are counted the same way, by wrapping ``Resolution.__init__``.
"""

import contextlib
import io

import pytest

from ngamma import cli, completion, homology
from ngamma import intlinalg as la
from ngamma.bundled import bundled_workspace
from ngamma.core import z4_ternary
from ngamma.homology import tor_via_bar
from ngamma.modules import regular_bimodule


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
        assert la.open_memo() is None
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
