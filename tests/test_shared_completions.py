"""Each derived call completes each monoid it touches once, and no more.

The counts come from wrapping ``completion.group_complete``; before the
derived entry points linearized their modules together they were 3 for
ext/tor/yoneda over the regular Z/4, 7 and 8 for the two long exact
sequences, 10 for kunneth, 12 for balance and 16 for basechange.  The
conflation's three modules use two monoids, kunneth's four modules one, and
balance's cofree tower completes two new monoids per stage after the first.

Bar towers are counted the same way, by wrapping ``BarComplex.__init__``.
"""

import contextlib
import io

import pytest

from ngamma import cli, completion, homology
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
    ("balance z4_ternary z4_reg z4_reg --depth 2", 8),
    ("basechange q_z4_f2 z4_reg z4_reg", 3),
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


@pytest.fixture
def bar_builds(count_calls):
    return count_calls(homology.BarComplex, "__init__")


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
