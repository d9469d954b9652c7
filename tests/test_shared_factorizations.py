"""A derived entry point factors each distinct integer system, and builds
each bar tower, once per call.

``intlinalg.shares_factorizations`` opens one memo of Smith normal forms for
the outermost decorated call; nested calls share it and it is dropped when
that call returns or raises.  ``intlinalg._factor`` is the factorization
itself, so counting its calls counts the systems actually factored.
"""

import contextlib
import copy
import io

import pytest
from test_load_once import BUNDLED_COMMANDS

from ngamma import cli, homology, spectral
from ngamma import intlinalg as la
from ngamma.completion import EquivariantHom, TensorGroup
from ngamma.core import (
    GammaSemiringMorphism, SoundnessError, f2_semiring, f2_ternary, make_matrix_family,
    z4_ternary,
)
from ngamma.homology import balance_check, bar_complex, ext_via_bar
from ngamma.modules import regular_bimodule

# Systems factored by one pass over BUNDLED_COMMANDS; 1,214 before the memo,
# 345 before the yoneda and oracle handlers each ran in one scope, 276 before
# each tower was checked exact below its cut (``homology.Resolution``), 298
# before a map's kernel, preimages and exactness read one solver form.
FACTORED_PER_ROUND = 266


def _run(command: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["--format", "structured"] + command.split())


def _fields(sf) -> tuple:
    return tuple(getattr(sf, name) for name in la.SmithForm.__slots__)


def _recording(monkeypatch):
    """Patch ``_factor`` to record (copied input, returned form) per call;
    returns the record and the unpatched ``_factor``."""
    calls = []
    factor = la._factor

    def recorded(a, nrows, ncols, solve):
        sf = factor(a, nrows, ncols, solve)
        calls.append(((copy.deepcopy(a), nrows, ncols, solve), sf))
        return sf

    monkeypatch.setattr(la, "_factor", recorded)
    return calls, factor


def test_nothing_survives_an_entry_point_call(count_calls):
    s = z4_ternary()
    reg = regular_bimodule(s)
    counts = count_calls(la, "_factor", "smith_normal_form")
    first = balance_check(s, reg, reg, 2)
    once = counts.copy()
    second = balance_check(s, reg, reg, 2)
    assert first.bar_factors == second.bar_factors
    assert counts["_factor"] == 2 * once["_factor"] > 0
    # The memo answered some lookups inside each call.
    assert once["smith_normal_form"] > once["_factor"]
    assert la._memo.get() is None


def test_kunneth_factors_no_system_twice(monkeypatch, count_calls):
    s = f2_ternary()
    reg = regular_bimodule(s)
    nested = count_calls(spectral, "ext_via_bar", "bar_complex", "tor_via_bar")
    calls, _ = _recording(monkeypatch)
    spectral.kunneth_check(s, reg, reg, reg, depth=2)
    keys = [(nrows, ncols, solve, tuple(map(tuple, a)))
            for (a, nrows, ncols, solve), _ in calls]
    assert nested == {"ext_via_bar": 1, "bar_complex": 1, "tor_via_bar": 3}
    assert len(keys) == len(set(keys)) > 0


@pytest.fixture
def towers(monkeypatch):
    """Every tower built meanwhile, bar or cofree."""
    built = []
    resolution = homology.Resolution

    def recording(*args):
        built.append(resolution(*args))
        return built[-1]
    monkeypatch.setattr(homology, "Resolution", recording)
    return built


def test_one_base_change_builds_one_tower_over_the_target(towers):
    z4, f2 = z4_ternary(), f2_ternary()
    reg = regular_bimodule(z4)
    spectral.base_change_check(GammaSemiringMorphism(z4, f2, (0, 1, 0, 1)), reg, reg, 1)
    assert [tower.semiring for tower in towers].count(f2) == 1


def test_kunneth_builds_one_bar_tower_for_equal_factors(towers):
    s = f2_ternary()
    reg = regular_bimodule(s)
    spectral.kunneth_check(s, reg, reg, reg, depth=2)
    # The others resolve the Ext modules of the direct grid.
    assert [tower.terms[0].name for tower in towers].count(reg.name) == 1


def test_bar_towers_are_shared_only_inside_a_call():
    s = f2_ternary()
    reg = regular_bimodule(s)
    assert bar_complex(s, reg, depth=2) is not bar_complex(s, reg, depth=2)
    first, again, deeper = la.shares_factorizations(
        lambda: [bar_complex(s, reg, depth=d) for d in (2, 2, 3)])()
    assert first is again and deeper is not first


def test_shared_results_equal_fresh_factorizations(monkeypatch):
    # Every form handed out inside a call, read again once the call has
    # returned, still equals a fresh factorization of its input: no caller
    # mutated what the memo shares.
    calls, factor = _recording(monkeypatch)
    for command in BUNDLED_COMMANDS:
        del calls[:]
        assert _run(command) == 0, command
        assert la._memo.get() is None
        for args, sf in calls:
            assert _fields(sf) == _fields(factor(*args)), command


def _mats(ops):
    return [[op.mat for op in slot] for slot in ops]


def test_shared_groups_equal_fresh_builds(monkeypatch):
    # Every tensor group and Hom group a call's scope shares, read again
    # once the call has returned, still equals one built afresh outside a
    # call: its presentation and residual operators, or its base and
    # kernel.  No caller mutated what the scope shares.
    tensors, homs, handed = [], [], []
    present, solve = TensorGroup._present, EquivariantHom._solve
    as_module = TensorGroup.as_module
    monkeypatch.setattr(TensorGroup, "_present",
                        lambda tg, j, k: tensors.append((tg, j, k)) or present(tg, j, k))
    monkeypatch.setattr(EquivariantHom, "_solve", lambda h: homs.append(h) or solve(h))
    monkeypatch.setattr(TensorGroup, "as_module",
                        lambda tg: handed.append((tg.pres, as_module(tg))) or handed[-1][1])
    checked = [0, 0]
    for command in BUNDLED_COMMANDS:
        del tensors[:], homs[:], handed[:]
        assert _run(command) == 0, command
        checked[0] += len(tensors)
        checked[1] += len(homs)
        assert la._memo.get() is None
        # The fresh builds below are recorded too; they are not read.
        for tg, j, k in tensors[:]:
            fresh = TensorGroup(tg.x, tg.y, j, k)
            assert (tg.pres.relations, tg.pres.proj_matrix(),
                    tg.pres.lift_matrix()) == (fresh.pres.relations,
                                               fresh.pres.proj_matrix(),
                                               fresh.pres.lift_matrix()), command
            shared = [module for pres, module in handed if pres is tg.pres]
            if shared:
                ops = _mats(fresh.as_module().ops)
                assert all(_mats(module.ops) == ops for module in shared), command
        for h in homs[:]:
            fresh = EquivariantHom(h.x, h.y)
            assert h.base.coords == fresh.base.coords, command
            assert (h._kernel.gens, h._kernel.inclusion.mat, h._kernel.pres.proj_matrix(),
                    h._kernel.pres.lift_matrix()) == \
                (fresh._kernel.gens, fresh._kernel.inclusion.mat,
                 fresh._kernel.pres.proj_matrix(), fresh._kernel.pres.lift_matrix()), command
    assert checked[0] > 0 and checked[1] > 0


def test_factorizations_per_bundled_round(count_calls):
    counts = count_calls(la, "_factor")
    for command in BUNDLED_COMMANDS:
        assert _run(command) == 0, command
    assert counts["_factor"] <= FACTORED_PER_ROUND


def test_no_scope_is_left_open_after_a_refusal(count_calls):
    s = make_matrix_family(f2_semiring(), 2, 2)
    reg = regular_bimodule(s)
    counts = count_calls(la, "_factor")
    with pytest.raises(SoundnessError):
        ext_via_bar(s, reg, reg)
    assert counts["_factor"] > 0
    assert la._memo.get() is None
    # Outside every entry point each call factors afresh.
    assert la.smith_normal_form([[2]], 1, 1) is not la.smith_normal_form([[2]], 1, 1)
