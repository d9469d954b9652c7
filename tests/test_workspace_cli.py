import importlib.util
import json
from itertools import combinations
from pathlib import Path

import pytest

from ngamma import cli
from ngamma.bundled import bundled_document, bundled_path, bundled_workspace
from ngamma.cli import build_parser, command_in, main
from ngamma.workspace import (
    SCHEMA, Workspace, WorkspaceError, dump_document, merge_document,
    parse_workspace,
)


def test_bundled_file_matches_generator():
    on_disk = bundled_path().read_text(encoding="utf-8")
    assert on_disk == dump_document(bundled_document())


def test_bundled_workspace_contents():
    ws = bundled_workspace()
    assert set(ws.semirings) == {"f2_ternary", "boolean_ternary", "z4_ternary"}
    assert "z4_ideal02" in ws.modules
    assert "c_ideal" in ws.conflations
    assert ws.module("z4_reg").parent == ws.semiring("z4_ternary")


def test_parse_workspace_from_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(dump_document(bundled_document()), encoding="utf-8")
    ws = parse_workspace([str(path)])
    assert str(path) in ws.digests
    assert "f2_ternary" in ws.semirings


def test_empty_and_bad_documents(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema": SCHEMA}), encoding="utf-8")
    ws = parse_workspace([str(empty)])
    assert not ws.semirings

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(WorkspaceError):
        parse_workspace([str(bad)])

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
    with pytest.raises(WorkspaceError):
        parse_workspace([str(wrong)])


def test_nonassociative_table_rejected():
    doc = {
        "schema": SCHEMA,
        "monoids": {"bad": {"size": 3, "zero": 0,
                            "add": [0, 1, 2, 1, 2, 2, 2, 0, 1]}},
    }
    ws = Workspace()
    with pytest.raises(WorkspaceError) as err:
        merge_document(ws, doc)
    assert "bad" in str(err.value)


def test_axiom_violation_aborts_load():
    doc = bundled_document()
    doc["semirings"]["broken"] = {
        "n": 3, "T": "m_z2", "gamma": "g_trivial",
        "mu": [0, 0, 0, 0, 0, 0, 1, 1],  # mu(1,1,0) = 1 breaks absorption
    }
    with pytest.raises(WorkspaceError) as err:
        merge_document(Workspace(), doc)
    assert "broken" in str(err.value)


def test_dangling_reference():
    doc = {"schema": SCHEMA,
           "semirings": {"s": {"n": 3, "T": "nope", "gamma": "nope", "mu": []}}}
    with pytest.raises(WorkspaceError):
        merge_document(Workspace(), doc)


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["--format", "structured", "validate"]) == 0
    capsys.readouterr()
    assert main(["--format", "structured", "spectrum", "no_such"]) == 2
    capsys.readouterr()
    # An ideals quotient over a non-ideal subset is a fail report.
    assert main(["--format", "structured", "ideals", "quotient",
                 "z4_ternary", "--ideal", "3"]) == 1
    capsys.readouterr()


def test_cli_structured_reports_are_json(capsys):
    rc = main(["--format", "structured", "ext", "z4_ternary", "z4_reg",
               "z4_reg", "--depth", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "ngamma-report/1"
    assert doc["results"]["degrees"]["0"] == [4]
    assert doc["results"]["degrees"]["1"] == []


def test_cli_tensor_of_direct_sums(capsys):
    rc = main(["--format", "structured", "mod", "tensor", "z4_sum", "z4_sum"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["results"]["size"] == 32


def test_cli_spectrum_values(capsys):
    rc = main(["--format", "structured", "spectrum", "z4_ternary"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["results"]["primes"] == [[0, 2]]


def test_cli_deterministic_output(capsys):
    args = ["--format", "structured", "balance", "z4_ternary", "z4_reg",
            "z4_reg", "--depth", "2"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_cli_gamma_policy_flag(capsys):
    rc = main(["--format", "structured", "ext", "z4_ternary", "z4_reg",
               "z4_reg", "--depth", "1", "--gamma-policy", "fixed:0,0",
               "--filler-policy", "fixed:1"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["results"]["degrees"]["0"] == [4]


def test_cli_emit_matrices(capsys):
    rc = main(["--format", "structured", "ext", "f2_ternary", "f2_reg",
               "f2_reg", "--depth", "1", "--emit-matrices"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["results"]["bar_differentials"]["1"] == [[0]]
    assert doc["results"]["bar_differentials"]["2"] == [[1]]


def test_cli_text_format(capsys):
    rc = main(["spectrum", "f2_ternary"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: pass" in out


_TOP = {"workspace": None, "no_bundled": False, "format": "text", "bound": 16}
_DERIVED = {"slots": None, "depth": 2, "gamma_policy": "sum", "filler_policy": None}
_DERIVED_COMMANDS = {
    "ext": (["s", "m", "n"], {"semiring": "s", "m": "m", "n": "n",
                              "emit_matrices": False}),
    "tor": (["s", "m", "n"], {"semiring": "s", "m": "m", "n": "n",
                              "emit_matrices": False}),
    "balance": (["s", "m", "n"], {"semiring": "s", "m": "m", "n": "n"}),
    "les": (["c", "n"], {"conflation": "c", "n": "n", "side": "hom"}),
    "yoneda": (["s", "m"], {"semiring": "s", "m": "m"}),
    "kunneth": (["s", "m", "n", "l"], {"semiring": "s", "m": "m", "n": "n", "l": "l",
                                       "emit_pages": False}),
}
_FLAG_VALUES = [("--slots", "3,1", "slots", "3,1"), ("--depth", "4", "depth", 4),
                ("--gamma-policy", "fixed:0,0", "gamma_policy", "fixed:0,0"),
                ("--filler-policy", "neutral", "filler_policy", "neutral")]


@pytest.mark.parametrize("cmd", sorted(_DERIVED_COMMANDS))
def test_derived_commands_parse_the_shared_flags(cmd):
    positional, own = _DERIVED_COMMANDS[cmd]
    parser = build_parser()
    want = {**_TOP, "cmd": cmd, **own, **_DERIVED}
    assert vars(parser.parse_args([cmd, *positional])) == want
    for flag, text, dest, value in _FLAG_VALUES:
        got = vars(parser.parse_args([cmd, *positional, flag, text]))
        assert got == {**want, dest: value}
    every = [part for flag, text, _, _ in _FLAG_VALUES for part in (flag, text)]
    got = vars(parser.parse_args([cmd, *positional, *every]))
    assert got == {**want, **{dest: value for _, _, dest, value in _FLAG_VALUES}}


# ---------------------------------------------------------------------------
# One subparser per call
# ---------------------------------------------------------------------------

def _bundled_commands():
    """``BUNDLED_COMMANDS`` of the benchmark's job list, split into argv."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return [command.split() for command in jobs.BUNDLED_COMMANDS]


def _derived_argvs():
    """Every derived command with every subset of ``_FLAG_VALUES``."""
    for cmd, (positional, _) in sorted(_DERIVED_COMMANDS.items()):
        for r in range(len(_FLAG_VALUES) + 1):
            for flags in combinations(_FLAG_VALUES, r):
                yield [cmd, *positional,
                       *(part for flag, text, _, _ in flags for part in (flag, text))]


_GLOBAL_PREFIXES = [[], ["--format", "structured"], ["-w", "a.json", "--bound", "5"],
                    ["--no-bundled", "--workspace", "b.json", "-w", "c.json"]]


def test_one_command_parser_reads_as_the_full_parser():
    full = build_parser()
    argvs = _bundled_commands() + list(_derived_argvs())
    assert len(argvs) == 17 + 6 * 16
    for argv in argvs:
        for prefix in _GLOBAL_PREFIXES:
            call = prefix + argv
            assert command_in(call) == argv[0], call
            one = build_parser(argv[0])
            assert one.parse_args(call) == full.parse_args(call), call


@pytest.mark.parametrize("argv", [
    ["-h"], ["ext", "-h"], ["kunneth", "--help"], ["nosuch"], ["ext"], [],
    ["--form", "structured", "validate"], ["validate", "extra"],
    ["--format", "bad", "validate"], ["--bound", "x", "validate"],
    ["--work", "validate", "ext", "s", "m", "n"], ["oracle", "bogus"],
    ["-w"], ["--", "validate"],
])
def test_help_and_errors_are_the_full_parsers(argv, capsys, monkeypatch):
    code = main(argv)
    got = capsys.readouterr()
    monkeypatch.setattr(cli, "command_in", lambda _argv: None)
    assert main(argv) == code
    assert capsys.readouterr() == got
    assert code in (0, 2)


def test_command_scan_skips_exactly_the_value_options():
    top = build_parser()
    options = [a for a in top._actions if a.option_strings]
    takes_value = {s for a in options if a.nargs != 0 for s in a.option_strings}
    flags = {s for a in options if a.nargs == 0 for s in a.option_strings}
    assert cli.VALUE_OPTIONS == takes_value
    assert cli.FLAG_OPTIONS == flags - {"-h", "--help"}
    for opt in takes_value:
        assert command_in([opt, "validate", "ext"]) == "ext"
    for opt in cli.FLAG_OPTIONS:
        assert command_in([opt, "ext", "validate"]) == "ext"
    for opt in ("-h", "--help", "--form", "--format=text", "-wx", "--"):
        assert command_in([opt, "ext"]) is None
    assert command_in(["--bound"]) is None
