"""The command line validates each distinct input once per process.

``cli._load`` keeps the workspace of the last successful load, keyed on the
bytes of its sources.  A call with the same bytes gets it back and prints
what a fresh load prints; a call with other bytes, or whose load fails, is
never answered from it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ngamma import cli, core, modules
from ngamma.cli import main
from ngamma.core import f2_ternary, z4_ternary
from ngamma.modules import regular_bimodule
from ngamma.workspace import KINDS, Workspace, WorkspaceError, dump_document, merge_bytes, \
    workspace_document

# The README command list on the packaged workspace, plus the Tor side of
# the long exact sequence (the benchmark's ``bundled-cli`` round).
BUNDLED_COMMANDS = (
    "validate",
    "spectrum z4_ternary",
    "ideals list z4_ternary",
    "ideals quotient z4_ternary --ideal 5",
    "mod hom f2_reg f2_reg --slots 3,1",
    "mod tensor z4_reg z4_ideal02 --slots 3,1",
    "mod cofree z4_ternary m_z4",
    "complete z4_reg",
    "ext z4_ternary z4_reg z4_reg --depth 2 --emit-matrices",
    "tor z4_ternary z4_reg z4_ideal02 --depth 2",
    "balance z4_ternary z4_reg z4_reg --depth 2",
    "les c_ideal z4_reg --side hom --depth 2",
    "les c_ideal z4_reg --side tor --depth 2",
    "yoneda f2_ternary f2_reg --depth 2",
    "kunneth f2_ternary f2_reg f2_reg f2_reg --depth 2 --emit-pages",
    "basechange q_z4_f2 z4_reg z4_reg",
    "oracle all",
)


@pytest.fixture(autouse=True)
def _no_kept_load():
    # Every test starts and ends without a kept workspace.
    cli._validated.cache_clear()
    yield
    cli._validated.cache_clear()


def _structured(argv, capsys):
    """Exit code, stdout and stderr of one ``--format structured`` call."""
    code = main(["--format", "structured", *argv])
    got = capsys.readouterr()
    return code, got.out, got.err


def _contents(ws):
    """Every (section, name) of ``ws`` with the identity of its object; the
    digests with their values."""
    sections = [kind[0] for kind in KINDS] + ["digests"]
    return {(section, name): obj if section == "digests" else id(obj)
            for section in sections for name, obj in getattr(ws, section).items()}


def test_a_memo_hit_changes_no_report(monkeypatch, capsys, count_calls):
    # Two passes of the benchmark's commands: the first loads once, the
    # second walks no table, both print the same bytes and exit codes, and
    # every handler receives the one workspace unchanged.
    received = []
    for name, (text, register, handler) in cli.COMMANDS.items():
        def recording(ws, args, rep, _handler=handler):
            received.append((ws, _contents(ws)))
            return _handler(ws, args, rep)
        monkeypatch.setitem(cli.COMMANDS, name, (text, register, recording))
    walks = count_calls(modules, "walk_module")
    reports = count_calls(core, "_semiring_report")

    first = [_structured(command.split(), capsys) for command in BUNDLED_COMMANDS]
    assert walks["walk_module"] == 3 and reports["_semiring_report"] >= 3
    walks.clear(), reports.clear()
    second = [_structured(command.split(), capsys) for command in BUNDLED_COMMANDS]
    assert walks == reports == {}
    assert second == first
    assert all(code in (0, 1) and err == "" for code, _, err in first)
    ws, before = received[0]
    assert len(received) == 2 * len(BUNDLED_COMMANDS)
    assert all(got is ws and seen == before for got, seen in received)
    assert _contents(ws) == before


def _document(semirings):
    """A workspace document of the given ternary semirings and their regular
    modules, each semiring over its own carrier and parameter monoid."""
    return workspace_document(
        {f"m_{name}": s.T for name, s in semirings.items()},
        {f"g_{name}": s.gamma for name, s in semirings.items()},
        {name: (s, f"m_{name}", f"g_{name}") for name, s in semirings.items()},
        {f"{name}_reg": (regular_bimodule(s), name, f"m_{name}")
         for name, s in semirings.items()})


def test_changed_or_bad_bytes_are_never_served_from_the_memo(tmp_path, capsys):
    path = tmp_path / "ws.json"
    argv = ["--no-bundled", "-w", str(path), "validate"]
    first = dump_document(_document({"f2": f2_ternary()}))
    other = _document({"f2": f2_ternary(), "z4": z4_ternary()})
    second = dump_document(other)
    other["semirings"]["z4"]["mu"][0] = 4  # out of range for Z/4
    bad = dump_document(other)

    def report(text):
        path.write_text(text, encoding="utf-8")
        code, out, err = _structured(argv, capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["inputs"] == {str(path): hashlib.sha256(text.encode()).hexdigest()}
        return out, sorted(doc["results"]["semirings"])

    out_first, names = report(first)
    assert names == ["f2"]
    assert report(second)[1] == ["f2", "z4"]

    path.write_text(bad, encoding="utf-8")
    with pytest.raises(WorkspaceError) as refused:
        merge_bytes(Workspace(), bad.encode(), where=str(path))
    assert "semiring 'z4'" in str(refused.value)
    for _ in range(2):
        assert _structured(argv, capsys) == (2, "", f"error: {refused.value}\n")

    assert report(first)[0] == out_first

    code, out, err = _structured(["--no-bundled", "validate"], capsys)
    doc = json.loads(out)
    assert (code, err, doc["inputs"]) == (0, "", {})
    assert all(section == {} for section in doc["results"].values())


def test_unchanged_bytes_give_back_the_same_workspace(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(dump_document(_document({"f2": f2_ternary()})), encoding="utf-8")
    parser = cli.build_parser()
    for argv in (["validate"], ["--no-bundled", "validate"],
                 ["-w", str(path), "validate"]):
        args = parser.parse_args(argv)
        ws = cli._load(args)
        assert cli._load(args) is ws
    # A path key would miss a rewrite; the bytes do not.
    path.write_text(dump_document(_document({"z4": z4_ternary()})), encoding="utf-8")
    assert set(cli._load(args).semirings) == {"z4"}


def test_a_fresh_process_prints_what_a_memo_hit_prints(capsys):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    fresh = subprocess.run([sys.executable, "-m", "ngamma.cli", "--format", "structured",
                            "validate"], env=env, capture_output=True, timeout=120)
    _structured(["validate"], capsys)
    code, out, err = _structured(["validate"], capsys)
    assert cli._validated.cache_info().hits == 1
    assert (fresh.returncode, fresh.stdout.decode("utf-8"), fresh.stderr) == (code, out, b"")
