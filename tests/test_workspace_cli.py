import hashlib
import importlib.util
import json
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ngamma import cli, homology, oracle
from ngamma.bundled import bundled_document, bundled_path, bundled_workspace
from ngamma.cli import build_parser, main
from ngamma.core import binary_specialization, f2_semiring, make_matrix_family
from ngamma.modules import regular_bimodule
from ngamma.workspace import (
    SCHEMA, Workspace, WorkspaceError, dump_document, merge_bytes, merge_document,
    parse_workspace, workspace_document,
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


# ---------------------------------------------------------------------------
# Every malformed document is a WorkspaceError
# ---------------------------------------------------------------------------

def _paths(value, path=()):
    """Every path into a JSON value, the value's own () first."""
    yield path
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_DOC = bundled_document()
_PATHS = list(_paths(_DOC))
# Table cells are most paths; these are the rest, the document's structure.
_STRUCTURE = [p for p in _PATHS if not p or not isinstance(p[-1], int)]
_NAMES = sorted({name for section in _DOC.values() if isinstance(section, dict)
                 for name in section})
_FIELDS = sorted({fld for section in _DOC.values() if isinstance(section, dict)
                  for body in section.values() for fld in body})
# Integers stay small: a two-element module over one-element tables of arity
# 100 takes seconds to validate.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=4) | st.sampled_from(_NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(_FIELDS), inner, max_size=4),
    max_leaves=8)


@given(st.sampled_from(_STRUCTURE) | st.sampled_from(_PATHS), _JSON)
@settings(max_examples=200, deadline=None)
def test_any_replaced_value_loads_or_is_a_workspace_error(path, value):
    raw = json.dumps(_replaced(_DOC, path, value)).encode("utf-8")
    try:
        merge_bytes(Workspace(), raw, where="fuzzed.json")
    except WorkspaceError as e:
        assert str(e).startswith("fuzzed.json: ")


@pytest.mark.parametrize("path, text, message", [
    (("monoids",), "[]", "'monoids' must be an object"),
    (("gammas", "g_trivial"), "[1]", "gamma 'g_trivial': body must be an object"),
    (("modules", "f2_reg", "semiring"), '["f2_ternary"]',
     "module 'f2_reg': 'semiring' names no semiring: ['f2_ternary']"),
    (("conflations", "c_ideal", "i"), "{}", "conflation 'c_ideal': 'i' names no inflation"),
    (("monoids", "m_z2"), '{"size": 2}', "monoid 'm_z2': missing field 'add'"),
    (("semirings", "f2_ternary", "n"), "3.0", "integers only, not 3.0"),
    (("monoids", "m_z2", "size"), "2.0", "integers only, not 2.0"),
    (("monoids", "m_z2", "size"), "1e3", "integers only, not 1e3"),
    (("monoids", "m_z2", "add", 0), "NaN", "integers only, not NaN"),
    (("monoids", "m_z2", "zero"), "-Infinity", "integers only, not -Infinity"),
    (("semirings", "f2_ternary", "n"), "1000000",
     "semiring 'f2_ternary': mu table has 8 entries, fewer than the 2^999999"),
    (("module_morphisms", "incl02", "map", 1), "5",
     "module morphism 'incl02': module morphism value out of range"),
    (("module_morphisms", "incl02", "map", 1), "-1",
     "module morphism 'incl02': module morphism value out of range"),
    (("monoids", "m_z2", "size"), "true", "integers only, not true"),
    (("monoids", "m_z2", "zero"), "false", "integers only, not false"),
    (("modules", "f2_reg", "act", 0, 0), "true", "integers only, not true"),
])
def test_malformed_documents_exit_2_with_an_error_line(path, text, message, tmp_path,
                                                        capsys):
    # A placeholder string stands where the raw text goes.
    raw = json.dumps(_replaced(_DOC, path, "\0")).replace('"\\u0000"', text)
    assert text in raw
    with pytest.raises(WorkspaceError) as err:
        merge_bytes(Workspace(), raw.encode("utf-8"), where="bad.json")
    assert str(err.value).startswith("bad.json: ") and message in str(err.value)
    bad = tmp_path / "bad.json"
    bad.write_text(raw, encoding="utf-8")
    assert main(["--no-bundled", "-w", str(bad), "validate"]) == 2
    want = str(err.value).replace("bad.json", str(bad), 1)
    assert capsys.readouterr().err == f"error: {want}\n"


def test_one_element_tables_of_huge_arity_validate_at_once(tmp_path, capsys):
    doc = {"schema": SCHEMA,
           "monoids": {"one": {"size": 1, "add": [0], "zero": 0}},
           "gammas": {"g": {"size": 1, "add": [0], "zero": None}},
           "semirings": {"s": {"n": 100000, "T": "one", "gamma": "g", "mu": [0]}}}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["--no-bundled", "-w", str(path), "validate"]) == 0
    assert time.perf_counter() - start < 5
    assert "s: valid" in capsys.readouterr().out


def test_morphism_failures_name_their_witness():
    doc = _replaced(_DOC, ("morphisms", "q_z4_f2", "map"), [0, 1, 1, 0])
    with pytest.raises(WorkspaceError, match=r"<doc>: morphism 'q_z4_f2': fails "
                       r"morphism additivity with witness \(1, 1\)"):
        merge_document(Workspace(), doc)
    doc = _replaced(_DOC, ("module_morphisms", "incl02", "map"), [0, 1])
    with pytest.raises(WorkspaceError, match=r"<doc>: module morphism 'incl02': fails "
                       r"morphism additivity with witness \(1, 1\)"):
        merge_document(Workspace(), doc)


def test_conflation_failure_names_the_conflation_and_its_witness():
    # The identity of Z/4 followed by Z/4 -> Z/2 sends 1 to 1, not to zero.
    doc = _replaced(_DOC, ("module_morphisms", "z4_id"),
                    {"source": "z4_reg", "target": "z4_reg", "map": [0, 1, 2, 3]})
    doc = _replaced(doc, ("conflations", "c_ideal", "i"), "z4_id")
    with pytest.raises(WorkspaceError, match=r"<doc>: conflation 'c_ideal': fails "
                       r"conflation with witness \('composite nonzero', 1\)"):
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


@pytest.mark.parametrize("argv, message", [
    (["mod", "hom", "f2_reg"], "mod hom takes 2 name(s), got 1"),
    (["mod", "tensor", "z4_reg"], "mod tensor takes 2 name(s), got 1"),
    (["mod", "cofree", "z4_ternary"], "mod cofree takes 2 name(s), got 1"),
    (["mod", "validate", "f2_reg", "f2_reg"], "mod validate takes 1 name(s), got 2"),
    (["ideals", "quotient", "z4_ternary", "--ideal", "17"],
     "--ideal 17 is not a bitmask over the 4 elements of z4_ternary"),
    (["ideals", "quotient", "z4_ternary", "--ideal", "-1"],
     "--ideal -1 is not a bitmask over the 4 elements of z4_ternary"),
    (["balance", "z4_ternary", "z4_reg", "z4_reg", "--depth", "-1"],
     "argument --depth: must be a nonnegative integer, got '-1'"),
    (["basechange", "q_z4_f2", "z4_reg", "z4_reg", "--depth", "-1"],
     "argument --depth: must be a nonnegative integer, got '-1'"),
    (["ext", "f2_ternary", "f2_reg", "f2_reg", "--gamma-policy", "fixed:a"],
     "unrecognized arguments: --gamma-policy fixed:a"),
    (["ext", "f2_ternary", "f2_reg", "f2_reg", "--filler-policy", "fixed:9"],
     "unrecognized arguments: --filler-policy fixed:9"),
    (["ext", "z4_ternary", "f2_reg", "f2_reg"],
     "module 'f2_reg' does not live over z4_ternary"),
    (["kunneth", "z4_ternary", "f2_reg", "f2_reg", "f2_reg"],
     "module 'f2_reg' does not live over z4_ternary"),
    (["basechange", "q_z4_f2", "f2_reg", "z4_reg"],
     "module does not live over the morphism source"),
    *((["ext", "z4_ternary", "z4_reg", "z4_reg", "--slots", text],
      f"error: --slots wants 'j,k', got {text!r}") for text in ("3", "a,b", "1,2,3", "")),
])
def test_bad_arguments_exit_2_with_an_error_line(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err


_SLOT_COMMANDS = [
    ["mod", "hom", "z4_reg", "z4_reg"], ["mod", "tensor", "z4_reg", "z4_reg"],
    ["ext", "z4_ternary", "z4_reg", "z4_reg"], ["tor", "z4_ternary", "z4_reg", "z4_reg"],
    ["balance", "z4_ternary", "z4_reg", "z4_reg"], ["les", "c_ideal", "z4_reg"],
    ["yoneda", "z4_ternary", "z4_reg"], ["kunneth", "z4_ternary", "z4_reg", "z4_reg", "z4_reg"],
    ["basechange", "q_z4_f2", "z4_reg", "z4_reg"],
]


@pytest.mark.parametrize("slots, pair", [("4,1", "(4, 1)"), ("0,1", "(0, 1)")])
@pytest.mark.parametrize("argv", _SLOT_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_every_slots_flag_is_checked_by_the_entry_point(argv, slots, pair, capsys):
    # The command line only parses the pair; modules.check_slots refuses it.
    assert main(["--format", "structured", *argv, "--slots", slots]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: slot pair {pair} is outside 1..3" in err


def test_kunneth_answers_at_depth_zero(capsys):
    rc = main(["--format", "structured", "kunneth", "f2_ternary", "f2_reg", "f2_reg",
               "f2_reg", "--depth", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["results"]["page_law"] == [True, True]
    assert doc["results"]["diagonal_orders_first"] == [[0, 2, 2]]


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
    # The semiring picks the contraction: no derived command takes a choice.
    for cmd, positional in sorted(_DERIVED_COMMANDS.items()):
        for flag, text in (("--gamma-policy", "fixed:0,0"), ("--filler-policy", "fixed:0"),
                           ("--filler-policy", "neutral")):
            argv = ["--format", "structured", cmd, *positional[0], flag, text]
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and f"unrecognized arguments: {flag} {text}" in err


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
_DERIVED = {"slots": None, "depth": 2}
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
    "basechange": (["f", "m", "n"], {"morphism": "f", "m": "m", "n": "n", "depth": 1}),
}
_FLAG_VALUES = [("--slots", "3,1", "slots", "3,1"), ("--depth", "4", "depth", 4)]


@pytest.mark.parametrize("cmd", sorted(_DERIVED_COMMANDS))
def test_derived_commands_parse_the_shared_flags(cmd):
    positional, own = _DERIVED_COMMANDS[cmd]
    parser = build_parser()
    want = {**_TOP, "cmd": cmd, **_DERIVED, **own}
    assert vars(parser.parse_args([cmd, *positional])) == want
    for flag, text, dest, value in _FLAG_VALUES:
        got = vars(parser.parse_args([cmd, *positional, flag, text]))
        assert got == {**want, dest: value}
    every = [part for flag, text, _, _ in _FLAG_VALUES for part in (flag, text)]
    got = vars(parser.parse_args([cmd, *positional, *every]))
    assert got == {**want, **{dest: value for _, _, dest, value in _FLAG_VALUES}}


def _regular_workspace(tmp_path, s):
    """A workspace file holding s (named ``s``) and its regular module ``reg``."""
    doc = workspace_document({"t": s.T}, {"g": s.gamma}, {"s": (s, "t", "g")},
                             {"reg": (regular_bimodule(s), "s", "t")})
    path = tmp_path / "ws.json"
    path.write_text(dump_document(doc), encoding="utf-8")
    return str(path)


def test_oracle_defaults_to_the_last_slot(tmp_path, monkeypatch):
    s = binary_specialization(f2_semiring())
    path = _regular_workspace(tmp_path, s)
    slots = []

    def recorder(module, attr, at):
        real = getattr(module, attr)

        def wrapped(*args, **kwargs):
            slots.append((attr, args[at]))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapped)

    recorder(oracle, "tensor_class_count", 2)
    recorder(cli, "tensor_positional", 2)
    recorder(homology, "bar_complex", 2)
    for target in ("tensor", "homology"):
        assert main(["--no-bundled", "-w", path, "oracle", target]) == 0
    assert sorted(slots) == [("bar_complex", 1), ("tensor_class_count", 1),
                             ("tensor_positional", 1)]


def test_mod_tensor_on_noncommutative_matrices(tmp_path, capsys):
    # Binary M2(F2) (x) M2(F2) answers with the 16 elements of M2(F2); in the
    # ternary family the middle slot descends through neither factor.
    binary = _regular_workspace(tmp_path, make_matrix_family(f2_semiring(), 2, 2))
    argv = ["--format", "structured", "--no-bundled", "-w", binary, "mod", "tensor",
            "reg", "reg"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"]["size"] == 16
    ternary = _regular_workspace(tmp_path, make_matrix_family(f2_semiring(), 2, 3))
    assert main(["--no-bundled", "-w", ternary, "mod", "tensor", "reg", "reg"]) == 2
    assert "no residual action descends at slot 2: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

def _perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _derived_argvs():
    """Every derived command with every subset of ``_FLAG_VALUES``."""
    for cmd, (positional, _) in sorted(_DERIVED_COMMANDS.items()):
        for r in range(len(_FLAG_VALUES) + 1):
            for flags in combinations(_FLAG_VALUES, r):
                yield [cmd, *positional,
                       *(part for flag, text, _, _ in flags for part in (flag, text))]


_GLOBAL_PREFIXES = [[], ["--format", "structured"], ["-w", "a.json", "--bound", "5"],
                    ["--no-bundled", "--workspace", "b.json", "-w", "c.json"]]


@pytest.mark.parametrize("argv", [
    ["-h"], ["ext", "-h"], ["kunneth", "--help"], ["nosuch"], ["ext"], [],
    ["--form", "structured", "validate"], ["validate", "extra"],
    ["--format", "bad", "validate"], ["--bound", "x", "validate"],
    ["--work", "validate", "ext", "s", "m", "n"], ["oracle", "bogus"],
    ["-w"], ["--", "validate"],
])
def test_help_and_errors_are_the_full_parsers(argv, capsys):
    # The one parser reads help and errors the same on every call.
    code = main(argv)
    got = capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr() == got
    assert code in (0, 2)


_EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected.json")
                       .read_text(encoding="utf-8"))


def _digest(command, capsys):
    """Exit code and stdout digest of one structured call, as the benchmark
    records them."""
    code = main(["--format", "structured"] + command.split())
    out = capsys.readouterr().out
    return {"exit": code, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("command", sorted(_EXPECTED["bundled-cli"]))
def test_bundled_commands_match_the_benchmark_digests(command, capsys):
    # The benchmark's own output check, so a changed report fails here first.
    assert _digest(command, capsys) == _EXPECTED["bundled-cli"][command]


def test_one_parser_serves_every_call_in_either_order(capsys):
    # The bundled commands, run in one process forwards and then backwards,
    # all go through the one cached parser and keep their benchmark digests;
    # afterwards it still reads every argv as a freshly built parser does.
    parser = build_parser()
    commands = list(_perfbench("jobs").BUNDLED_COMMANDS)
    for order in (commands, commands[::-1]):
        for command in order:
            assert _digest(command, capsys) == _EXPECTED["bundled-cli"][command], command
            assert build_parser() is parser
    fresh = build_parser.__wrapped__()
    argvs = [command.split() for command in commands] + list(_derived_argvs())
    assert len(argvs) == 17 + 7 * 4
    for argv in argvs:
        for prefix in _GLOBAL_PREFIXES:
            call = prefix + argv
            assert parser.parse_args(call) == fresh.parse_args(call), call


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["derived", "tables"])
def test_generated_jobs_match_the_benchmark_answers(workload, seed, tmp_path):
    # The benchmark's generated workspaces and jobs, checked as its run does.
    gen, jobs = _perfbench("gen"), _perfbench("jobs")
    gen.write(workload, seed, tmp_path)
    ws = parse_workspace([str(tmp_path / "workspace.json")])
    spec = json.loads((tmp_path / "jobs.json").read_text(encoding="utf-8"))
    assert {job["name"]: jobs.run_generated(ws, job) for job in spec} \
        == _EXPECTED[workload]
