import hashlib
import importlib.util
import json
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ngamma import cli, oracle
from ngamma.bundled import bundled_document, bundled_path, bundled_workspace
from ngamma.cli import build_parser, command_in, main
from ngamma.core import (
    FiniteAddMonoid, NaryGammaSemiring, StructuralError, binary_specialization,
    f2_semiring, f2_ternary, make_matrix_family, trivial_gamma,
)
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
     "--gamma-policy fixed: wants 2 comma-separated indices below 1, got 'a'"),
    (["ext", "f2_ternary", "f2_reg", "f2_reg", "--filler-policy", "fixed:9"],
     "--filler-policy fixed: wants 1 comma-separated indices below 2, got '9'"),
    (["ext", "z4_ternary", "f2_reg", "f2_reg"],
     "module 'f2_reg' does not live over z4_ternary"),
    (["kunneth", "z4_ternary", "f2_reg", "f2_reg", "f2_reg"],
     "module 'f2_reg' does not live over z4_ternary"),
    (["basechange", "q_z4_f2", "f2_reg", "z4_reg"],
     "module does not live over the morphism source"),
])
def test_bad_arguments_exit_2_with_an_error_line(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err


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
    recorder(cli, "bar_complex", 2)
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


def _zero_multiplication(n):
    t = FiniteAddMonoid(2, (0, 1, 1, 0))
    return NaryGammaSemiring(n, t, trivial_gamma(), (0,) * 2 ** n, name="zm")


def test_neutral_filler_policy_needs_a_neutral_word(tmp_path, capsys):
    zm = _zero_multiplication(3)
    path = _regular_workspace(tmp_path, zm)
    ext = ["--no-bundled", "-w", path, "ext", "s", "reg", "reg"]
    assert main(ext + ["--filler-policy", "neutral"]) == 2
    assert "semiring 's' has no neutral word" in capsys.readouterr().err
    for flag in ("sum", "fixed:1"):
        assert main(ext + ["--filler-policy", flag]) == 0
    with pytest.raises(StructuralError):
        cli._parse_policy(zm, "sum", "neutral")
    assert cli._parse_policy(zm, "sum", "sum").fillers == ((0,), (1,))
    assert cli._parse_policy(zm, "fixed:0,0", "fixed:1").fillers == ((1,),)
    assert cli._parse_policy(zm, "sum", None).fillers == ((0,), (1,))
    # A carrier with a neutral word contracts with it; n = 2 has no fillers.
    assert cli._parse_policy(f2_ternary(), "sum", "neutral").fillers == ((1,),)
    assert cli._parse_policy(f2_ternary(), "sum", "sum").fillers == ((0,), (1,))
    assert cli._parse_policy(_zero_multiplication(2), "sum", "neutral").fillers == ((),)


# ---------------------------------------------------------------------------
# One subparser per call
# ---------------------------------------------------------------------------

def _perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bundled_commands():
    """``BUNDLED_COMMANDS`` of the benchmark's job list, split into argv."""
    return [command.split() for command in _perfbench("jobs").BUNDLED_COMMANDS]


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


_EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected.json")
                       .read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(_EXPECTED["bundled-cli"]))
def test_bundled_commands_match_the_benchmark_digests(command, capsys):
    # The benchmark's own output check, so a changed report fails here first.
    code = main(["--format", "structured"] + command.split())
    out = capsys.readouterr().out
    assert {"exit": code, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()} \
        == _EXPECTED["bundled-cli"][command]


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
