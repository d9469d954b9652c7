"""A command loads only the layers it runs.

``import ngamma.cli`` and a workspace load import the tables, ideals,
modules and workspaces; the derived layer and the group kernel under it are
imported by the handlers that call them.  Each check runs in a fresh
interpreter, since this test process has imported every module already.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from ngamma import cli

# The bundled commands that run on the tables alone.
TABLE_COMMANDS = (
    "validate",
    "spectrum z4_ternary",
    "ideals list z4_ternary",
    "ideals quotient z4_ternary --ideal 5",
    "mod validate z4_reg",
    "mod hom f2_reg f2_reg --slots 3,1",
    "mod tensor z4_reg z4_ideal02 --slots 3,1",
    "mod cofree z4_ternary m_z4",
)
EXT = "ext z4_ternary z4_reg z4_reg --depth 2"

# Prints, as JSON, the engine modules imported after each step, the exit
# codes and structured reports of the commands, and which of the class
# generator ``dataclasses`` and the ``inspect`` it imports were imported
# after the script's own imports.
SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
import ngamma.cli
from ngamma.bundled import bundled_workspace

def loaded():
    return sorted(name for name in sys.modules if name.startswith("ngamma"))

def run(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ngamma.cli.main(["--format", "structured"] + command.split())
    return [code, out.getvalue()]

bundled_workspace()
steps, runs = {}, {}
for command in COMMANDS:
    runs[command] = run(command)
    steps[command] = loaded()
added = sorted({"dataclasses", "inspect"} & set(sys.modules) - before)
print(json.dumps({"steps": steps, "runs": runs, "added": added}))
"""

TABLE_LAYERS = ["ngamma", "ngamma.bundled", "ngamma.cli", "ngamma.core", "ngamma.ideals",
                "ngamma.modules", "ngamma.workspace"]


def _fresh(commands) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = SCRIPT.replace("COMMANDS", repr(commands))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    return json.loads(proc.stdout)


def test_each_command_imports_only_the_layers_it_runs():
    got = _fresh(list(TABLE_COMMANDS) + ["complete z4_reg", EXT])
    steps, runs = got["steps"], got["runs"]
    assert all(runs[command][0] == 0 for command in runs)
    # A command process pays for every module it imports.
    assert got["added"] == []
    for command in TABLE_COMMANDS:
        assert steps[command] == TABLE_LAYERS, command
    # Completion brings the group kernel, not the derived layer.
    assert set(steps["complete z4_reg"]) - set(TABLE_LAYERS) == {
        "ngamma.abgroups", "ngamma.completion", "ngamma.intlinalg"}
    assert set(steps[EXT]) - set(TABLE_LAYERS) == {
        "ngamma.abgroups", "ngamma.completion", "ngamma.homology", "ngamma.intlinalg"}

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "structured"] + EXT.split())
    assert runs[EXT] == [code, out.getvalue()]
