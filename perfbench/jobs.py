"""Jobs of the three workloads and the summaries their outputs are checked by.

Every job is a call into a public function of the engine.  Engine functions
are reached through their modules (``homology.ext_via_bar``), so the traced
run sees the calls the benchmark makes.  A job's summary is computed inside
the timed region: isomorphism invariants for generated inputs, and the exit
code with the sha256 of the structured report for CLI commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random

from ngamma import cli, completion, homology, ideals, modules

# The README command list on the packaged workspace, plus the Tor side of
# the long exact sequence.
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


def _factors(group) -> list[int]:
    return list(group.invariant_factors()) + [0] * group.rank


def _policy(spec) -> homology.ContractionPolicy:
    return homology.ContractionPolicy(
        tuple(tuple(g) for g in spec["gammas"]),
        tuple(tuple(f) for f in spec["fillers"]), "relabelled default")


def run_generated(ws, job: dict) -> dict:
    """Run one job of ``derived`` or ``tables``; return its invariants."""
    op = job["op"]
    if op in ("ext_via_bar", "tor_via_bar"):
        fn = getattr(homology, op)
        j, k = job["slots"]
        res = fn(ws.semiring(job["semiring"]), ws.module(job["m"]),
                 ws.module(job["n"]), j, k, job["depth"], _policy(job["policy"]))
        return {"factors": [list(f) for f in res.factors()]}
    if op == "all_ideals":
        return {"ideals": len(ideals.all_ideals(ws.semiring(job["semiring"])))}
    if op == "spectrum":
        data = ideals.spectrum(ws.semiring(job["semiring"]))
        return {"ideals": len(data.ideals), "primes": len(data.primes)}
    if op == "linearize_module":
        cm = completion.linearize_module(ws.module(job["m"]))
        return {"factors": _factors(cm.group),
                "operators": sum(len(slot) for slot in cm.ops)}
    if op == "tensor_positional":
        j, k = job["slots"]
        res = modules.tensor_positional(ws.module(job["m"]), ws.module(job["n"]), j, k)
        return {"size": res.module.M.size}
    raise ValueError(f"unknown job op {op!r}")


def run_command(command: str, main=None) -> dict:
    """One ``ngamma --format structured`` call; exit code and report digest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = (main or cli.main)(["--format", "structured"] + command.split())
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def command_rounds(seed: int):
    """Rounds of the bundled command list, each in a seed-shuffled order."""
    rng = random.Random(f"bundled-cli/{seed}")
    while True:
        order = list(BUNDLED_COMMANDS)
        rng.shuffle(order)
        yield order
