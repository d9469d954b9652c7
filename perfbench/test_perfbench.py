"""Tests of the benchmark's own tooling.

    python3 -m pytest perfbench -q

Relabelling must give structures that pass validation and keep their
invariants on every seed; the tracer must restore what it wraps; the
expected outputs must cover every job the benchmark runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END, WORKLOADS, percentile  # noqa: E402
from ngamma import (  # noqa: E402
    cli, completion, core, homology, ideals, intlinalg, modules, workspace,
)

SEEDS = (0, 1, 2)


def _small_families():
    return {
        "z6": core.ternary_from_semiring(core.zmod_semiring(6)),
        "gz4": gen.families("tables")["gz4"][0],
        "m2b": gen.families("tables")["m2b"][0],
    }


def _relabelled(name, s, seed):
    tperm = gen.permutation("test", seed, f"{name}.T", s.T.size)
    mperm = gen.permutation("test", seed, f"{name}.M", s.T.size)
    rs = gen.relabel_semiring(s, tperm, name=name)
    reg = gen.relabel_module(modules.regular_bimodule(s), rs, tperm, mperm)
    return rs, reg, tperm


def _invariants(s, reg, policy):
    spec = ideals.spectrum(s)
    inv = {
        "ideals": len(ideals.all_ideals(s)),
        "primes": len(spec.primes),
        "completion": completion.linearize_module(reg).group.invariant_factors(),
    }
    if s.n == 3 and s.gamma.size == 1:
        inv["ext"] = homology.ext_via_bar(s, reg, reg, 2, 0, 1, policy).factors()
        inv["tor"] = homology.tor_via_bar(s, reg, reg, 2, 0, 1, policy).factors()
    return inv


@pytest.mark.parametrize("name", ["z6", "gz4", "m2b"])
def test_relabelling_validates_and_keeps_invariants(name):
    s = _small_families()[name]
    base = _invariants(s, modules.regular_bimodule(s), homology.default_policy(s))
    for seed in SEEDS:
        rs, reg, tperm = _relabelled(name, s, seed)
        assert core.validate_semiring(rs).ok
        assert modules.validate_module(reg).ok
        p = gen.relabel_policy(homology.default_policy(s), tperm)
        policy = homology.ContractionPolicy(
            tuple(map(tuple, p["gammas"])), tuple(map(tuple, p["fillers"])))
        assert _invariants(rs, reg, policy) == base


def test_seeds_give_distinct_layouts_and_repeat_exactly():
    layouts = {tuple(gen.permutation("tables", seed, "m2f2.T", 16)) for seed in SEEDS}
    assert len(layouts) == len(SEEDS)
    assert gen.permutation("derived", 5, "z12.T", 12) == \
        gen.permutation("derived", 5, "z12.T", 12)


def test_generated_document_round_trips():
    s = _small_families()["z6"]
    rs, reg, _ = _relabelled("z6", s, 1)
    doc = workspace.workspace_document(
        {"t": rs.T, "m": reg.M}, {"g": rs.gamma}, {"z6": (rs, "t", "g")},
        {"z6_reg": (reg, "z6", "m")})
    ws = workspace.merge_document(workspace.Workspace(),
                                  json.loads(workspace.dump_document(doc)))
    assert ws.semiring("z6").mu_table == rs.mu_table
    assert ws.module("z6_reg").act_tables == reg.act_tables


def test_expected_outputs_cover_every_job():
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    assert set(expected) == set(WORKLOADS)
    for workload in ("derived", "tables"):
        policies = {fam: {} for fam in gen.families(workload)}
        names = {job["name"] for job in gen.job_list(workload, policies)}
        assert names == set(expected[workload])
    assert set(jobs.BUNDLED_COMMANDS) == set(expected["bundled-cli"])


def test_benchmark_json_matches_the_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == \
        tracing.METRICS


def test_percentile_leaves_ten_jobs_beyond_p90():
    latencies = [float(i) for i in range(102)]
    p90 = percentile(latencies, 90)
    assert sum(x > p90 for x in latencies) >= 10
    assert percentile([3.0, 1.0], 50) == 1.0
    assert percentile([3.0, 1.0], 90) == 3.0


def test_tracer_counts_and_restores():
    originals = (intlinalg.smith_normal_form, cli.all_ideals,
                 completion.TensorGroup.__init__)
    s = core.z4_ternary()
    reg = modules.regular_bimodule(s)
    counts = []
    for _ in range(2):
        t = tracing.Tracer()
        t.install()
        try:
            # the from-import binding in cli gets the same wrapper
            assert cli.all_ideals is ideals.all_ideals is not originals[1]
            homology.tor_via_bar(s, reg, reg, 2, 0, 1)
        finally:
            t.uninstall()
        m = t.metrics()
        assert m["intlinalg.smith_normal_form.calls"] > 0
        assert m["completion.TensorGroup.relations"] > 0
        assert all(m[name] >= 0 for name in m)
        parents = {span[3] for span in t.spans}
        assert -1 in parents and all(p < len(t.spans) for p in parents)
        counts.append({k: v for k, v in m.items() if not k.endswith(".s")})
    assert counts[0] == counts[1]
    assert (intlinalg.smith_normal_form, cli.all_ideals,
            completion.TensorGroup.__init__) == originals
