"""The ngamma benchmark: one workload per fresh, single-threaded process.

    python3 perfbench/run.py --workload derived --seed 0 --seconds 5 --trace 0

Workloads (perfbench/README.md records why each exists):

  derived      ext depth 2 over ternary Z/12, tor depth 3 over ternary Z/16
               and ext depth 2 over a seed-relabelled Z/6 (Smith normal
               forms and relation projection)
  tables       ideals, spectrum and linearization on M2(F2)^3, M2(B)^2 and
               the Gamma-scaled Z/4 (plain and seed-relabelled), and the
               positional tensor of the last (exhaustive validation and
               enumeration)
  bundled-cli  the README command list through ngamma.cli.main on the
               packaged workspace, in a seed-shuffled order per round
  all          the three above, each in its own child process

A run writes its inputs from --seed before any timing and loads them (set-up).
It then repeats the workload's job list in a closed loop with one client
until --seconds have passed and the workload's minimum number of rounds is
done; a round is never cut short.  The other set-up samples run in child
processes between rounds.  Times are scaled to a reference speed measured
around and during every timed span (load.SpeedSampler).  Every output is
checked against perfbench/expected.json.  The known-failure probes run once
at the end and are reported, not gated.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics of perfbench/tracing.py with --trace 1.  The
exit status is 1 when any job failed or returned a wrong output, and 2 when
the inputs or the engine sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from load import REFERENCE_S, SpeedSampler, calibrated_load, load  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402

# name -> (minimum rounds, set-up samples).  Rounds are whole job lists;
# wall_s is their median.  Six rounds of the 17 bundled commands leave at
# least ten jobs beyond the 90th percentile; a derived round takes about
# 15 s to 20 s, so one is all the run time allows.
WORKLOADS = {
    "derived": (1, 3),
    "tables": (3, 3),
    "bundled-cli": (6, 5),
}
GENERATED = ("derived", "tables")

# (name, unit) of the end-to-end metrics, as listed in BENCHMARK.json.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

clock = time.perf_counter


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _python(args, timeout):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout,
                          check=True).stdout


class Tally:
    """Outcome of every job a run attempts."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def run_round(self, job_list) -> float:
        """Run one round of (name, call) pairs; return its wall time."""
        t0 = clock()
        for name, call in job_list:
            start = clock()
            try:
                got = call()
            except Exception as e:  # a failed job is counted, not fatal
                got = f"{type(e).__name__}: {e}"
            self.latencies.append(clock() - start)
            self.attempted += 1
            want = self.expected.get(name)
            if got != want:
                self.failed += 1
                self.mismatches.append(f"{name}: got {got!r}, expected {want!r}")
        return clock() - t0

    def measure(self, rounds, min_rounds: int, seconds: float, between=()):
        """Closed loop: whole rounds until both limits are reached.

        Returns (wall time, mean reference-kernel time) per round.  The
        calls in ``between`` run one after each round, outside the rounds'
        timing, and any left over at the end.
        """
        samples, pending = [], list(between)
        t0 = clock()
        while len(samples) < min_rounds or clock() - t0 < seconds:
            with SpeedSampler() as speed:
                wall = self.run_round(next(rounds))
            samples.append((wall - speed.spent, speed.ref))
            if pending:
                pending.pop(0)()
        for call in pending:
            call()
        return samples


def scaled_median(samples) -> tuple[float, float]:
    """Median of (seconds, kernel time) samples scaled to the nominal kernel
    time, and the plain median of the seconds."""
    return (statistics.median(t * REFERENCE_S / ref for t, ref in samples),
            statistics.median(t for t, _ in samples))


def _job_rounds(workload, seed, ws, spec, main=None):
    """Endless rounds of (name, call) for the workload."""
    import jobs  # imported after set-up: it imports the engine
    if workload in GENERATED:
        job_list = [(job["name"], partial(jobs.run_generated, ws, job)) for job in spec]
        while True:
            yield job_list
    for order in jobs.command_rounds(seed):
        yield [(cmd, partial(jobs.run_command, cmd,
                             main(cmd.split()[0]) if main else None))
               for cmd in order]


def _probes() -> list[str]:
    try:
        results = json.loads(_python([HERE / "probes.py"], PROBE_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        return [f"probe: stopped after {PROBE_TIMEOUT_S} s"]
    return [f"probe {r['name']}: {r['outcome']} ({r['seconds']:.3f} s)"
            for r in results]


def run_workload(workload, seed, seconds, trace, work) -> tuple[dict, Tally, list[str]]:
    min_rounds, setup_samples = WORKLOADS[workload]
    files, spec = [], None
    if workload in GENERATED:
        _python([HERE / "gen.py", "--workload", workload, "--seed", seed,
                 "--out", work], CHILD_TIMEOUT_S)
        files = [str(work / "workspace.json")]
        spec = json.loads((work / "jobs.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    tally = Tally(expected[workload])
    lines = []

    if not trace:
        ws, elapsed, ref = calibrated_load(workload, files)
        setups = [(elapsed, ref)]

        def setup_sample():
            out = _python([HERE / "load.py", workload, *files], CHILD_TIMEOUT_S)
            setups.append(tuple(map(float, out.split())))

        # The other set-up samples run between rounds, so that both kinds of
        # sample spread over the whole run and a burst of machine noise
        # reaches fewer of them.
        walls = tally.measure(_job_rounds(workload, seed, ws, spec), min_rounds,
                              seconds, [setup_sample] * (setup_samples - 1))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "wall_s": (*scaled_median(walls), len(walls)),
            "setup_s": (*scaled_median(setups), len(setups)),
            "peak_rss_mb": (rss, rss, 1),
        }
        metrics = {}
        for name, unit in END_TO_END:
            value, measured, n = values[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<12} {value:12.6f} {unit:<3} (n={n}; "
                         f"as timed {measured:.6f})")
        speed = statistics.median(REFERENCE_S / ref for _, ref in walls + setups)
        lines.append(f"  machine speed {speed:.4f} of nominal (reference kernel)")
        # Per-job latency is printed, not gated: only bundled-cli has enough
        # comparable jobs for a steady percentile.
        for p in (50, 90):
            lines.append(f"  {f'job_p{p}_s':<12} {percentile(tally.latencies, p):12.6f} "
                         f"s   (n={len(tally.latencies)})")
    else:
        import ngamma.cli
        tracer = Tracer()
        tracer.install()
        ws, _ = load(workload, files)
        tracer.uninstall()
        untraced = statistics.median(
            wall for wall, _ in
            tally.measure(_job_rounds(workload, seed, ws, spec), min_rounds, seconds))
        tracer.install()
        traced = tally.run_round(next(_job_rounds(
            workload, seed, ws, spec,
            main=lambda cmd: tracer.wrap(f"cli.{cmd}", ngamma.cli.main))))
        tracer.uninstall()
        values = tracer.metrics()
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = traced - untraced
        out = ROOT / ".perfbench_trace"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{workload}-seed{seed}.jsonl")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in METRICS.items()}
        lines += [f"  {name:<50} {values[name]:>16.6f} {unit}"
                  for name, (unit, _) in METRICS.items()]
        lines.append(f"  untraced round {untraced:.6f} s (median), traced {traced:.6f} s")
    frac = tally.failed / tally.attempted
    lines.append(f"  {'fail_frac':<12} {frac:12.6f} ({tally.failed}/{tally.attempted} jobs)")
    return metrics, tally, lines


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ngamma" / "__init__.py").is_file():
        sys.stderr.write(f"error: no engine sources under {ROOT / 'src'}\n")
        return 2
    if args.workload == "all":
        return run_all(args)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        metrics, tally, lines = run_workload(args.workload, args.seed, args.seconds,
                                             args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    print("\n".join(_probes()))
    for mismatch in tally.mismatches:
        print(f"MISMATCH {mismatch}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
