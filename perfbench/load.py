"""Set-up of one workload, and the reference kernel timings are scaled by.

``setup_s`` is the time ``load`` takes in a fresh interpreter.  The
benchmark process measures it once for the workspace its jobs use and runs
this file as a child for the other samples:

    python3 perfbench/load.py derived .perfbench_work/.../workspace.json

prints the elapsed seconds and the reference kernel's mean time over them.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The reference kernel's nominal time.  Reported timings are measured times
# multiplied by REFERENCE_S / (the kernel's mean time around and during them).
REFERENCE_S = 0.03
# How often the kernel runs while a timed span is in progress.
TICK_S = 1.0


def reference_kernel() -> float:
    """Seconds one fixed pure-Python kernel takes now.

    The kernel does the kind of work the engine does (tuple building, list
    indexing, dict stores, integer arithmetic) and calls nothing of the
    engine, so its time follows only the machine's current speed, which on
    a shared host drifts by a third within minutes.
    """
    t0 = time.perf_counter()
    table = list(range(256))
    seen = {}
    acc = 0
    for i in range(80000):
        key = (i & 255, (i * 7) & 255)
        acc = (acc + table[key[0]] * table[key[1]]) % 1000003
        seen[key] = acc
    return time.perf_counter() - t0


def load(workload: str, files: list[str]):
    """Import every engine module and load the inputs with full validation.

    Returns the workspace and the elapsed seconds.  ``bundled-cli`` loads the
    packaged workspace, as every CLI call without ``-w`` does.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import ngamma.cli  # noqa: F401  (imports every engine module)
    if workload == "bundled-cli":
        from ngamma.bundled import bundled_workspace
        ws = bundled_workspace()
    else:
        from ngamma.workspace import parse_workspace
        ws = parse_workspace(files)
    return ws, time.perf_counter() - t0


class SpeedSampler:
    """Reference-kernel times taken around a timed span and once a second
    during it, from a SIGALRM handler in this (single) thread.

    ``spent`` is the kernel time that fell inside the span, to be taken off
    its measured time; ``ref`` is the mean kernel time, which is
    proportional to the mean slowness of the machine over the span.
    """

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = reference_kernel()
        self.times.append(t)
        self.spent += t

    def __enter__(self):
        self.times.append(reference_kernel())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.times.append(reference_kernel())

    @property
    def ref(self) -> float:
        return statistics.fmean(self.times)


def calibrated_load(workload: str, files: list[str]):
    """``load`` under a SpeedSampler.

    Returns the workspace, the elapsed seconds without the kernel's ticks and
    the kernel's mean time.
    """
    with SpeedSampler() as speed:
        ws, elapsed = load(workload, files)
    return ws, elapsed - speed.spent, speed.ref


if __name__ == "__main__":
    _, elapsed, ref = calibrated_load(sys.argv[1], sys.argv[2:])
    print(repr(elapsed), repr(ref))
