"""Machine-speed calibration: a fixed block of pure-Python work that runs no
calogero code, timed between the requests of a run.

Shared machines run in fast and slow phases.  On the 2-vCPU reference VM a
fixed loop of `spectrum` calls spreads (Q3 - Q1) / median 0.13 to 0.35 over
20-second windows, in phases that last minutes, and process CPU time spreads
exactly as much as wall time, so the slowdown is contention for the core, not
scheduling.  The same phases slow this block by the same factor: the ratio of
`spectrum` time to block time, interleaved every 0.15 s in the same windows,
spreads only 0.014.  So a wall time divided by `Speed.factor()` (mean block
time over REFERENCE_BLOCK_S) is that time at the reference machine's
fast-phase speed, and it moves with the program but hardly with the machine's
phase.  The blocks must run while the requests run, not before or after a
long one: phases also change within seconds.

    python3 perfbench/calibration.py     # prints block times, to re-derive REFERENCE_BLOCK_S
"""

from __future__ import annotations

import math
import signal
import time

# fast-phase (first-decile) block time on the reference machine (2-vCPU Intel
# Xeon VM, Python 3.11.7); only the ratio between two runs matters
REFERENCE_BLOCK_S = 0.0070
ITERATIONS = 20000


def block() -> float:
    """Seconds taken by one fixed block of interpreter work: float arithmetic,
    math-module calls, function calls and a small dict, as in the package."""
    t0 = time.perf_counter()
    y, v, h = 1.0, 0.0, 1e-3
    table = {}
    for i in range(ITERATIONS):
        a = -y - 0.1 * v * math.exp(-1e-5 * i)
        v += h * a
        y += h * v
        table[i & 63] = math.lgamma(1.5 + (i & 7)) + math.atan(y)
    min(table.values())
    return time.perf_counter() - t0


class Speed:
    """Samples the machine's speed while requests run: a timer signal starts a
    calibration block every PERIOD_S seconds of wall time, inside long
    requests too, so the blocks see the same phases as the requests.  Used as
    a context manager around the timed loop; `spent` is the time taken by
    blocks so far, which the caller takes off its request times."""

    PERIOD_S = 0.1

    def __init__(self) -> None:
        self.blocks = 0
        self.spent = 0.0
        self._busy = False
        self._old_handler = None

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.spent += block()
            self.blocks += 1
        finally:
            self._busy = False

    def __enter__(self) -> "Speed":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        if not self.blocks:
            self._tick()

    def factor(self) -> float:
        """How much slower than the reference machine's fast phase: > 1 is slower."""
        return self.spent / self.blocks / REFERENCE_BLOCK_S


if __name__ == "__main__":
    import statistics

    times = sorted(block() for _ in range(300))
    print(f"block: first decile {statistics.quantiles(times, n=10)[0]:.5f} s, median {statistics.median(times):.5f} s")
