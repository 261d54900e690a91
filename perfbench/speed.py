"""Speed probe: how fast the host runs a fixed piece of work right now.

On a few vCPUs of a shared host, the speed of one core drifts with the
neighbours' load: a fixed loop takes up to 40% longer for minutes at a time.
That drift moves every timing of a run alike, so run.py probes the speed
between repetitions and reports times scaled to a fixed reference speed:

    scaled = measured * REFERENCE_S / median(probe times of the run)

The probe is fixed work that does not touch swmix: an interpreted loop over
ints and a dict, and numpy sorting, counting and gathering on arrays drawn
once from a fixed seed, about half the time each, like the sweeps, which mix
interpreted loops with numpy kernels.  A change to swmix cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the 2-vCPU Intel Xeon VM the benchmark was tuned on;
# a scaled time is what the same work would take at that speed.
REFERENCE_S = 0.040

_rng = np.random.default_rng(20170708)
_KEYS = _rng.random(200_000)
_INDEX = _rng.integers(0, 40_000, size=400_000)


def probe() -> float:
    """Seconds that one pass of the fixed work takes now."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(90_000):
        total += (i * i) % 7
        table[i & 1023] = total
    np.argsort(_KEYS)
    counts = np.bincount(_INDEX, minlength=40_000)
    np.unique(np.repeat(_INDEX[:40_000], counts % 4))
    return time.perf_counter() - start


PROBES_PER_SAMPLE = 3


class SpeedLog:
    """Probe times of one run; `factor` scales a measured time to reference speed."""

    def __init__(self):
        self.times = []
        probe()  # warm-up: first-touch of the arrays and numpy's lazy set-up

    def sample(self) -> None:
        self.times.extend(probe() for _ in range(PROBES_PER_SAMPLE))

    def median(self) -> float:
        return statistics.median(self.times)

    def factor(self) -> float:
        return REFERENCE_S / self.median()
