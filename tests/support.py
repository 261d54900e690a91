"""Shared helpers for the test suite and the pilot calibration script."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np

CALIBRATION_PATH = Path(__file__).parent / "data" / "pilot_calibration.json"

# Scalars that the integer rule rejects with TypeError rather than truncating or reading as 0 and 1.
NON_INTEGERS = (True, 2.5, np.float64(3.0))


def load_calibration() -> dict:
    with open(CALIBRATION_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def traced(call):
    """(call(), held, peak): what call leaves allocated and its peak, in bytes above the traced memory at the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, held, peak


def random_connected_set(graph, rng, size):
    """Random connected vertex set grown by frontier sampling.

    Starts at a uniform vertex and repeatedly absorbs a uniform frontier
    vertex; the result is connected by construction and has the requested
    size unless the graph is exhausted first.
    """
    start = int(rng.integers(graph.num_vertices))
    members = {start}
    frontier = {int(w) for w in graph.neighbours(start)}
    while len(members) < size and frontier:
        v = int(rng.choice(sorted(frontier)))
        members.add(v)
        frontier.discard(v)
        frontier.update(int(w) for w in graph.neighbours(v) if int(w) not in members)
    return np.fromiter(sorted(members), dtype=np.int64, count=len(members))
