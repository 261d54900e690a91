"""In-memory span tracer for the benchmark's traced runs.

`instrument` replaces the public swmix functions that a sweep calls with
wrappers that record one span per call: id, name, parent id, cell id
(n, r, seed), wall start and end from `perf_counter`, and busy time from
`thread_time`.  A function is replaced in every swmix module that binds it,
so `from .walk import mixing_time` call sites are traced too.  Nothing in
the package is edited; the wrappers live only in the traced process.

Some wrappers also record counts at the same boundary (hops, BFS sources,
TV evaluations, the eigen residual).  Counts are computed after the span
has ended: they do not inflate its own times, only its parent's.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np


def _graph_size(args, kwargs, result):
    return {"num_vertices": int(args[0].num_vertices)}


def _sample_graph(args, kwargs, result):
    return {"long_range_edges": int(len(result.long_range_edges))}


def _mixing_time(args, kwargs, result):
    return {
        "tv_evals": len(result.curve),
        "start_columns": int(result.start_vertices.size),
        "t_mix": int(result.t_mix),
    }


def _second_eigenpair(args, kwargs, result):
    # ||S x - lambda x|| on the symmetrised lazy kernel S = D^-1/2 P D^1/2.
    graph = args[0]
    lam, x = result
    d = 1.0 / np.sqrt(graph.degrees.astype(np.float64))
    sx = 0.5 * x + 0.5 * d * (graph.adjacency @ (d * x))
    return {"residual": float(np.linalg.norm(sx - lam * x))}


def _eccentricities(args, kwargs, result):
    return {"sources": int(len(result))}


def _greedy_route(args, kwargs, result):
    return {"hops": int(result.hops)}


# Traced functions: "module.function" (under swmix) -> count recorder.
TRACED = {
    "cli.main": None,
    "harness.run_sweep": None,
    "harness.emit": None,
    "harness.greedy_route": _greedy_route,
    "generate.sample_graph": _sample_graph,
    "walk.mixing_time": _mixing_time,
    "walk.second_eigenpair": _second_eigenpair,
    "expansion.diameter": None,
    "bfs.exact_diameter": _graph_size,
    "bfs.double_sweep": None,
    "bfs.bfs_distances": None,
    "bfs.eccentricities": _eccentricities,
    "torus.index_to_coord": None,
    "torus.torus_distance": None,
}

# The harness runs each (n, r, seed) cell through this private helper; its
# wrapper opens the "harness.cell" span that carries the cell id.
CELL_RUNNER = "harness._run_grid"


SPAN_FIELDS = ("id", "name", "parent", "cell", "start", "end", "busy", "counts")


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []  # lists of SPAN_FIELDS
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, cell) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def call(self, name, fn, args, kwargs, counter=None, parent=None, cell=None):
        stack = self._stack()
        top_id, top_cell = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        parent = top_id if parent is None else parent
        cell = top_cell if cell is None else cell
        stack.append((span_id, cell))
        busy0 = time.thread_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            busy = time.thread_time() - busy0
            stack.pop()
            span = [span_id, name, parent, cell, start, end, busy, None]
            self.spans.append(span)
        if counter is not None:
            span[7] = counter(args, kwargs, result)
        return result

    def write_jsonl(self, path):
        """One JSON array per span, after a first line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(original, replacement):
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "swmix" or mod_name.startswith("swmix."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Route every call of the TRACED functions and the cell runner through tracer."""
    import swmix  # noqa: F401  (loads every submodule, so every binding is found)

    for qualname, counter in TRACED.items():
        mod_name, func_name = qualname.split(".")
        original = getattr(sys.modules["swmix." + mod_name], func_name)

        def wrapper(*args, _fn=original, _name=qualname, _counter=counter, **kwargs):
            return tracer.call(_name, _fn, args, kwargs, _counter)

        _rebind(original, functools.update_wrapper(wrapper, original))

    mod_name, func_name = CELL_RUNNER.split(".")
    run_grid = getattr(sys.modules["swmix." + mod_name], func_name)

    def traced_run_grid(cfg, cell):
        parent, _ = tracer.current()

        def traced_cell(n, r, seed):
            return tracer.call("harness.cell", cell, (n, r, seed), {}, parent=parent, cell=(n, r, seed))

        return run_grid(cfg, traced_cell)

    _rebind(run_grid, functools.update_wrapper(traced_run_grid, run_grid))


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Per-name totals: calls, wall_s, busy_s, self_s and summed counts.

    Self time is a span's wall time minus the part of its interval that its
    child spans cover.
    """
    children = {}
    for span in spans:
        children.setdefault(span[2], []).append((span[4], span[5]))
    out = {}
    for span_id, name, _, _, start, end, busy, counts in spans:
        agg = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
        wall = end - start
        agg["calls"] += 1
        agg["wall_s"] += wall
        agg["busy_s"] += busy
        agg["self_s"] += wall - _covered(children.get(span_id, ()))
        if counts:
            for key, value in counts.items():
                if key == "residual":
                    agg["counts"][key] = max(agg["counts"].get(key, 0.0), value)
                else:
                    agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out
