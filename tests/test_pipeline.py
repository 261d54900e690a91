"""The one sweep pipeline: golden records, the tracing contract, config plumbing.

Golden digests pin the bytes emitted for one tiny config per experiment
(manifest included, so each worker count has its own digest).  The mix
experiment pins only its integer columns, because `gap` depends on the BLAS
build.
"""

import dataclasses
import functools
import hashlib
import importlib.util
import pickle
from pathlib import Path

import pytest

import swmix
from swmix import SweepConfig, bfs, emit, expansion, harness, run_sweep

GOLDEN_CONFIGS = {
    "diameter": dict(n_values=(3, 5), r_values=(1.0, 3.0), num_seeds=2),
    "routing": dict(n_values=(4, 6), r_values=(0.0, 2.0), num_seeds=2, pairs=20),
    "wq": dict(n_values=(4,), r_values=(2.0,), num_seeds=3, box_side=2, q_max=2),
    "expansion": dict(n_values=(5,), r_values=(1.0, 3.0), num_seeds=2, random_sets=10),
    "conductance": dict(n_values=(4, 6), r_values=(2.0, 3.0), num_seeds=2, include_sweep_min=False),
    "mix": dict(n_values=(3, 4), r_values=(1.0, 4.0), num_seeds=2),
}

GOLDEN_SHA256 = {
    ("diameter", 1): "5d3d6e5783100244d1a26a29b5990961c885e30593949e7dc6f645aee33e24a4",
    ("diameter", 3): "e59057114c750bf281a6b8002c6c8af00c475b5ef42a87e86d7dbb76d9f6a232",
    ("routing", 1): "0d2534e5c2c5c51a3de94f91f0b6bc587a21b886a83b2c6ee0cf76fec9a5be36",
    ("routing", 3): "a0361618b8aa727d5cec04e44c219a563bd4e4b2e3c48b6eb39c2e295e56953d",
    ("wq", 1): "4af610633a02550cd9abdf45f54b90850e8d0d08a8e846d2663cd14a6a4d958c",
    ("wq", 3): "bce3f95047c177669b97dd203befacc42e4808127994064e7d5061d2e46760ae",
    ("expansion", 1): "76faaa6b78506679fe79c17e690a7c4809c19cdd209c8bf3cdada815c9f5ce52",
    ("expansion", 3): "5cdc1b0f51592a6134769f78cbf8177179e7484d5789849777a55fe265c0fdda",
    ("conductance", 1): "a126ec3cce2eeaf7ac2cacb3f754bc1054b428f7574dd07200fb49a681ce2cec",
    ("conductance", 3): "fa840297b68c58194f0e9c552d1df4a34aab45aabeceaec964ed2d0f3d41204e",
}

# (t_mix, t_mix_exact, diameter, edge_count) per record, in emission order
GOLDEN_MIX_INTEGERS = [
    (11, 1, 5, 131), (12, 1, 5, 116), (14, 1, 6, 118), (13, 1, 5, 120),
    (16, 1, 5, 206), (15, 1, 5, 207), (18, 1, 6, 200), (18, 1, 6, 207),
]

# The same tuples for one cell per r above the exact-start cap (n = 10, N = 441),
# where starts="auto" takes the heuristic start set.
HEURISTIC_MIX_CONFIG = dict(n_values=(10,), r_values=(1.0, 4.0), num_seeds=1)
GOLDEN_HEURISTIC_MIX_INTEGERS = [(34, 0, 8, 1102), (77, 0, 12, 1097)]


def golden_config(experiment, workers):
    return SweepConfig(experiment=experiment, workers=workers, **GOLDEN_CONFIGS[experiment])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("experiment", sorted(GOLDEN_CONFIGS))
def test_golden_records(experiment, workers, tmp_path, monkeypatch):
    monkeypatch.delenv(harness.WORKERS_ENV_VAR, raising=False)
    cfg = golden_config(experiment, workers)
    records = run_sweep(cfg)
    if experiment == "mix":
        assert _mix_integers(records) == GOLDEN_MIX_INTEGERS
        return
    path = tmp_path / "records.csv"
    emit(records, "csv", path, cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[(experiment, workers)]


def _mix_integers(records):
    return [(rec.values["t_mix"], rec.values["t_mix_exact"], rec.values["diameter"], rec.edge_count)
            for rec in records]


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_heuristic_start_mix_records(workers, monkeypatch):
    monkeypatch.delenv(harness.WORKERS_ENV_VAR, raising=False)
    cfg = SweepConfig(experiment="mix", workers=workers, **HEURISTIC_MIX_CONFIG)
    assert cfg.starts == "auto"
    assert _mix_integers(run_sweep(cfg)) == GOLDEN_HEURISTIC_MIX_INTEGERS


def test_sweep_cell_pickles():
    # a process pool ships the cell by pickle; the unpickled cell must give the same record
    cfg = golden_config("diameter", 1)
    cell = functools.partial(harness._cell, cfg)
    copy = pickle.loads(pickle.dumps(cell))
    assert copy.func is harness._cell and copy.args == (cfg,)
    assert copy(5, 3.0, 17) == cell(5, 3.0, 17)


def test_every_experiment_has_a_golden_config():
    assert set(GOLDEN_CONFIGS) == set(harness.EXPERIMENTS)


# Names in harness that the layer tracer rebinds, besides expansion.diameter
# and bfs.double_sweep.
HARNESS_TRACED = ("sample_graph", "mixing_time", "second_eigenpair", "greedy_route")

# Calls per cell that run_sweep must make through each traced name; absent
# names must be called zero times.  One diameter call answers both bounds.
TRACED_CALLS_PER_CELL = {
    "mix": {"sample_graph": 1, "mixing_time": 1, "second_eigenpair": 1, "diameter": 1, "double_sweep": 1},
    "diameter": {"sample_graph": 1, "diameter": 1, "double_sweep": 1},
    "routing": {"sample_graph": 1, "greedy_route": 20},
    "conductance": {"sample_graph": 1},
    "wq": {"sample_graph": 1},
    "expansion": {"sample_graph": 1},
}


@pytest.mark.parametrize("experiment", sorted(TRACED_CALLS_PER_CELL))
def test_run_sweep_calls_traced_names_at_call_time(experiment, monkeypatch):
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in HARNESS_TRACED:
        counting(harness, name)
    counting(expansion, "diameter")
    counting(bfs, "double_sweep")

    run_grid = harness._run_grid

    def counting_run_grid(cfg, cell):
        calls.append("_run_grid")

        def counted_cell(n, r, seed):
            calls.append("cell")
            return cell(n, r, seed)

        return run_grid(cfg, counted_cell)

    monkeypatch.setattr(harness, "_run_grid", counting_run_grid)

    cfg = golden_config(experiment, 2)
    records = run_sweep(cfg)
    cells = len(records)
    assert calls.count("_run_grid") == 1
    assert calls.count("cell") == cells
    expected = TRACED_CALLS_PER_CELL[experiment]
    for name in (*HARNESS_TRACED, "diameter", "double_sweep"):
        assert calls.count(name) == expected.get(name, 0) * cells, name


def test_pilot_script_imports():
    path = Path(__file__).parent / "data" / "run_pilot.py"
    spec = importlib.util.spec_from_file_location("run_pilot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_package_exports_one_runner():
    assert [name for name in swmix.__all__ if name.startswith("run_")] == ["run_sweep"]


def test_config_parsers_cover_every_field():
    assert set(harness._PARSERS) == {f.name for f in dataclasses.fields(SweepConfig)}
