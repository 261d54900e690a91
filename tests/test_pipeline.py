"""The one sweep pipeline: golden records, the tracing contract, config plumbing.

Golden digests pin the bytes emitted for one tiny config per experiment,
manifest included; the manifest leaves out the worker count, so one digest
holds at every worker count.  The mix experiment pins only its integer
columns, because `gap` depends on the BLAS build.
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
    "diameter": "f49238720522020cfd49872554e0dd61bdb5593c1859416198f12f39f5e75099",
    "routing": "8cd9b52afcfbe7898dc136f2169197223550f53b443ef127328ea3f3fcccef95",
    "wq": "1d88737ee49f90165129ca2d2829f60572a1370bed7679bc7575a2686736cedb",
    "expansion": "33e1e1e2520f615068919e3a20dceafe61d030325f337d4d1dd4351244c37900",
    "conductance": "38da8336fd6230981ed4d151feea92f022d006d9facdcb68e2a6f5e3ad2ee89d",
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
    emit(records, path, cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[experiment]


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
