import argparse
import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

import numpy as np
import oracles
import pytest
from support import NON_INTEGERS

import swmix
from swmix import (
    CapacityError,
    ExperimentRecord,
    ModelParams,
    SweepConfig,
    __version__,
    ball_set,
    conductance,
    config_digest,
    derive_seed,
    emit,
    greedy_route,
    load_graph,
    load_records,
    load_sweep_config,
    relaxation_bounds,
    run_sweep,
    sample_graph,
    torus_distance,
    torus_only_graph,
)
from swmix import walk
from swmix.generate import SmallWorldGraph
from swmix.cli import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli_sweep(tmp_path, out, **keys):
    """Exit code of `swmix sweep --config FILE --out out` on a config file of the given keys."""
    path = tmp_path / "cell.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    return main(["sweep", "--config", str(path), "--out", str(out)])


def test_derive_seed_frozen_values():
    assert derive_seed(0, 8, 1.0, 0) == 6389110663107369929
    assert derive_seed(0, 8, 1.0, 1) == 3149315652607656735
    assert derive_seed(7, 3, 2.5, 2) == 15487239347833027302


def test_derive_seed_matches_sha256():
    for base, n, r, k in [(0, 8, 1.0, 0), (3, 5, 0.0, 7), (12, 100, 2.5, 3)]:
        msg = f"{base}:{n}:{float(r).hex()}:{k}".encode()
        want = int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")
        assert derive_seed(base, n, r, k) == want


def test_derive_seed_sensitivity():
    base = derive_seed(0, 8, 1.0, 0)
    assert derive_seed(1, 8, 1.0, 0) != base
    assert derive_seed(0, 9, 1.0, 0) != base
    assert derive_seed(0, 8, 1.5, 0) != base
    assert derive_seed(0, 8, 1.0, 1) != base


def test_derive_seed_rejects_non_integers():
    # 2.5 and 3.7 are rejected, not truncated to 2 and 3, and True is not 1
    for bad in NON_INTEGERS:
        with pytest.raises(TypeError, match="seed base"):
            derive_seed(bad, 3, 1.0, 0)
        with pytest.raises(TypeError, match="replicate"):
            derive_seed(2, 3, 1.0, bad)
    with pytest.raises(TypeError, match="torus parameter n"):
        derive_seed(2, 3.7, 1.0, 0)
    with pytest.raises(ValueError, match="torus parameter n"):
        derive_seed(2, 0, 1.0, 0)
    with pytest.raises(TypeError):
        derive_seed(2, 3, 1.0, 0.9)
    with pytest.raises(ValueError, match="replicate"):
        derive_seed(2, 3, 1.0, -1)
    with pytest.raises(ValueError):
        derive_seed(-1, 3, 1.0, 0)
    # numpy integers hash as the Python ints they equal
    assert derive_seed(np.uint64(7), np.int32(3), 2.5, np.int64(2)) == derive_seed(7, 3, 2.5, 2)


def test_sweep_config_validation():
    good = dict(experiment="mix", n_values=(3,), r_values=(1.0,), num_seeds=1)
    SweepConfig(**good)
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "experiment": "nope"})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "n_values": ()})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "n_values": (0,)})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "r_values": (float("nan"),)})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "r_values": (-1.0,)})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "seeds": (5,)})  # both seeds and num_seeds
    with pytest.raises(ValueError, match="nonempty"):
        SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), seeds=())
    with pytest.raises(ValueError):
        SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), seeds=(2**64,), num_seeds=0)
    with pytest.raises(ValueError):
        SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), num_seeds=0)
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "seed_base": -1})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "starts": "exact"})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "workers": 0})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "ball_frac": 1.0})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "pairs": 0})
    # make_box_partition's rule for every n, so the n = 1 cell cannot fail after the n = 4 cell ran
    for experiment in ("wq", "expansion"):
        with pytest.raises(ValueError, match=r"box_side 2 out of range \[1, 2\)"):
            SweepConfig(**{**good, "experiment": experiment, "n_values": (4, 1), "box_side": 2})
    SweepConfig(**{**good, "n_values": (4, 1), "box_side": 2})  # mix partitions nothing
    for bad in NON_INTEGERS:
        for name in ("num_seeds", "workers", "box_side", "q_max", "pairs", "random_sets"):
            with pytest.raises(TypeError, match=name):
                SweepConfig(**{**good, name: bad})
        with pytest.raises(TypeError, match="torus parameter n"):
            SweepConfig(**{**good, "n_values": (3, bad)})


def test_exponent_rule_is_shared():
    # bools and strings are not exponents, wherever r enters
    for bad in (True, np.True_, "1.5", "2", None):
        with pytest.raises(TypeError, match="r must be a real number"):
            ModelParams(n=2, r=bad, seed=0)
        with pytest.raises(TypeError, match="r must be a real number"):
            derive_seed(0, 8, bad, 0)
        with pytest.raises(TypeError, match="r_values entry"):
            SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0, bad), num_seeds=1)
    for bad in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            derive_seed(0, 8, bad, 0)
    for good in (2, 2.0, np.float32(2.0), np.int64(2), np.uint8(2)):
        assert ModelParams(n=2, r=good, seed=0).r == 2.0
        assert derive_seed(0, 8, good, 0) == derive_seed(0, 8, 2.0, 0)
        cfg = SweepConfig(experiment="mix", n_values=(3,), r_values=(good,), num_seeds=1)
        assert cfg.r_values == (2.0,) and type(cfg.r_values[0]) is float


def test_include_sweep_min_must_be_a_bool():
    good = dict(experiment="conductance", n_values=(3,), r_values=(1.0,), num_seeds=1)
    for bad in ("false", "False", 0, 1, None):
        with pytest.raises(TypeError, match="include_sweep_min"):
            SweepConfig(**good, include_sweep_min=bad)
    for flag in (False, True, np.False_, np.True_):
        cfg = SweepConfig(**good, include_sweep_min=flag)
        assert cfg.include_sweep_min is bool(flag)
    assert config_digest(SweepConfig(**good, include_sweep_min=np.False_)) == config_digest(
        SweepConfig(**good, include_sweep_min=False)
    )


def test_sweep_config_rejects_fractional_seeds():
    # 2.5 is rejected, not truncated to seed 2, and True is not seed 1
    for bad in NON_INTEGERS:
        for field in (dict(seeds=(bad,)), dict(seeds=(1, bad)), dict(num_seeds=1, seed_base=bad)):
            with pytest.raises(TypeError, match="seed"):
                SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), **field)
    cfg = SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), seeds=(np.uint64(2**64 - 1),))
    assert cfg.seeds == (2**64 - 1,) and type(cfg.seeds[0]) is int


def test_sweep_config_rejects_unsampleable_cells(tmp_path, monkeypatch, capsys):
    # r = inf has no sampling normalizer, and at r = 2000 every d^(-r) underflows
    good = dict(experiment="mix", n_values=(8, 48), num_seeds=6)
    for r_values, match in (((1.0, float("inf")), "finite exponent"), ((2000.0,), "underflowed")):
        with pytest.raises(ValueError, match=match):
            SweepConfig(**good, r_values=r_values)
    # the CLI refuses before any cell samples a graph
    sampled = []
    monkeypatch.setattr(swmix.harness, "sample_graph", lambda params: sampled.append(params))
    out = tmp_path / "inf.csv"
    assert run_cli_sweep(tmp_path, out, experiment="mix", n_values=4, r_values="inf", num_seeds=1) == 2
    assert "finite exponent" in capsys.readouterr().err
    assert sampled == [] and not out.exists()


def test_negative_zero_r_names_the_cell_r_zero(tmp_path):
    assert derive_seed(0, 3, -0.0, 0) == derive_seed(0, 3, 0.0, 0) == 10916582310131346783
    assert math.copysign(1.0, ModelParams(n=3, r=-0.0, seed=0).r) == 1.0
    texts = []
    for spelling in ("-0.0", "0.0"):
        out = tmp_path / f"r{spelling}.csv"
        assert run_cli_sweep(tmp_path, out, experiment="diameter", n_values=3, r_values=spelling, num_seeds=1) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert texts[0].splitlines()[1].startswith("diameter,3,0,10916582310131346783,")


def test_instance_seeds():
    cfg = SweepConfig(experiment="mix", n_values=(3, 5), r_values=(1.0,), num_seeds=3, seed_base=4)
    assert cfg.instance_seeds(3, 1.0) == tuple(derive_seed(4, 3, 1.0, k) for k in range(3))
    assert cfg.instance_seeds(5, 1.0) != cfg.instance_seeds(3, 1.0)
    explicit = SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), seeds=(9, 11))
    assert explicit.instance_seeds(3, 1.0) == (9, 11)


def test_config_digest_distinguishes_fields():
    cfg = SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), num_seeds=2)
    same = SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), num_seeds=2)
    assert config_digest(cfg) == config_digest(same)
    assert len(config_digest(cfg)) == 64
    other = SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), num_seeds=2, seed_base=1)
    assert config_digest(other) != config_digest(cfg)
    other = SweepConfig(experiment="mix", n_values=(3,), r_values=(1.5,), num_seeds=2)
    assert config_digest(other) != config_digest(cfg)
    # no record depends on the worker count, so neither does the manifest
    for workers in (1, 2, 8):
        other = SweepConfig(experiment="mix", n_values=(3,), r_values=(1.0,), num_seeds=2, workers=workers)
        assert config_digest(other) == config_digest(cfg)


def small_mix_config(**over):
    base = dict(experiment="mix", n_values=(3,), r_values=(2.0,), num_seeds=2, starts="all")
    base.update(over)
    return SweepConfig(**base)


def test_mixing_sweep_records():
    cfg = small_mix_config()
    records = run_sweep(cfg)
    assert len(records) == 2
    for rec in records:
        assert rec.experiment == "mix"
        assert rec.n == 3 and rec.r == 2.0
        assert rec.num_vertices == 49
        assert rec.version == __version__
        assert rec.values["t_mix_exact"] == 1
        assert rec.values["t_mix"] >= 1
        assert 0.0 < rec.values["gap"] < 1.0
        assert rec.values["diameter"] >= 2
        assert rec.values["t_mix"] >= rec.values["diameter"] / 3
        lo, hi = relaxation_bounds(rec.values["gap"], rec.values["pi_min"])
        assert lo <= rec.values["t_mix"] <= hi


def test_mixing_sweep_capacity_for_exact_starts():
    with pytest.raises(CapacityError, match="n=20"):
        small_mix_config(n_values=(20,))


def test_records_sorted_and_deterministic():
    cfg = small_mix_config(n_values=(4, 3), r_values=(2.0, 1.0), workers=4)
    records = run_sweep(cfg)
    keys = [(rec.n, rec.r, rec.seed) for rec in records]
    assert keys == sorted(keys)
    assert run_sweep(cfg) == records


def test_workers_env_override(monkeypatch):
    cfg = small_mix_config()
    records = run_sweep(cfg)
    monkeypatch.setenv("SWMIX_WORKERS", "1")
    assert run_sweep(cfg) == records
    for bad in ("0", "two", "1.5"):
        monkeypatch.setenv("SWMIX_WORKERS", bad)
        with pytest.raises(ValueError, match=f"SWMIX_WORKERS must be a positive integer, got '{bad}'"):
            run_sweep(cfg)


def test_emit_csv_round_trip(tmp_path):
    cfg = small_mix_config()
    records = run_sweep(cfg)
    path = tmp_path / "mix.csv"
    emit(records, path, cfg)
    loaded, manifest = load_records(path)
    assert loaded == records
    assert manifest["config_sha256"] == config_digest(cfg)
    assert manifest["seed_base"] == cfg.seed_base
    text = path.read_text()
    assert text.splitlines()[0].startswith("experiment,n,r,seed,")
    assert text.splitlines()[-1].startswith("# manifest ")


def test_emit_json_round_trip(tmp_path):
    cfg = small_mix_config()
    records = run_sweep(cfg)
    path = tmp_path / "mix.json"
    emit(records, path, cfg)
    loaded, manifest = load_records(path)
    assert loaded == records
    assert manifest["config_sha256"] == config_digest(cfg)


def test_emit_byte_identical_across_runs(tmp_path, monkeypatch):
    # whole files, manifest included, at every worker count
    monkeypatch.delenv(swmix.harness.WORKERS_ENV_VAR, raising=False)
    for suffix in ("csv", "json"):
        files = set()
        for k, workers in enumerate((1, 2, 3, 3)):
            cfg = small_mix_config(n_values=(3, 4), workers=workers)
            path = tmp_path / f"run{k}.{suffix}"
            emit(run_sweep(cfg), path, cfg)
            files.add(path.read_bytes())
        assert len(files) == 1


def test_emit_errors(tmp_path):
    cfg = small_mix_config()
    records = run_sweep(cfg)
    path = tmp_path / "none.csv"
    with pytest.raises(ValueError):
        emit([], path, cfg)
    assert not path.exists()
    mixed = records + [
        ExperimentRecord(
            experiment="mix", n=3, r=2.0, seed=1, num_vertices=49,
            edge_count=98, normalizer=1.0, version=__version__, values={"odd": 1},
        )
    ]
    with pytest.raises(ValueError):
        emit(mixed, path, cfg)


def test_record_columns_are_typed_by_name(tmp_path):
    rec = ExperimentRecord(
        experiment="mix", n=np.int64(3), r=2, seed=np.uint64(7), num_vertices=49, edge_count=98.0,
        normalizer=np.float32(0.5), version=__version__,
        values={"t_mix": np.int64(5), "t_mix_exact": True, "gap": 1, "w_2": 4.0},
    )
    row = rec.as_row()
    assert row["n"] == 3 and row["r"] == 2.0 and row["seed"] == 7 and row["normalizer"] == 0.5
    assert [type(row[c]) for c in ("n", "r", "seed", "edge_count", "t_mix", "t_mix_exact", "gap", "w_2")] == \
        [int, float, int, int, int, int, float, int]
    cfg = small_mix_config()
    for fmt in ("csv", "json"):
        path = tmp_path / f"rec.{fmt}"
        emit([rec], path, cfg)
        assert load_records(path)[0] == [rec]
    assert "5,1,1,4\n" in (tmp_path / "rec.csv").read_text()
    # an integer column refuses a real it would truncate
    with pytest.raises(ValueError, match="column n must hold an integer, got 2.5"):
        ExperimentRecord(experiment="mix", n=2.5, r=2.0, seed=7, num_vertices=49, edge_count=98,
                         normalizer=0.5, version=__version__, values={})
    with pytest.raises(ValueError, match="column t_mix"):
        dataclasses.replace(rec, values={"t_mix": np.float64(3.7)})


def test_load_records_errors(tmp_path):
    manifest = "# manifest config_sha256=x seed_base=0 version=y\n"
    row = dict(experiment="mix", r=2.0, seed=7, num_vertices=49, edge_count=98, normalizer=1.5, version="y")
    header, cells = ",".join(row), ",".join(str(v) for v in row.values())
    cases = [
        ("csv", "experiment,n\nmix,3\n", "manifest"),
        ("csv", "experiment,n\nmix,3,9\n" + manifest, "cells"),
        ("json", "[]\n", "manifest"),
        ("csv", f"n,{header}\n3,{cells}\n# manifest config_sha256=x version=y\n", "seed_base"),
        ("csv", f"{header}\n{cells}\n" + manifest, r"common columns \['n'\]"),
        ("json", "[1, 2]\n", "manifest"),
        ("json", json.dumps([row, {"manifest": {"seed_base": 0}}]), r"common columns \['n'\]"),
        ("json", '[{"manifest": 3}]', "seed_base"),
        ("json", '[{"manifest": {}}]', "seed_base"),
        ("json", '[{"manifest": {"seed_base": "7"}}]', "seed_base"),
        ("json", '[{"manifest": {"seed_base": 2.5}}]', "seed_base"),
        ("json", '[{"manifest": {"seed_base": true}}]', "seed_base"),
        ("json", '[{"manifest": {"seed_base": -1}}]', "seed_base"),
        ("json", json.dumps([{**row, "n": 3.9}, {"manifest": {"seed_base": 0}}]), "column n must hold an integer"),
        ("json", json.dumps([{**row, "n": 3, "t_mix": 3.7}, {"manifest": {"seed_base": 0}}]), "column t_mix"),
        ("json", json.dumps([{**row, "n": 3, "t_mix": math.inf}, {"manifest": {"seed_base": 0}}]), "column t_mix"),
        ("csv", f"n,t_mix,{header}\n3,3.7,{cells}\n" + manifest, "column t_mix"),
        ("json", '[{"manifest": {"seed_base": 18446744073709551616}}]', "seed_base"),
        ("csv", f"{header}\n{cells}\n# manifest seed_base=abc version=y\n", "seed_base"),
        ("csv", f"{header}\n{cells}\n# manifest seed_base=2.5 version=y\n", "seed_base"),
        ("csv", f"{header}\n{cells}\n# manifest seed_base=-1 version=y\n", "seed_base"),
        ("csv", f"{header}\n{cells}\n# manifest junk config_sha256=x seed_base=0\n", "manifest line '# manifest junk"),
    ]
    for fmt, text, match in cases:
        path = tmp_path / f"bad.{fmt}"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_records(path)


def test_load_sweep_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# grid over two cells\n"
        "\n"
        "experiment = mix\n"
        "n_values = 3, 5\n"
        "r_values = 1.0, 2.0\n"
        "num_seeds = 2\n"
        "seed_base = 9\n"
        "starts = heuristic\n"
        "include_sweep_min = false\n"
    )
    cfg = load_sweep_config(path)
    assert cfg == SweepConfig(
        experiment="mix", n_values=(3, 5), r_values=(1.0, 2.0), num_seeds=2,
        seed_base=9, starts="heuristic", include_sweep_min=False,
    )
    for word, value in (("yes", True), ("No", False)):
        path.write_text(f"experiment = mix\nn_values = 3\nr_values = 1\nnum_seeds = 1\ninclude_sweep_min = {word}\n")
        assert load_sweep_config(path).include_sweep_min is value


def test_load_sweep_config_explicit_seeds(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("experiment = mix\nn_values = 3\nr_values = 1\nseeds = 5, 6\n")
    assert load_sweep_config(path).seeds == (5, 6)


def test_load_sweep_config_errors(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("experiment = mix\nbogus = 1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_sweep_config(path)
    path.write_text("experiment = mix\nexperiment = mix\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_sweep_config(path)
    path.write_text("experiment = mix\nn_values = a, b\n")
    with pytest.raises(ValueError, match="line 2"):
        load_sweep_config(path)
    path.write_text("experiment = mix\nno equals sign here\n")
    with pytest.raises(ValueError, match="line 2"):
        load_sweep_config(path)
    path.write_text("experiment = mix\ninclude_sweep_min = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        load_sweep_config(path)
    path.write_text("n_values = 3\nr_values = 1\nnum_seeds = 1\n")
    with pytest.raises(ValueError, match="incomplete"):
        load_sweep_config(path)
    # the output path is the CLI's --out, not a config key
    path.write_text("experiment = mix\noutput = x.csv\n")
    with pytest.raises(ValueError, match="line 2: unknown config key 'output'"):
        load_sweep_config(path)


def test_greedy_route_trivial_and_errors():
    g = torus_only_graph(4)
    hit = greedy_route(g, 7, 7)
    assert hit.hops == 0 and hit.delivered
    with pytest.raises(ValueError):
        greedy_route(g, -1, 0)
    with pytest.raises(ValueError):
        greedy_route(g, 0, g.num_vertices)
    with pytest.raises(ValueError):
        greedy_route(g, 0, 1, hop_cap=0)


def test_greedy_route_torus_distance():
    # without shortcuts greedy walks a geodesic
    g = torus_only_graph(3)
    coords = np.array([divmod(i, 7) for i in range(g.num_vertices)]) - 3
    for s in range(g.num_vertices):
        for t in range(0, g.num_vertices, 5):
            want = int(torus_distance(coords[s], coords[t], 3))
            result = greedy_route(g, s, t)
            assert result.delivered
            assert result.hops == want


def test_greedy_route_hop_cap():
    g = torus_only_graph(4)
    capped = greedy_route(g, 0, 2, hop_cap=1)
    assert capped.hops == 1 and not capped.delivered
    for bad in NON_INTEGERS:
        with pytest.raises(TypeError, match="hop_cap"):
            greedy_route(g, 0, 3, hop_cap=bad)
    assert greedy_route(g, 0, 3, hop_cap=np.int64(2)).hops == 2


def test_greedy_route_rejects_non_integral_vertices():
    g = torus_only_graph(4)
    with pytest.raises(TypeError):
        greedy_route(g, 3.7, 5)
    with pytest.raises(TypeError):
        greedy_route(g, 3, 5.0)
    for bad in NON_INTEGERS:
        with pytest.raises(TypeError, match="source vertex"):
            greedy_route(g, bad, 5)
        with pytest.raises(TypeError, match="target vertex"):
            greedy_route(g, 3, bad)
    want = greedy_route(g, 3, 5)
    assert greedy_route(g, np.int64(3), np.uint16(5)) == want


# n = 1 and 2 have sides 3 and 5, where most steps wrap around
@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("r", [0.0, 1.0, 2.0, 4.0, 8.0])
def test_greedy_route_matches_oracle_all_pairs(n, r):
    g = sample_graph(ModelParams(n=n, r=r, seed=77 + n))
    assert len(g.long_range_edges) > 0
    N = g.num_vertices
    pairs = [(s, t) for s in range(N) for t in range(N)]
    want = oracles.greedy_routes(g, pairs, 10 * N)
    got = [greedy_route(g, s, t) for s, t in pairs]
    assert [(res.hops, res.delivered) for res in got] == want
    assert all(delivered for _, delivered in want)


def test_greedy_route_capped_matches_oracle():
    for n, r, seed, cap in ((6, 1.0, 5, 2), (1, 2.0, 5, 1), (2, 1.0, 7, 2), (2, 8.0, 6, 1), (6, 8.0, 3, 2)):
        g = sample_graph(ModelParams(n=n, r=r, seed=seed))
        N = g.num_vertices
        pairs = [(s, t) for s in range(0, N, 3 if n > 2 else 1) for t in range(N)]
        want = oracles.greedy_routes(g, pairs, cap)
        got = [greedy_route(g, s, t, hop_cap=cap) for s, t in pairs]
        assert [(res.hops, res.delivered) for res in got] == want, (n, r, seed)
        assert any(hops == cap and not delivered for hops, delivered in want), (n, r, seed)


def test_routing_sweep_records():
    cfg = SweepConfig(experiment="routing", n_values=(8,), r_values=(1.0,), num_seeds=3, pairs=50)
    records = run_sweep(cfg)
    assert len(records) == 3
    for rec in records:
        assert rec.values["pairs"] == 50
        assert rec.values["delivered_count"] == 50
        assert rec.values["median_hops"] <= rec.values["max_hops"]
        assert rec.values["max_hops"] <= 4 * rec.n


def test_routing_growth_contrast():
    # median greedy hops over a 4x range of n: uniform shortcuts stay nearly
    # ballistic, inverse-square shortcuts bend the curve down
    grid = (64, 128, 256)
    cfg = SweepConfig(experiment="routing", n_values=grid, r_values=(0.0, 2.0), num_seeds=3, pairs=1000)
    records = run_sweep(cfg)
    med = {}
    for rec in records:
        med.setdefault((rec.r, rec.n), []).append(rec.values["median_hops"])
    growth = {r: statistics.median(med[(r, 256)]) / statistics.median(med[(r, 64)]) for r in (0.0, 2.0)}
    assert growth[0.0] >= 2.15
    assert growth[2.0] <= 2.10


def test_conductance_sweep_records():
    cfg = SweepConfig(
        experiment="conductance", n_values=(8, 12), r_values=(1.0, 2.0), num_seeds=5, seed_base=0,
    )
    records = run_sweep(cfg)
    assert len(records) == 20
    hits = 0
    for rec in records:
        radius = rec.values["ball_radius"]
        assert radius == int(0.9 * rec.n)
        assert rec.values["ball_size"] == 1 + 2 * radius * (radius + 1)
        assert 0.0 < rec.values["phi_ball"] <= 1.0
        assert 0.0 < rec.values["phi_sweep_min"] <= 1.0
        hits += rec.values["phi_sweep_min"] <= rec.values["phi_ball"]
    # the spectral sweep cut should essentially always find the ball or better
    assert hits >= 18


def test_conductance_sweep_complement_matches_direct():
    cfg = SweepConfig(
        experiment="conductance", n_values=(6,), r_values=(2.0,), num_seeds=2, include_sweep_min=False,
    )
    records = run_sweep(cfg)
    for rec in records:
        g = sample_graph(ModelParams(n=rec.n, r=rec.r, seed=rec.seed))
        ball = ball_set(rec.n, rec.values["ball_radius"])
        np.testing.assert_allclose(rec.values["phi_ball_complement"], conductance(g, ~ball))
        assert "phi_sweep_min" not in rec.values


def test_conductance_sweep_rejects_zero_radius():
    with pytest.raises(ValueError):
        SweepConfig(experiment="conductance", n_values=(1,), r_values=(1.0,), num_seeds=1, ball_frac=0.5)


def test_diameter_sweep_records():
    cfg = SweepConfig(experiment="diameter", n_values=(5,), r_values=(3.0,), num_seeds=3)
    for rec in run_sweep(cfg):
        assert rec.values["diameter_lower"] <= rec.values["diameter"]
        assert rec.values["diameter"] <= 2 * rec.n


def test_wq_experiment_records():
    cfg = SweepConfig(experiment="wq", n_values=(6,), r_values=(2.0,), num_seeds=3, box_side=2, q_max=2)
    records = run_sweep(cfg)
    for rec in records:
        assert rec.values["w_1"] == rec.values["num_boxes"]
        assert rec.values["w_2"] >= rec.values["num_boxes"] - 1  # box graph is connected
        assert rec.values["bound_1"] == 36.0 * 160.0


def test_wq_experiment_capacity():
    cfg = SweepConfig(experiment="wq", n_values=(10,), r_values=(2.0,), num_seeds=1, box_side=1)
    with pytest.raises(CapacityError):
        run_sweep(cfg)


def test_expansion_sweep_records():
    cfg = SweepConfig(experiment="expansion", n_values=(8,), r_values=(2.0,), num_seeds=2, random_sets=20)
    records = run_sweep(cfg)
    for rec in records:
        assert rec.values["random_sets"] == 20
        assert rec.values["m_hat"] > 0.0
        assert 0.1 <= rec.values["vx_alpha"] <= 0.55
        assert rec.values["vx_ratio"] > 0.0
        assert rec.values["ec_holds"] in (0, 1)


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_version_has_one_source():
    # pyproject.toml reads the version from swmix._version rather than repeating it
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"] and pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "swmix._version.__version__"}


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def cli_commands():
    (sub,) = (action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    return sorted(sub.choices)


def test_cli_has_one_command_per_job(capsys):
    assert cli_commands() == ["generate", "sweep"]
    with pytest.raises(SystemExit) as info:
        main(["mix", "--n", "3", "--r", "2.0", "--out", "x.csv"])
    assert info.value.code == 2
    assert "invalid choice: 'mix'" in capsys.readouterr().err


def readme_block(heading):
    """The first fenced code block under the README section with this heading."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split(f"\n{heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_cli_usage_names_the_parser_commands():
    usage = [line.split() for line in readme_block("## Command-line tool").splitlines() if line.strip()]
    assert all(words[0] == "swmix" for words in usage)
    assert sorted(words[1] for words in usage) == cli_commands()


def test_readme_quick_start_prints_its_comments(capsys):
    code = readme_block("## Quick start")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    comments = [line.split("#")[-1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert comments == ["7", "0.1773...", "0.8049..."]
    assert printed[0] == "7"
    # "0.1773..." stands for the printed value rounded to four decimals
    assert [round(float(value), 4) for value in printed[1:]] == [0.1773, 0.8049]


def test_cli_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["generate", "--n", "4", "--r", "1.5", "--seed", "3", "--out", str(out)]) == 0
    assert "N=81" in capsys.readouterr().out
    g = load_graph(out)
    assert g.params == ModelParams(n=4, r=1.5, seed=3)


def test_cli_mix_writes_records(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    code = run_cli_sweep(tmp_path, out, experiment="mix", n_values=3, r_values=2.0, num_seeds=2, starts="all")
    assert code == 0
    records, manifest = load_records(out)
    assert len(records) == 2
    assert records[0].values["t_mix_exact"] == 1
    assert manifest["seed_base"] == 0


def test_cli_route_json(tmp_path):
    out = tmp_path / "route.json"
    code = run_cli_sweep(tmp_path, out, experiment="routing", n_values=6, r_values=2.0, num_seeds=2, pairs=20)
    assert code == 0
    records, _ = load_records(out)
    assert all(rec.values["delivered_count"] == 20 for rec in records)


def test_cli_conductance_no_sweep_min(tmp_path):
    out = tmp_path / "con.csv"
    code = run_cli_sweep(
        tmp_path, out, experiment="conductance", n_values=5, r_values=2.0, num_seeds=1, include_sweep_min=False,
    )
    assert code == 0
    records, _ = load_records(out)
    assert "phi_sweep_min" not in records[0].values


def test_cli_wq(tmp_path):
    out = tmp_path / "wq.csv"
    code = run_cli_sweep(tmp_path, out, experiment="wq", n_values=5, r_values=2.0, num_seeds=1, box_side=2, q_max=1)
    assert code == 0
    records, _ = load_records(out)
    assert records[0].values["w_1"] == records[0].values["num_boxes"]


def test_cli_sweep_config(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("experiment = diameter\nn_values = 4\nr_values = 2.0\nnum_seeds = 2\n")
    # the --out suffix picks the format, and both files carry the same records and manifest
    loaded = []
    for name in ("out.json", "out.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        loaded.append(load_records(out))
    assert (tmp_path / "out.json").read_text().startswith("[")
    assert len(loaded[0][0]) == 2
    assert loaded[0] == loaded[1]


def test_cli_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("experiment = mix\nbogus = 1\n")
    assert main(["sweep", "--config", str(bad_cfg), "--out", str(tmp_path / "bad.csv")]) == 2
    assert "error" in capsys.readouterr().err
    out = tmp_path / "x.csv"
    assert run_cli_sweep(tmp_path, out, experiment="mix", n_values=20, r_values=1.0, num_seeds=1, starts="all") == 3
    assert "capacity" in capsys.readouterr().err
    missing_dir = tmp_path / "nope" / "g.txt"
    assert main(["generate", "--n", "3", "--r", "1.0", "--out", str(missing_dir)]) == 4
    assert "i/o" in capsys.readouterr().err
    old_out = tmp_path / "old.cfg"
    old_out.write_text(f"experiment = diameter\nn_values = 3\nr_values = 1\nnum_seeds = 1\noutput = {out}\n")
    assert main(["sweep", "--config", str(old_out), "--out", str(out)]) == 2
    assert "unknown config key 'output'" in capsys.readouterr().err
    assert not out.exists()
    # sweep has no output path but --out
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(old_out)])
    assert info.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_cli_convergence_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(walk, "_MAX_STEPS", 1)
    out = tmp_path / "x.csv"
    assert run_cli_sweep(tmp_path, out, experiment="mix", n_values=3, r_values=1.0, num_seeds=1, workers=1) == 5
    err = capsys.readouterr().err
    assert err.startswith("swmix: convergence error: ") and err.count("\n") == 1
    assert not out.exists()


def source_env():
    """The environment with the checkout's src/ first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


def test_cli_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "swmix.cli", "--version"], capture_output=True, text=True, env=source_env(),
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_cli_import_leaves_out_unused_stdlib_modules():
    # numpy and scipy load none of these, and the package needs none: its
    # median comes from numpy and its rational ceiling from integer arithmetic
    script = "import sys, swmix.cli; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_mix_sweep_leaves_out_scipy_linalg():
    # the eigen solve is numpy's, so only scipy.sparse is loaded
    script = (
        "import sys, swmix.cli\n"
        "from swmix import ModelParams, SweepConfig, run_sweep, sample_graph, sweep_cut\n"
        "run_sweep(SweepConfig(experiment='mix', n_values=(2,), r_values=(1.0,), num_seeds=1))\n"
        "sweep_cut(sample_graph(ModelParams(n=2, r=1.0, seed=0)))\n"
        "print(sorted({'scipy.sparse.linalg', 'scipy.linalg'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_all_is_built_from_submodules():
    assert len(swmix.__all__) == len(set(swmix.__all__))
    for module in (swmix.errors, swmix.torus, swmix.generate, swmix.bfs, swmix.walk, swmix.expansion, swmix.harness):
        for name in module.__all__:
            assert name in swmix.__all__
            assert getattr(swmix, name) is getattr(module, name)
    for name in swmix.__all__:
        assert hasattr(swmix, name)


def run_demo(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True, text=True, env=source_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_generate_demo_runs():
    # the edge line pins the sampled graph of (n=20, r=2, seed=7) to its known counts
    out = run_demo("01_generate_and_inspect.py")
    assert "\nedges             4228 (866 long-range)\n" in out
    assert "\nsaved to a temporary file and loaded back identically\n" in out


def test_conductance_demo_runs():
    out = run_demo("03_conductance_balls.py")
    assert "\nsweep always finds a cut at least as good as the ball\n" in out


def test_greedy_routing_demo_runs():
    assert "growth over a 4x range" in run_demo("04_greedy_routing.py")


def test_mixing_demo_runs():
    # runs mixing_time end to end through run_sweep; r = 4 cells reach t_mix ~ 250
    out = run_demo("02_mixing_phase_transition.py")
    assert "\nr = 4.0: t_mix (roughly x4 per doubling of n when r > 2)\n" in out
    assert out.count("median t_mix") == 12


def test_box_partition_demo_runs():
    out = run_demo("05_box_partitions.py")
    assert "\ndichotomy holds on 2000/2000 random sets (it is a theorem, so always)\n" in out


@pytest.mark.parametrize("experiment, builds", [("routing", 0), ("diameter", 0), ("mix", 1)])
def test_csr_is_built_only_where_it_is_read(experiment, builds, monkeypatch):
    # routing reads only the long-range rows, BFS the neighbour slots (which
    # read the degrees) and the walk the degrees and the CSR adjacency.  No
    # cell reads the pair list, and what a cell reads it builds once per graph
    counts = dict.fromkeys(("degrees", "long_range_edges", "indptr", "indices"), 0)
    for name in counts:
        build = getattr(SmallWorldGraph, name).func

        def counting(graph, name=name, build=build):
            counts[name] += 1
            return build(graph)

        monkeypatch.setattr(getattr(SmallWorldGraph, name), "func", counting)
    graphs = []
    sample = swmix.harness.sample_graph
    monkeypatch.setattr(swmix.harness, "sample_graph", lambda params: graphs.append(sample(params)) or graphs[-1])
    cfg = SweepConfig(experiment=experiment, n_values=(6,), r_values=(1.0, 2.0), seeds=(0, 1), workers=1, pairs=20)
    assert len(run_sweep(cfg)) == len(graphs) == 4
    built = {"degrees"} if experiment != "routing" else set()
    built |= {"indptr", "indices"} if builds else set()
    assert counts == {name: 4 * (name in built) for name in counts}
    for g in graphs:
        assert set(counts) & set(vars(g)) == built
