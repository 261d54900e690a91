"""Pilot calibration run backing the trend and band tests.

Regenerate with:  PYTHONPATH=src python3 tests/data/run_pilot.py

Writes pilot_calibration.json next to this file.  The pilot runs on seed
base 1000 while the test suites run on seed base 0, so every threshold is
calibrated out of sample.  A rerun may add keys to the file but not change
the value of a key it already holds, since tests have frozen constants from
those values: if any would change, the script names the keys, exits
non-zero and leaves the file as it was.  To regenerate every value on
purpose, delete the file first.  runtime_seconds, the time the run took, is
the one key a rerun rewrites.  Thresholds derived here:

  - mixing and diameter band centres (documentation; the tests assert the
    self-contained max/min <= 2 spread),
  - ball-boundary and ball-conductance caps (pilot value at the smallest n
    times a 1.3 headroom factor),
  - the vertex-expansion floor (0.8 times the pilot 5th percentile),
  - the internal-degree statistic m_hat caps,
  - the connected-set degree-sum fit constant (pilot max times 1.5),
  - greedy-routing growth thresholds for the r=0 / r=2 contrast,
  - the growth cut of the regime-order criteria, from median t_mix and
    median relaxation time 1/gap at r = 1 and 2.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import support
from swmix import (
    ModelParams,
    SweepConfig,
    degree_sum,
    derive_seed,
    mask_from_indices,
    num_vertices,
    run_sweep,
    sample_graph,
)
from swmix.generate import _stream

SEED_BASE = 1000
OUT = Path(__file__).parent / "pilot_calibration.json"


def medians(records, value):
    """Median of value(record) by n."""
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(value(rec))
    return {str(n): float(np.median(v)) for n, v in sorted(by_n.items())}


def per_ln_n(key):
    """The record column key divided by ln N."""
    return lambda rec: rec.values[key] / math.log(num_vertices(rec.n))


def relaxation_time(rec):
    """t_rel = 1 / gap."""
    return 1.0 / rec.values["gap"]


def changed_keys(old, new):
    """Keys of old, but runtime_seconds, whose value new drops or changes."""
    return [key for key in sorted(old) if key != "runtime_seconds" and new.get(key) != old[key]]


def main():
    t0 = time.time()
    out = {"seed_base": SEED_BASE, "pilot_seeds": 10}

    # mixing trends (criteria on median t_mix / ln N and slow-side ratios)
    mix1 = run_sweep(
        SweepConfig(experiment="mix", n_values=[8, 12, 16, 24, 32], r_values=[1.0],
                    num_seeds=10, seed_base=SEED_BASE)
    )
    out["mix_r1_tmix_over_lnN"] = medians(mix1, per_ln_n("t_mix"))
    out["mix_r1_trel"] = medians(mix1, relaxation_time)
    print("mix r=1 done", flush=True)

    mix4 = run_sweep(
        SweepConfig(experiment="mix", n_values=[8, 16, 32], r_values=[4.0],
                    num_seeds=10, seed_base=SEED_BASE)
    )
    out["mix_r4_tmix"] = medians(mix4, lambda rec: rec.values["t_mix"])
    out["mix_r4_trel"] = medians(mix4, relaxation_time)
    print("mix r=4 done", flush=True)

    mix2 = run_sweep(
        SweepConfig(experiment="mix", n_values=[8, 16, 32], r_values=[2.0],
                    num_seeds=10, seed_base=SEED_BASE)
    )
    out["mix_r2_tmix"] = medians(mix2, lambda rec: rec.values["t_mix"])
    out["mix_r2_trel"] = medians(mix2, relaxation_time)
    print("mix r=2 done", flush=True)

    # exact diameters for the r=1 regime band
    diam = run_sweep(
        SweepConfig(experiment="diameter", n_values=[20, 40, 80], r_values=[1.0],
                    num_seeds=10, seed_base=SEED_BASE)
    )
    out["diam_r1_over_lnN"] = medians(diam, per_ln_n("diameter"))
    print("diameters done", flush=True)

    # ball boundary and conductance scaling
    ball = {}
    for r, norm in ((4.0, "L"), (3.0, "LlnL"), (2.5, "L15")):
        recs = run_sweep(
            SweepConfig(experiment="conductance", n_values=[20, 40, 80], r_values=[r],
                        num_seeds=10, seed_base=SEED_BASE, include_sweep_min=False)
        )
        by_n = {}
        for rec in recs:
            L = rec.values["ball_radius"]
            div = {"L": L, "LlnL": L * math.log(L), "L15": L**1.5}[norm]
            by_n.setdefault(rec.n, {"bnd": [], "phi": []})
            by_n[rec.n]["bnd"].append(rec.values["ball_edge_boundary"] / div)
            scale = rec.n if r == 4.0 else rec.n**0.5
            by_n[rec.n]["phi"].append(rec.values["phi_ball"] * scale)
        ball[str(r)] = {
            "mean_boundary_normalized": {str(n): float(np.mean(v["bnd"])) for n, v in sorted(by_n.items())},
            "mean_phi_scaled": {str(n): float(np.mean(v["phi"])) for n, v in sorted(by_n.items())},
        }
    out["ball"] = ball
    out["ball_boundary_cap"] = {
        r: round(vals["mean_boundary_normalized"]["20"] * 1.3, 3) for r, vals in ball.items()
    }
    out["ball_phi_cap"] = {
        r: round(max(vals["mean_phi_scaled"].values()) * 1.3, 3)
        for r, vals in ball.items()
        if r in ("4.0", "2.5")
    }
    print("ball scaling done", flush=True)

    # internal-degree statistic m_hat and the expansion pass rates
    mh = run_sweep(
        SweepConfig(experiment="expansion", n_values=[10, 20, 40], r_values=[1.0],
                    num_seeds=3, seed_base=SEED_BASE, random_sets=500)
    )
    by_n = {}
    for rec in mh:
        by_n.setdefault(rec.n, []).append(rec.values["m_hat"])
    out["m_hat_max"] = {str(n): float(max(v)) for n, v in sorted(by_n.items())}
    print("m_hat done", flush=True)

    vx = run_sweep(
        SweepConfig(experiment="expansion", n_values=[40], r_values=[2.0],
                    num_seeds=200, seed_base=SEED_BASE, random_sets=1)
    )
    ratios = np.array([rec.values["vx_ratio"] for rec in vx])
    out["vx_ratio_p5"] = float(np.percentile(ratios, 5))
    out["vx_ratio_floor"] = round(0.8 * float(np.percentile(ratios, 5)), 4)

    ec = run_sweep(
        SweepConfig(experiment="expansion", n_values=[40], r_values=[1.0],
                    num_seeds=200, seed_base=SEED_BASE, random_sets=1)
    )
    out["ec_pass_rate"] = float(np.mean([rec.values["ec_holds"] for rec in ec]))
    print("expansion stats done", flush=True)

    # degree-sum fit for random connected sets at n=20, r=2
    fits = []
    for rep in range(200):
        seed = derive_seed(SEED_BASE, 20, 2.0, rep)
        g = sample_graph(ModelParams(n=20, r=2.0, seed=seed))
        rng = _stream(seed, 0, 5)
        size = int(rng.integers(1, 65))
        S = support.random_connected_set(g, rng, size)
        fits.append(degree_sum(g, mask_from_indices(S, 20)) / max(S.size, math.log(20)))
    out["dsum_fit_max"] = float(max(fits))
    out["dsum_fit_bound"] = round(float(max(fits)) * 1.5, 3)
    print("degree-sum fit done", flush=True)

    # greedy routing growth contrast
    route = {}
    for r in (0.0, 2.0):
        recs = run_sweep(
            SweepConfig(experiment="routing", n_values=[64, 128, 256], r_values=[r],
                        num_seeds=2, seed_base=SEED_BASE, pairs=1000)
        )
        by_n = {}
        for rec in recs:
            by_n.setdefault(rec.n, []).append(rec.values["median_hops"])
        route[str(r)] = {str(n): float(np.median(v)) for n, v in sorted(by_n.items())}
    out["route_median_hops"] = route
    print("routing done", flush=True)

    # sweep-cut minimum vs ball conductance on a small grid
    sm = run_sweep(
        SweepConfig(experiment="conductance", n_values=[8, 12], r_values=[1.0, 2.0],
                    num_seeds=10, seed_base=SEED_BASE, include_sweep_min=True)
    )
    wins = [rec.values["phi_sweep_min"] <= rec.values["phi_ball"] for rec in sm]
    out["sweep_min_beats_ball_rate"] = float(np.mean(wins))

    out["runtime_seconds"] = round(time.time() - t0, 1)
    out = json.loads(json.dumps(out))  # compare as the file stores it: string keys, floats by repr
    if OUT.exists():
        changed = changed_keys(json.loads(OUT.read_text(encoding="utf-8")), out)
        if changed:
            sys.exit(f"{OUT.name} not written: this run changes the value of {', '.join(changed)}; "
                     f"delete the file first to regenerate every value")
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT} in {out['runtime_seconds']}s")


if __name__ == "__main__":
    main()
