"""Mixing-time phase transition in the long-range exponent r.

The lazy random walk on the torus-plus-shortcuts graph mixes in
logarithmic time when r < 2, polylogarithmic time at the critical point
r = 2, and polynomial time when r > 2: uniform-ish shortcuts collapse the
diameter, while steeply local shortcuts leave the walk effectively
two-dimensional.  This script measures median mixing times over seeded
replicates on a small grid and prints the three growth profiles.
"""

import math
import statistics

from swmix import SweepConfig, num_vertices, run_sweep

N_VALUES = (6, 9, 13, 19)
SEEDS = 8

for r, label in ((1.0, "t_mix / ln N (flat when r < 2)"),
                 (2.0, "t_mix / (ln N)^2 (slow drift at r = 2)"),
                 (4.0, "t_mix (roughly x4 per doubling of n when r > 2)")):
    cfg = SweepConfig(experiment="mix", n_values=N_VALUES, r_values=(r,),
                      num_seeds=SEEDS, seed_base=0)
    records = run_sweep(cfg)
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec.values["t_mix"])
    print(f"\nr = {r}: {label}")
    for n in N_VALUES:
        med = statistics.median(by_n[n])
        ln = math.log(num_vertices(n))
        if r == 1.0:
            shown = med / ln
        elif r == 2.0:
            shown = med / ln**2
        else:
            shown = med
        print(f"  n={n:3d} (N={num_vertices(n):4d}): median t_mix {med:6.1f}   profile {shown:7.2f}")
