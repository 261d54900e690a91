"""Greedy routing with and without distance-square shortcuts.

A greedy router always steps to the neighbour closest (in torus distance) to
the target.  With uniform shortcuts (r = 0) the long edges rarely point the
right way and hop counts grow polynomially with n; with inverse-square
shortcuts (r = 2) every scale contributes useful edges and the growth bends
toward polylogarithmic.
"""

import statistics

from swmix import SweepConfig, run_sweep

GRID = (32, 64, 128)

print("median hops over 500 pairs, 3 seeds per cell")
print(f"{'n':>5} {'r=0':>8} {'r=2':>8}")
cfg = SweepConfig(experiment="routing", n_values=GRID, r_values=(0.0, 2.0),
                  num_seeds=3, seed_base=0, pairs=500)
records = run_sweep(cfg)
med = {}
for rec in records:
    med.setdefault((rec.r, rec.n), []).append(rec.values["median_hops"])
for n in GRID:
    m0 = statistics.median(med[(0.0, n)])
    m2 = statistics.median(med[(2.0, n)])
    print(f"{n:5d} {m0:8.1f} {m2:8.1f}")
g0 = statistics.median(med[(0.0, GRID[-1])]) / statistics.median(med[(0.0, GRID[0])])
g2 = statistics.median(med[(2.0, GRID[-1])]) / statistics.median(med[(2.0, GRID[0])])
print(f"\ngrowth over a 4x range of n: r=0 -> x{g0:.2f}, r=2 -> x{g2:.2f}")
print("every route is delivered: greedy always has a torus neighbour that makes progress")
