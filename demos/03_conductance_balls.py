"""Low-conductance sets for steep long-range exponents (r > 2).

When r > 2 the long-range edges are mostly short, so a metric ball keeps a
small edge boundary: its conductance falls with the radius, which is exactly
what slows the walk down.  The script reports the cut around the L1 ball of
radius 0.9 n and compares it with the best prefix cut found by the spectral
sweep, then shows that for small r the same ball is no longer special.
"""

import statistics

from swmix import (
    ModelParams,
    SweepConfig,
    ball_set,
    cut_report,
    run_sweep,
    sample_graph,
    sweep_cut,
)

print("ball cut at radius L = 0.9 n, 10 seeds each (means)")
print(f"{'r':>5} {'n':>4} {'|ball|':>7} {'|edge bd|':>10} {'phi(ball)':>10}")
for r in (4.0, 3.0, 2.5):
    cfg = SweepConfig(experiment="conductance", n_values=(10, 20, 40), r_values=(r,),
                      num_seeds=10, seed_base=0, include_sweep_min=False)
    records = run_sweep(cfg)
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec)
    for n, recs in sorted(by_n.items()):
        size = recs[0].values["ball_size"]
        bd = statistics.fmean(rec.values["ball_edge_boundary"] for rec in recs)
        phi = statistics.fmean(rec.values["phi_ball"] for rec in recs)
        print(f"{r:5.1f} {n:4d} {size:7d} {bd:10.1f} {phi:10.5f}")

print("\nspectral sweep cut vs the ball cut (n=12)")
print(f"{'r':>5} {'phi(ball)':>10} {'phi(sweep)':>11}")
for r in (4.0, 2.0, 1.0):
    g = sample_graph(ModelParams(n=12, r=r, seed=3))
    ball = ball_set(12, 10)
    phi_ball = cut_report(g, ball).conductance
    phi_sweep = min(rp.conductance for rp in sweep_cut(g))
    print(f"{r:5.1f} {phi_ball:10.5f} {phi_sweep:11.5f}")
print("\nthe ball conductance falls with n when r > 2 (top table), and the spectral")
print("sweep always finds a cut at least as good as the ball")
