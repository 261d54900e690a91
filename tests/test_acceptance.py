"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Exact oracle equivalences run at small sizes; scaling criteria are band and
trend checks whose constants were frozen from the committed pilot run
(tests/data/pilot_calibration.json, seed base 1000); the tests here measure
fresh data at seed base 0.
"""

import itertools
import math
import statistics

import numpy as np
import pytest
import scipy.stats

import oracles
import support
from swmix import (
    ModelParams,
    SweepConfig,
    box_core_dichotomy,
    index_to_coord,
    is_expanding,
    lazy_kernel,
    long_range_normalizer,
    make_box_partition,
    mask_from_indices,
    mixing_time,
    num_vertices,
    relaxation_bounds,
    run_sweep,
    sample_graph,
    stationary,
    torus_boundary_count,
    torus_distance,
)

R_GRID = (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0)


def _report(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] C{k:02d} {detail}")
    assert ok, f"C{k:02d} {detail}"


@pytest.fixture(scope="module")
def mix_r1_records():
    cfg = SweepConfig(experiment="mix", n_values=(8, 12, 16, 24, 32), r_values=(1.0,),
                      num_seeds=20, seed_base=0)
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def mix_r4_records():
    cfg = SweepConfig(experiment="mix", n_values=(8, 16, 32), r_values=(4.0,),
                      num_seeds=20, seed_base=0)
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def mix_r2_records():
    cfg = SweepConfig(experiment="mix", n_values=(8, 16, 32), r_values=(2.0,),
                      num_seeds=20, seed_base=0)
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def ball_records():
    cfg = SweepConfig(experiment="conductance", n_values=(20, 40, 80), r_values=(2.5, 3.0, 4.0),
                      num_seeds=50, seed_base=0, include_sweep_min=False)
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def diameter_records():
    cfg = SweepConfig(experiment="diameter", n_values=(20, 40, 80), r_values=(1.0,),
                      num_seeds=20, seed_base=0)
    return run_sweep(cfg)


def _medians_by_n(records, key):
    byn = {}
    for rec in records:
        byn.setdefault(rec.n, []).append(rec.values[key])
    return {n: statistics.median(vals) for n, vals in sorted(byn.items())}


def test_c01_normalizer_matches_bruteforce(capsys):
    worst = 0.0
    for n in range(2, 31):
        for r in R_GRID:
            want = oracles.normalizer_pair_sum(n, r)
            got = long_range_normalizer(n, r)
            worst = max(worst, abs(got - want) / want)
    _report(capsys, 1, worst <= 1e-12,
            f"normalizer equals brute-force pair sum on 29x7 (n, r) grid: max rel err {worst:.2e} <= 1e-12")


def test_c02_normalizer_growth_regimes(capsys):
    parts = []
    ok = True
    for r in (0.0, 1.0):
        q = long_range_normalizer(400, r) / long_range_normalizer(200, r)
        target = 2.0 ** (2.0 - r)
        ok &= 0.9 * target <= q <= 1.1 * target
        parts.append(f"r={r:g} doubling ratio {q:.3f} in {target:g}*[0.9,1.1]")
    q3 = long_range_normalizer(400, 3.0) / long_range_normalizer(20, 3.0)
    ok &= q3 <= 1.1
    parts.append(f"r=3 Z(400)/Z(20) {q3:.3f} <= 1.1")
    vals = [long_range_normalizer(n, 2.0) / math.log(n) for n in (50, 100, 200, 400)]
    mid = (max(vals) + min(vals)) / 2
    ok &= all(abs(v - mid) <= 0.15 * mid for v in vals)
    parts.append(f"r=2 Z/ln n in [{min(vals):.3f}, {max(vals):.3f}] within +-15% of {mid:.3f}")
    _report(capsys, 2, ok, "normalizer growth regimes: " + "; ".join(parts))


def _long_range_distance_counts(graph):
    e = graph.long_range_edges
    n = graph.n
    xs, ys = index_to_coord(e[:, 0], n)
    xt, yt = index_to_coord(e[:, 1], n)
    d = torus_distance(np.column_stack([xs, ys]), np.column_stack([xt, yt]), n)
    return np.bincount(d - 2, minlength=2 * n - 1)


def _pool_columns(table, min_total=25):
    cols = []
    cur = np.zeros(table.shape[0], dtype=np.int64)
    for j in range(table.shape[1]):
        cur = cur + table[:, j]
        if cur.sum() >= min_total:
            cols.append(cur)
            cur = np.zeros(table.shape[0], dtype=np.int64)
    if cur.sum() > 0:
        if cols:
            cols[-1] = cols[-1] + cur
        else:
            cols.append(cur)
    return np.column_stack(cols)


def test_c03_sampler_distribution_match(capsys):
    n, num_seeds, r = 10, 200, 2.0
    N = num_vertices(n)
    fast = np.zeros(2 * n - 1, dtype=np.int64)
    naive = np.zeros(2 * n - 1, dtype=np.int64)
    totals = []
    for s in range(num_seeds):
        g = sample_graph(ModelParams(n=n, r=r, seed=s))
        fast += _long_range_distance_counts(g)
        totals.append(len(g.long_range_edges))
    for s in range(num_seeds):
        g = oracles.sample_graph_naive(ModelParams(n=n, r=r, seed=10_000 + s))
        naive += _long_range_distance_counts(g)
    table = _pool_columns(np.vstack([fast, naive]))
    _, p, dof, _ = scipy.stats.chi2_contingency(table)
    mean_total = float(np.mean(totals))
    band = 3.0 * math.sqrt(N / 2.0)
    ok = p > 0.01 and abs(mean_total - N / 2.0) <= band
    _report(capsys, 3, ok,
            f"fast vs naive sampler per-distance counts: chi-square p={p:.3f} > 0.01 (dof {dof}); "
            f"mean long-range edges {mean_total:.1f} within {N / 2:.1f} +- {band:.1f}")


def test_c04_torus_isoperimetry(capsys):
    # n=1 exhaustive over all 2^9 subsets
    bits = (np.arange(512)[:, None] >> np.arange(9)) & 1
    masks = bits.astype(bool)
    sizes = masks.sum(axis=1)
    counts = torus_boundary_count(masks, 1)
    in_scope = (sizes >= 1) & (sizes <= 4)
    bound1 = np.minimum(3.0, 2.0 * np.sqrt(sizes))
    viol_exh1 = int((counts[in_scope] < bound1[in_scope]).sum())

    # n=2 exhaustive over all subsets of size <= 6
    viol_exh2 = 0
    checked = 0
    for k in range(1, 7):
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(25), k)), np.int64,
        )
        idx = flat.reshape(-1, k)
        m = np.zeros((idx.shape[0], 25), dtype=bool)
        m[np.arange(idx.shape[0])[:, None], idx] = True
        c = torus_boundary_count(m, 2)
        viol_exh2 += int((c < min(5.0, 2.0 * math.sqrt(k))).sum())
        checked += idx.shape[0]

    # n=2, a million random subsets with |S| <= N/2
    rng = np.random.default_rng(4)
    viol_rand = 0
    per_size = 10**6 // 12
    for k in range(1, 13):
        todo = per_size if k < 12 else 10**6 - 11 * per_size
        while todo:
            b = min(200_000, todo)
            vals = rng.random((b, 25))
            sel = np.argpartition(vals, k - 1, axis=1)[:, :k]
            m = np.zeros((b, 25), dtype=bool)
            m[np.arange(b)[:, None], sel] = True
            c = torus_boundary_count(m, 2)
            viol_rand += int((c < min(5.0, 2.0 * math.sqrt(k))).sum())
            todo -= b
    ok = viol_exh1 == 0 and viol_exh2 == 0 and viol_rand == 0
    _report(capsys, 4, ok,
            f"torus isoperimetry |boundary| >= min(2n+1, 2 sqrt(|S|)): 0 violations over 512 subsets (n=1), "
            f"{checked} subsets of size <= 6 (n=2), 10^6 random subsets (n=2); "
            f"got {viol_exh1}/{viol_exh2}/{viol_rand}")


def test_c05_box_core_dichotomy_random(capsys):
    n, ell, cases = 8, 2, 100_000
    N = num_vertices(n)
    part = make_box_partition(n, ell)
    rng = np.random.default_rng(5)
    sizes = rng.integers(1, N + 1, size=cases)
    etas = rng.uniform(1e-9, 1.0, size=cases)
    violations = 0
    for size, eta in zip(sizes, etas):
        S = np.zeros(N, dtype=bool)
        S[rng.choice(N, size=int(size), replace=False)] = True
        violations += not box_core_dichotomy(S, part, float(eta))
    _report(capsys, 5, violations == 0,
            f"box-core dichotomy on {cases} random (S, eta) at n={n}, box side {ell}: {violations} violations")


def test_c06_walk_kernel_oracle(capsys):
    rng = np.random.default_rng(6)
    mismatches = 0
    rev_err = 0.0
    mass_err = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        r = float(rng.choice(R_GRID))
        g = sample_graph(ModelParams(n=n, r=r, seed=int(rng.integers(2**32))))
        est = mixing_time(g, starts="all")
        kernel = oracles.dense_lazy_kernel(g)
        pi = oracles.stationary_from_edges(g)
        want = oracles.mixing_time_by_powering(kernel, pi)
        mismatches += est.t_mix != want

        P = lazy_kernel(g).toarray()
        piv = np.asarray(stationary(g))
        flow = piv[:, None] * P
        rev_err = max(rev_err, float(np.abs(flow - flow.T).max()))

        mu = np.zeros(g.num_vertices)
        mu[0] = 1.0
        K = lazy_kernel(g)
        for _ in range(10_000):
            mu = mu @ K
        mass_err = max(mass_err, abs(float(mu.sum()) - 1.0))
    ok = mismatches == 0 and rev_err <= 1e-12 and mass_err <= 1e-9
    _report(capsys, 6, ok,
            f"walk kernel vs dense powering oracle on 20 instances (N <= 121): {mismatches} t_mix mismatches; "
            f"reversibility err {rev_err:.1e} <= 1e-12; mass drift after 10^4 steps {mass_err:.1e} <= 1e-9")


def test_c07_sweep_record_inequalities(capsys, mix_r1_records, mix_r4_records, mix_r2_records, ball_records):
    bad = []
    mix_records = mix_r1_records + mix_r4_records + mix_r2_records
    for rec in mix_records:
        v = rec.values
        if not v["t_mix"] >= v["diameter"] / 3.0:
            bad.append(("t_mix>=diam/3", rec.n, rec.r, rec.seed))
        lo, hi = relaxation_bounds(v["gap"], v["pi_min"])
        if not lo <= v["t_mix"] <= hi:
            bad.append(("relaxation sandwich", rec.n, rec.r, rec.seed))
    for rec in ball_records:
        v = rec.values
        if not v["ball_edge_boundary"] >= v["ball_vertex_boundary"]:
            bad.append(("|dS|>=|d_v S|", rec.n, rec.r, rec.seed))
        if v["phi_ball"] != v["phi_ball_complement"]:
            bad.append(("phi(S)==phi(complement)", rec.n, rec.r, rec.seed))
    _report(capsys, 7, not bad,
            f"deterministic inequalities on {len(mix_records)} mixing + {len(ball_records)} ball-cut records: "
            f"{len(bad)} violations" + (f", first {bad[:3]}" if bad else ""))


def test_c08_fast_side_mixing_band(capsys, mix_r1_records):
    med = _medians_by_n(mix_r1_records, "t_mix")
    normed = {n: med[n] / math.log(num_vertices(n)) for n in med}
    spread = max(normed.values()) / min(normed.values())
    detail = ", ".join(f"n={n}: {v:.2f}" for n, v in normed.items())
    _report(capsys, 8, spread <= 2.0,
            f"r=1 median t_mix/ln N across n ({detail}): spread {spread:.3f} <= 2")


def test_c09_slow_side_mixing_growth(capsys, mix_r4_records):
    med = _medians_by_n(mix_r4_records, "t_mix")
    q1 = med[16] / med[8]
    q2 = med[32] / med[16]
    _report(capsys, 9, q1 >= 2.0 and q2 >= 2.0,
            f"r=4 median t_mix {med[8]:g} -> {med[16]:g} -> {med[32]:g}: "
            f"growth ratios {q1:.2f}, {q2:.2f} both >= 2")


def test_c10_critical_mixing_window(capsys, mix_r2_records):
    med = _medians_by_n(mix_r2_records, "t_mix")
    parts = []
    ok = True
    for n, m in med.items():
        ln = math.log(num_vertices(n))
        lo, hi = 0.2 * ln, 5.0 * ln**4
        ok &= lo <= m <= hi
        parts.append(f"n={n}: {m:g} in [{lo:.1f}, {hi:.0f}]")
    _report(capsys, 10, ok, "r=2 median t_mix inside [0.2 ln N, 5 (ln N)^4]: " + "; ".join(parts))


def test_c11_ball_boundary_scaling(capsys, ball_records):
    means = {}
    for rec in ball_records:
        key = (rec.r, rec.n)
        means.setdefault(key, []).append(rec.values["ball_edge_boundary"])
    norm = {
        4.0: lambda b, L: b / L,
        3.0: lambda b, L: b / (L * math.log(L)),
        2.5: lambda b, L: b / L**1.5,
    }
    ok = True
    parts = []
    for r, f in norm.items():
        seq = []
        for n in (20, 40, 80):
            L = int(0.9 * n)
            seq.append(f(statistics.fmean(means[(r, n)]), L))
        grow = max(seq[i + 1] / seq[i] for i in range(len(seq) - 1))
        ok &= grow <= 1.25
        parts.append(f"r={r:g}: " + " -> ".join(f"{v:.2f}" for v in seq) + f" (max step {grow:.3f})")
    _report(capsys, 11, ok,
            "normalized mean ball boundary non-increasing within 25% across n=20,40,80: " + "; ".join(parts))


def test_c12_box_set_count_bound(capsys):
    cfg = SweepConfig(experiment="wq", n_values=(6,), r_values=(2.5,), num_seeds=100,
                      seed_base=0, box_side=2, q_max=3)
    records = run_sweep(cfg)
    ok = True
    parts = []
    for q in (1, 2, 3):
        mean_wq = statistics.fmean(rec.values[f"w_{q}"] for rec in records)
        bound = 36.0 * 160.0**q
        ok &= mean_wq <= bound
        parts.append(f"q={q}: mean {mean_wq:.1f} <= {bound:g}")
    _report(capsys, 12, ok, "connected box-set count bound E[W_q] <= n^2 (40 l^2)^q over 100 seeds: " + "; ".join(parts))


def test_c13_expansion_checker_bruteforce(capsys):
    rng = np.random.default_rng(13)
    graphs = []
    for r in (0.0, 0.5, 1.0, 1.5, 2.0, 2.0, 2.5, 3.0, 3.5, 4.0):
        graphs.append(sample_graph(ModelParams(n=6, r=r, seed=int(rng.integers(2**32)))))
    edge_lists = [oracles.graph_edge_list(g) for g in graphs]
    disagreements = 0
    holds_count = 0
    for i in range(1000):
        g = graphs[i % len(graphs)]
        size = int(rng.integers(1, 16))
        subset = np.sort(rng.choice(g.num_vertices, size=size, replace=False))
        eps = float(rng.uniform(0.02, 0.98))
        c = float(rng.uniform(0.1, 5.0))
        got = is_expanding(g, mask_from_indices(subset, 6), eps, c).holds
        want = oracles.expansion_bruteforce(edge_lists[i % len(graphs)], subset.tolist(), eps, c)
        disagreements += got != want
        holds_count += got
    _report(capsys, 13, disagreements == 0,
            f"(eps, c)-expansion checker vs 2^|S| brute force on 1000 random cases (|S| <= 15): "
            f"{disagreements} disagreements ({holds_count} holding)")


def test_c14_diameter_band(capsys, diameter_records):
    med = _medians_by_n(diameter_records, "diameter")
    normed = {n: med[n] / math.log(num_vertices(n)) for n in med}
    spread = max(normed.values()) / min(normed.values())
    detail = ", ".join(f"n={n}: {v:.2f}" for n, v in normed.items())
    _report(capsys, 14, spread <= 2.0,
            f"r=1 median exact diameter / ln N across n ({detail}): spread {spread:.3f} <= 2")


def _growth_per_ln(med):
    """(t_mix / ln N at n = 32) / (t_mix / ln N at n = 8), from medians by n."""
    return (med[32] / math.log(num_vertices(32))) / (med[8] / math.log(num_vertices(8)))


def test_c15_critical_regime_order(capsys, mix_r1_records, mix_r2_records, mix_r4_records):
    # The growth threshold is frozen from the pilot (seed base 1000): the
    # geometric midpoint of its r = 1 and r = 2 growth of t_mix / ln N from
    # n = 8 to 32 (1.06 and 1.47), so 1.25.
    cal = support.load_calibration()
    pilot_r1 = cal["mix_r1_tmix_over_lnN"]["32"] / cal["mix_r1_tmix_over_lnN"]["8"]
    pilot_r2 = _growth_per_ln({int(n): t for n, t in cal["mix_r2_tmix"].items()})
    cut = math.sqrt(pilot_r1 * pilot_r2)
    med = {r: _medians_by_n(recs, "t_mix") for r, recs in
           ((1, mix_r1_records), (2, mix_r2_records), (4, mix_r4_records))}
    g1, g2 = _growth_per_ln(med[1]), _growth_per_ln(med[2])
    grows = g2 > cut and 1 / cut < g1 < cut
    # t_mix growth per doubling of n, at each doubling
    steps = {r: [med[r][2 * n] / med[r][n] for n in (8, 16)] for r in (2, 4)}
    slower = all(a < b for a, b in zip(steps[2], steps[4]))
    ordered = all(med[1][n] < med[2][n] < med[4][n] for n in (8, 16, 32))
    order = "; ".join(f"n={n}: {med[1][n]:g} < {med[2][n]:g} < {med[4][n]:g}" for n in (8, 16, 32))
    _report(capsys, 15, grows and slower and ordered,
            f"t_mix/ln N growth n=8->32: r=2 {g2:.2f} > {cut:.2f}, r=1 {g1:.2f} within 1/{cut:.2f}..{cut:.2f}; "
            f"per-doubling t_mix growth r=2 ({', '.join(f'{q:.2f}' for q in steps[2])}) below "
            f"r=4 ({', '.join(f'{q:.2f}' for q in steps[4])}); median t_mix r=1 < r=2 < r=4 ({order})")
