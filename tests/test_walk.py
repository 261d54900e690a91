"""Lazy random walk: stationary law, TV decay, mixing time, spectral gap."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from swmix import (
    ConvergenceError,
    ModelParams,
    coord_to_index,
    distance_to_stationarity,
    lazy_kernel,
    mixing_time,
    num_vertices,
    relaxation_bounds,
    sample_graph,
    sample_trajectory,
    second_eigenpair,
    spectral_gap,
    stationary,
    step_distribution,
    torus_only_graph,
    tv_distance,
)
from swmix import walk


def small_world(n=3, r=1.5, seed=7):
    return sample_graph(ModelParams(n=n, r=r, seed=seed))


def test_stationary_uniform_on_torus():
    g = torus_only_graph(4)
    pi = stationary(g)
    np.testing.assert_allclose(pi, 1.0 / g.num_vertices, rtol=1e-15)


def test_stationary_matches_degree_formula():
    g = small_world()
    pi = stationary(g)
    np.testing.assert_allclose(pi, oracles.stationary_from_edges(g), rtol=1e-13)
    # exact unit mass in rational arithmetic
    total = sum(Fraction(int(d), 2 * g.edge_count) for d in g.degrees)
    assert total == 1


def test_stationary_is_fixed_point():
    g = small_world(seed=21)
    pi = stationary(g)
    after = step_distribution(g, pi)
    np.testing.assert_allclose(after, pi, atol=1e-10)


def test_lazy_kernel_rows_and_laziness():
    g = small_world(seed=2)
    P = lazy_kernel(g).toarray()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert (P.diagonal() >= 0.5 - 1e-15).all()
    np.testing.assert_allclose(P, oracles.dense_lazy_kernel(g), atol=1e-14)


def test_step_distribution_point_mass():
    g = torus_only_graph(2)
    v = coord_to_index(0, 0, 2)
    mu = np.zeros(g.num_vertices)
    mu[v] = 1.0
    out = step_distribution(g, mu)
    assert out[v] == pytest.approx(0.5)
    for w in g.neighbours(v):
        assert out[w] == pytest.approx(0.5 / 4)
    assert out.sum() == pytest.approx(1.0, rel=1e-13)


def test_two_steps_match_dense_power():
    g = small_world(n=1, r=0.5, seed=4)
    P = oracles.dense_lazy_kernel(g)
    mu = np.zeros(g.num_vertices)
    mu[3] = 1.0
    two = step_distribution(g, step_distribution(g, mu))
    np.testing.assert_allclose(two, mu @ P @ P, atol=1e-13)


def test_tv_distance_basics():
    mu = np.zeros(9)
    mu[0] = 1.0
    nu = np.zeros(9)
    nu[5] = 1.0
    assert tv_distance(mu, mu) == 0.0
    assert tv_distance(mu, nu) == pytest.approx(1.0)
    uniform = np.full(9, 1.0 / 9)
    assert tv_distance(mu, uniform) == pytest.approx(1.0 - 1.0 / 9)
    rng = np.random.default_rng(0)
    a = rng.dirichlet(np.ones(9))
    b = rng.dirichlet(np.ones(9))
    assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
    assert tv_distance(a, b) == pytest.approx(0.5 * np.abs(a - b).sum())


def test_distance_to_stationarity_endpoints():
    g = small_world(seed=5)
    pi = stationary(g)
    for v in (0, 17, g.num_vertices - 1):
        assert distance_to_stationarity(g, v, 0) == pytest.approx(1.0 - pi[v])
    assert distance_to_stationarity(g, 0, 4000) < 1e-3


def test_distance_to_stationarity_monotone():
    rng = np.random.default_rng(8)
    for seed in (1, 2, 3):
        g = small_world(n=2, r=1.0, seed=seed)
        for _ in range(40):
            v = int(rng.integers(g.num_vertices))
            t = int(rng.integers(0, 60))
            d0 = distance_to_stationarity(g, v, t)
            d1 = distance_to_stationarity(g, v, t + 1)
            assert d1 <= d0 + 1e-12


def test_mass_conserved_over_long_runs():
    g = small_world(n=3, r=2.0, seed=13)
    mu = np.zeros(g.num_vertices)
    mu[10] = 1.0
    for _ in range(10_000):
        mu = step_distribution(g, mu)
    assert abs(mu.sum() - 1.0) < 1e-9


def test_reversibility():
    g = small_world(n=2, r=1.0, seed=6)
    pi = stationary(g)
    P = lazy_kernel(g).toarray()
    # detailed balance holds exactly: both sides are 1 / (4|E|) on edges
    for u in range(g.num_vertices):
        for v in g.neighbours(u):
            lhs = Fraction(int(g.degrees[u]), 2 * g.edge_count) * Fraction(1, 2 * int(g.degrees[u]))
            rhs = Fraction(int(g.degrees[v]), 2 * g.edge_count) * Fraction(1, 2 * int(g.degrees[v]))
            assert lhs == rhs == Fraction(1, 4 * g.edge_count)
    np.testing.assert_allclose(pi[:, None] * P, (pi[:, None] * P).T, atol=1e-15)


def test_mixing_time_epsilon_domain():
    g = torus_only_graph(1)
    assert mixing_time(g, starts="all", epsilon=1.0).t_mix == 0
    with pytest.raises(ValueError):
        mixing_time(g, epsilon=0.0)
    with pytest.raises(ValueError):
        mixing_time(g, epsilon=1.5)


def test_mixing_time_exact_torus():
    g = torus_only_graph(1)
    est = mixing_time(g, starts="all")
    kernel = oracles.dense_lazy_kernel(g)
    pi = oracles.stationary_from_edges(g)
    assert est.exact
    assert est.t_mix == oracles.mixing_time_by_powering(kernel, pi)


def test_mixing_time_matches_powering_oracle():
    for n, r, seed in ((1, 0.5, 1), (2, 1.0, 2), (2, 3.0, 3), (3, 2.0, 4)):
        g = sample_graph(ModelParams(n=n, r=r, seed=seed))
        est = mixing_time(g, starts="all")
        kernel = oracles.dense_lazy_kernel(g)
        pi = oracles.stationary_from_edges(g)
        assert est.t_mix == oracles.mixing_time_by_powering(kernel, pi), (n, r, seed)


def test_mixing_time_threshold_is_tight():
    g = small_world(n=2, r=1.0, seed=9)
    est = mixing_time(g, starts="all", epsilon=0.25)
    worst_at = lambda t: max(distance_to_stationarity(g, int(v), t) for v in est.start_vertices)
    assert worst_at(est.t_mix) <= 0.25
    assert est.t_mix == 0 or worst_at(est.t_mix - 1) > 0.25


def test_mixing_time_subset_starts_lower():
    g = small_world(n=2, r=1.5, seed=10)
    full = mixing_time(g, starts="all")
    part = mixing_time(g, starts=[0, 5, 11])
    assert not part.exact
    assert part.t_mix <= full.t_mix


def test_mixing_curve_is_consistent():
    g = small_world(n=2, r=2.0, seed=11)
    est = mixing_time(g, starts="all")
    ts = [t for t, _ in est.curve]
    assert ts == sorted(ts)
    by_t = dict(est.curve)
    assert by_t[est.t_mix] <= est.epsilon
    for t, tv in est.curve:
        if t < est.t_mix:
            assert tv > est.epsilon


def test_heuristic_starts_are_valid():
    g = sample_graph(ModelParams(n=12, r=1.0, seed=3))
    starts = mixing_time(g, starts="heuristic").start_vertices
    assert starts.size >= 1
    assert np.unique(starts).size == starts.size
    assert starts.min() >= 0 and starts.max() < g.num_vertices
    again = mixing_time(g, starts="heuristic").start_vertices
    assert np.array_equal(starts, again)


def test_spectral_gap_torus_closed_form():
    for n in (1, 2, 3):
        g = torus_only_graph(n)
        expect = (1.0 - math.cos(2 * math.pi / (2 * n + 1))) / 4.0
        assert spectral_gap(g) == pytest.approx(expect, abs=1e-6)


def test_second_eigenpair_matches_dense():
    # r = 4 splits lambda_2 from lambda_3 only by a few long-range edges;
    # the pure torus has lambda_2 of multiplicity four.
    graphs = [small_world(n=2, r=1.0, seed=12)]
    graphs += [sample_graph(ModelParams(n=n, r=r, seed=seed))
               for n, r, seed in ((1, 1.0, 3), (2, 2.0, 1), (3, 0.5, 8), (4, 4.0, 2), (5, 4.0, 5), (5, 1.0, 6))]
    graphs += [torus_only_graph(3), torus_only_graph(5)]
    for g in graphs:
        lam, vec = second_eigenpair(g)
        kernel = oracles.dense_lazy_kernel(g)
        pi = oracles.stationary_from_edges(g)
        dense_gap = oracles.spectral_gap_dense(kernel, pi)
        assert 1.0 - lam == pytest.approx(dense_gap, abs=1e-6)
        # eigen residual of the symmetrized operator
        root = np.sqrt(pi)
        sym = root[:, None] * kernel / root[None, :]
        sym = (sym + sym.T) / 2.0
        assert abs(lam - np.linalg.eigh(sym)[0][-2]) <= 1e-10, g.params
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(sym @ vec - lam * vec) <= 1e-9, g.params
        assert 0.0 < 1.0 - lam <= 1.0


def test_second_eigenpair_iteration_cap():
    g = sample_graph(ModelParams(n=6, r=1.0, seed=3))
    lam, _ = second_eigenpair(g)
    with pytest.raises(ConvergenceError) as info:
        second_eigenpair(g, max_iter=1)
    err = info.value
    assert err.iterations == 1
    assert err.last_iterate.shape == (g.num_vertices,)
    assert np.linalg.norm(err.last_iterate) == pytest.approx(1.0)
    # Rayleigh quotient of a vector orthogonal to sqrt(pi): a lower bound
    assert 0.0 <= err.last_value <= lam + 1e-12


def test_mixing_time_step_cap(monkeypatch):
    g = small_world(n=2, r=1.0, seed=9)
    t_mix = mixing_time(g, starts="all").t_mix
    monkeypatch.setattr(walk, "_MAX_STEPS", t_mix)
    assert mixing_time(g, starts="all").t_mix == t_mix
    cap = t_mix - 1
    monkeypatch.setattr(walk, "_MAX_STEPS", cap)
    with pytest.raises(ConvergenceError) as info:
        mixing_time(g, starts="all")
    err = info.value
    assert err.iterations == cap
    ts = [t for t, _ in err.last_iterate]
    assert ts[0] == 0 and ts[-1] == cap and ts == sorted(ts)
    assert err.last_value == err.last_iterate[-1][1] > 0.25


def test_relaxation_sandwich():
    for seed in (1, 2, 3, 4, 5):
        g = small_world(n=2, r=1.0, seed=seed)
        est = mixing_time(g, starts="all")
        gap = spectral_gap(g)
        pi_min = float(stationary(g).min())
        lo, hi = relaxation_bounds(gap, pi_min)
        assert lo <= est.t_mix <= hi
        assert lo == pytest.approx((1.0 / gap - 1.0) * math.log(2.0))
        assert hi == pytest.approx(math.log(4.0 / pi_min) / gap)


def test_trajectory_shape_and_moves():
    g = small_world(n=3, r=1.0, seed=14)
    rng = np.random.default_rng(0)
    traj = sample_trajectory(g, 5, 200, rng)
    assert traj.shape == (201,)
    assert traj[0] == 5
    for a, b in zip(traj, traj[1:]):
        assert a == b or b in g.neighbours(int(a))
    assert sample_trajectory(g, 7, 0, rng).tolist() == [7]


def test_trajectory_one_step_law():
    g = torus_only_graph(2)
    v = coord_to_index(0, 0, 2)
    rng = np.random.default_rng(123)
    samples = 20_000
    stays = 0
    hits = {int(w): 0 for w in g.neighbours(v)}
    for _ in range(samples):
        nxt = int(sample_trajectory(g, v, 1, rng)[1])
        if nxt == v:
            stays += 1
        else:
            hits[nxt] += 1
    assert abs(stays / samples - 0.5) < 4 * 0.5 / math.sqrt(samples)
    for w, count in hits.items():
        p = count / samples
        assert abs(p - 0.125) < 4 * math.sqrt(0.125 * 0.875 / samples), w
