"""Lazy random walk: stationary law, TV decay, mixing time, spectral gap."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from support import NON_INTEGERS
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
from swmix.harness import derive_seed


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
    with pytest.raises(ValueError):
        step_distribution(g, mu[:-1])
    mu[v + 1] = -0.5
    with pytest.raises(ValueError):
        step_distribution(g, mu)


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
    with pytest.raises(ValueError):
        tv_distance(a, b[:-1])


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


def stride_graphs():
    # t_mix 43, 57, 38 and 37: past the fixed-stride probes of the
    # stride-and-bisect reference search (oracles.mixing_time_stride_bisect).
    return [torus_only_graph(6), torus_only_graph(7),
            sample_graph(ModelParams(n=6, r=4.0, seed=1)), sample_graph(ModelParams(n=6, r=4.0, seed=3))]


def test_mixing_time_matches_powering_oracle():
    graphs = [sample_graph(ModelParams(n=n, r=r, seed=seed))
              for n, r, seed in ((1, 0.5, 1), (2, 1.0, 2), (2, 3.0, 3), (3, 2.0, 4))]
    t_mixes = []
    for g in graphs + stride_graphs():
        est = mixing_time(g, starts="all")
        kernel = oracles.dense_lazy_kernel(g)
        pi = oracles.stationary_from_edges(g)
        assert est.t_mix == oracles.mixing_time_by_powering(kernel, pi), g.params
        t_mixes.append(est.t_mix)
    assert max(t_mixes) > 48


def stepwise_column_tv(g, start_vertices, t_max):
    # Twice the TV of every start column at t = 0..t_max, one step at a time.
    kernel_t = walk._kernel_transpose(g)
    pi = stationary(g)[:, None]
    Y = np.zeros((g.num_vertices, start_vertices.size))
    Y[start_vertices, np.arange(start_vertices.size)] = 1.0
    cols = [np.abs(Y - pi).sum(axis=0)]
    for t in range(t_max):
        Y = walk._evolve(kernel_t, Y, t, t + 1)
        cols.append(np.abs(Y - pi).sum(axis=0))
    return cols


def counted_mixing_time(monkeypatch, g, **kwargs):
    """(estimate or ConvergenceError, kernel products) of one mixing_time call."""
    products = []
    evolve = walk._evolve

    def counting_evolve(kernel_t, Y, t_from, t_to):
        products.append(t_to - t_from)
        return evolve(kernel_t, Y, t_from, t_to)

    with monkeypatch.context() as m:
        m.setattr(walk, "_evolve", counting_evolve)
        try:
            result = mixing_time(g, **kwargs)
        except ConvergenceError as err:
            result = err
    return result, sum(products)


def check_search(g, curve, epsilon, start_vertices):
    """Check a search's curve against the stepwise evolution of its start
    columns; returns how often the tracked column changed, counting its pick
    at t = 0, and the stepwise worst TV at t = 0..last t of the curve."""
    ts = [t for t, _ in curve]
    assert ts[0] == 0 and ts == sorted(set(ts))
    cols = stepwise_column_tv(g, start_vertices, ts[-1])
    worst = [0.5 * float(c.max()) for c in cols]
    for t, tv in curve:
        assert tv == worst[t], (g.params, t)
    for t, tv in curve[:-1]:
        assert tv > epsilon, (g.params, t)
    # the failed evaluations pick the tracked column
    picks = [int(cols[t].argmax()) for t, _ in curve[:-1]]
    return 1 + sum(a != b for a, b in zip(picks, picks[1:])), worst


def test_mixing_curve_matches_stepwise_evolution(monkeypatch):
    for g in [small_world(n=2, r=1.0, seed=9)] + stride_graphs():
        est, products = counted_mixing_time(monkeypatch, g, starts="all")
        changes, worst = check_search(g, est.curve, est.epsilon, est.start_vertices)
        assert est.t_mix == next(t for t, tv in enumerate(worst) if tv <= est.epsilon)
        # t_mix kernel products, and full evaluations at t = 0, at t_mix and
        # only where the tracked column changed in between
        assert products == est.t_mix == est.curve[-1][0], g.params
        assert len(est.curve) <= 1 + changes


def test_mixing_time_matches_stride_bisect_oracle():
    # the nine mix_transition shapes at seed bases 0-2, then every epsilon on
    # all starts and on explicit start lists of size 1 and 2
    graph_cases = [(sample_graph(ModelParams(n=n, r=r, seed=derive_seed(base, n, r, 0))), "auto", 0.25)
                   for base in range(3) for n in (8, 16, 24) for r in (1.0, 2.0, 4.0)]
    small, strided = small_world(n=2, r=1.0, seed=9), stride_graphs()
    for eps in (0.1, 0.25, 0.5, 1.0):
        graph_cases += [(g, "all", eps) for g in strided]
        graph_cases += [(small, [7], eps), (small, [0, 13], eps), (strided[0], [24], eps)]
    switched = False
    for g, starts, eps in graph_cases:
        est = mixing_time(g, starts=starts, epsilon=eps)
        t_mix, start_vertices = oracles.mixing_time_stride_bisect(g, starts, eps)
        assert est.t_mix == t_mix, (g.params, starts, eps)
        assert np.array_equal(est.start_vertices, start_vertices)
        assert est.curve[-1][0] == t_mix and est.curve[-1][1] <= eps
        switched |= check_search(g, est.curve, eps, est.start_vertices)[0] > 1
    assert switched  # a failed full evaluation after t = 0 moved the tracked column


def test_mixing_search_cost(monkeypatch):
    # exactly t_mix kernel products, or _MAX_STEPS when the search gives up,
    # and no full evaluation but the last leaves the tracked column in place
    cases = [(small_world(n=2, r=1.0, seed=9), eps) for eps in (0.1, 0.5, 1.0)]
    cases += [(sample_graph(ModelParams(n=8, r=r, seed=derive_seed(0, 8, r, 0))), 0.25) for r in (1.0, 2.0, 4.0)]
    for g, eps in cases:
        est, products = counted_mixing_time(monkeypatch, g, starts="all", epsilon=eps)
        assert products == est.t_mix, g.params
        assert len(est.curve) <= 1 + check_search(g, est.curve, eps, est.start_vertices)[0]
    g = torus_only_graph(6)
    monkeypatch.setattr(walk, "_MAX_STEPS", 30)
    err, products = counted_mixing_time(monkeypatch, g, starts="all")
    assert isinstance(err, ConvergenceError)
    assert products == 30
    assert len(err.last_iterate) <= 1 + check_search(g, err.last_iterate, 0.25, np.arange(g.num_vertices))[0]


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
    # the far vertex of vertex 0 (12) plus the 32 uniforms, one of them drawn twice
    assert starts.tolist() == [
        12, 34, 40, 42, 48, 50, 55, 65, 96, 104, 115, 139, 182, 303, 323, 324,
        328, 410, 414, 453, 484, 486, 497, 498, 512, 532, 570, 576, 601, 605, 607, 609,
    ]


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


def test_second_eigenpair_iteration_cap(monkeypatch):
    g = sample_graph(ModelParams(n=6, r=1.0, seed=3))
    lam, _ = second_eigenpair(g)
    monkeypatch.setattr(walk, "_MAX_RESTARTS", 1)
    with pytest.raises(ConvergenceError) as info:
        second_eigenpair(g)
    err = info.value
    assert err.iterations == 1
    assert err.last_iterate.shape == (g.num_vertices,)
    assert np.linalg.norm(err.last_iterate) == pytest.approx(1.0)
    # Rayleigh quotient of a vector orthogonal to sqrt(pi): a lower bound
    assert 0.0 <= err.last_value <= lam + 1e-12


def test_mixing_time_step_cap(monkeypatch):
    graphs = (small_world(n=2, r=1.0, seed=9), torus_only_graph(6))
    t_mixes = [mixing_time(g, starts="all").t_mix for g in graphs]
    assert t_mixes[1] == 43
    for g, t_mix in zip(graphs, t_mixes):
        monkeypatch.setattr(walk, "_MAX_STEPS", t_mix)
        est = mixing_time(g, starts="all")
        assert est.t_mix == t_mix and max(t for t, _ in est.curve) == t_mix
        cap = t_mix - 1
        monkeypatch.setattr(walk, "_MAX_STEPS", cap)
        with pytest.raises(ConvergenceError) as info:
            mixing_time(g, starts="all")
        err = info.value
        assert err.iterations == cap
        ts = [t for t, _ in err.last_iterate]
        assert ts[0] == 0 and ts[-1] == cap and ts == sorted(ts)
        assert err.last_value == err.last_iterate[-1][1] > 0.25
    # every column of the vertex-transitive torus is equally far from pi, so
    # the tracked column at t = 0 fails until the cap forces a full evaluation
    assert ts == [0, 42]


def test_walk_inputs_must_be_integers():
    g = small_world()
    for bad in (2.7,) + NON_INTEGERS:
        with pytest.raises(TypeError, match="step count"):
            distance_to_stationarity(g, 3, bad)
    with pytest.raises(TypeError):
        distance_to_stationarity(g, 3.2, 2)
    with pytest.raises(TypeError):
        mixing_time(g, starts=[0.9, 5.5])
    with pytest.raises(TypeError):
        mixing_time(g, starts=np.array([0.0, 5.0]))
    with pytest.raises(ValueError):
        mixing_time(g, starts=[])
    assert distance_to_stationarity(g, np.int64(3), np.int32(2)) == distance_to_stationarity(g, 3, 2)
    with pytest.raises(TypeError):
        sample_trajectory(g, 3.2, 5, np.random.default_rng(0))
    with pytest.raises(TypeError):
        sample_trajectory(g, 3, 5.0, np.random.default_rng(0))
    np.testing.assert_array_equal(sample_trajectory(g, np.int64(3), np.int32(5), np.random.default_rng(0)),
                                  sample_trajectory(g, 3, 5, np.random.default_rng(0)))
    est = mixing_time(g, starts=np.array([5, 0], dtype=np.uint16))
    assert est.start_vertices.tolist() == [0, 5]
    assert est.t_mix == mixing_time(g, starts=[0, 5]).t_mix


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


def test_relaxation_bounds_reject_epsilon_outside_unit_interval():
    for epsilon in (0, -0.25, 1.5):
        with pytest.raises(ValueError, match="epsilon"):
            relaxation_bounds(0.5, 0.1, epsilon=epsilon)
    assert relaxation_bounds(0.5, 0.1, epsilon=1)[1] == pytest.approx(2 * math.log(10))


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
