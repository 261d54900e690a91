"""Boundaries, conductance, expansion checks, box sets, diameter."""

import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import oracles
import support
from swmix import (
    CapacityError,
    ModelParams,
    SmallWorldGraph,
    ball_set,
    conductance,
    coord_to_index,
    count_connected_box_sets,
    cut_report,
    degree_sum,
    diameter,
    edge_boundary,
    exact_diameter,
    index_to_coord,
    is_expanding,
    make_box_partition,
    mask_from_indices,
    num_vertices,
    sample_graph,
    sweep_cut,
    torus_boundary_count,
    torus_distance,
    torus_only_graph,
    vertex_boundary,
)


def small_world(n=6, r=2.0, seed=1):
    return sample_graph(ModelParams(n=n, r=r, seed=seed))


def random_masks(graph, count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.random(graph.num_vertices) < rng.uniform(0.1, 0.9)


def test_edge_boundary_single_vertex_torus():
    g = torus_only_graph(3)
    S = mask_from_indices([17], 3)
    edges = edge_boundary(g, S)
    assert edges.shape == (4, 2)
    assert all(17 in pair for pair in edges.tolist())


def test_edge_boundary_full_set_empty():
    g = small_world()
    S = np.ones(g.num_vertices, dtype=bool)
    assert edge_boundary(g, S).shape == (0, 2)
    assert vertex_boundary(g, S).sum() == 0


def test_edge_boundary_empty_set_empty():
    g = small_world()
    S = np.zeros(g.num_vertices, dtype=bool)
    assert edge_boundary(g, S).shape == (0, 2)
    assert vertex_boundary(g, S).sum() == 0


def test_boundaries_match_edge_scan():
    g = small_world()
    edges = oracles.graph_edge_list(g)
    for S in random_masks(g, 25, seed=3):
        got = edge_boundary(g, S)
        assert [tuple(e) for e in got] == oracles.edge_boundary_pairs(edges, S)
        vb = vertex_boundary(g, S)
        assert np.flatnonzero(vb).tolist() == oracles.vertex_boundary_list(edges, S)


def test_boundary_inequalities():
    # |edge boundary| >= |vertex boundary|, torus boundary a subset of both
    g = small_world(seed=4)
    for S in random_masks(g, 25, seed=5):
        eb = edge_boundary(g, S)
        vb = int(vertex_boundary(g, S).sum())
        tb = int(torus_boundary_count(S, g.n))
        assert eb.shape[0] >= vb
        assert eb.shape[0] >= tb
        torus_pairs = {tuple(e) for e in np.sort(np.asarray(oracles.torus_edge_list(g.n)), axis=1).tolist()}
        graph_cut = {tuple(e) for e in eb.tolist()}
        torus_cut = {p for p in graph_cut if p in torus_pairs}
        assert len(torus_cut) == tb


def test_vertex_boundary_single_vertex():
    g = torus_only_graph(2)
    S = mask_from_indices([12], 2)
    vb = vertex_boundary(g, S)
    assert sorted(np.flatnonzero(vb)) == sorted(g.neighbours(12))


def test_conductance_singleton_torus():
    for n in (1, 2, 4):
        g = torus_only_graph(n)
        N = g.num_vertices
        S = mask_from_indices([0], n)
        assert conductance(g, S) == pytest.approx(N / (N - 1), rel=1e-15)


def test_conductance_complement_symmetric_exactly():
    g = small_world(seed=6)
    for S in random_masks(g, 30, seed=7):
        if not S.any() or S.all():
            continue
        assert conductance(g, S) == conductance(g, ~S)


def test_conductance_domain():
    g = torus_only_graph(1)
    with pytest.raises(ValueError):
        conductance(g, np.zeros(9, dtype=bool))
    with pytest.raises(ValueError):
        conductance(g, np.ones(9, dtype=bool))


def test_conductance_exhaustive_tiny():
    g = small_world(n=1, r=1.0, seed=8)
    edges = oracles.graph_edge_list(g)
    N = g.num_vertices
    for code in range(1, 2**N - 1):
        S = np.array([(code >> k) & 1 for k in range(N)], dtype=bool)
        expect = oracles.conductance_fraction(edges, S)
        assert conductance(g, S) == pytest.approx(float(expect), rel=1e-12)


def test_degree_sum_basics():
    g = torus_only_graph(3)
    for S in random_masks(g, 10, seed=9):
        assert degree_sum(g, S) == 4 * int(S.sum())
    h = small_world(seed=10)
    assert degree_sum(h, np.ones(h.num_vertices, dtype=bool)) == 2 * h.edge_count


def test_degree_sum_connected_fit_bounded():
    # fit constant for degree_sum / max(|S|, ln n) on random connected sets
    bound = support.load_calibration()["dsum_fit_bound"]
    rng = np.random.default_rng(2)
    worst = 0.0
    for seed in range(200):
        g = sample_graph(ModelParams(n=20, r=2.0, seed=seed))
        size = int(rng.integers(1, 65))
        S = support.random_connected_set(g, rng, size)
        fit = degree_sum(g, mask_from_indices(S, 20)) / max(S.size, math.log(20))
        worst = max(worst, fit)
    assert worst <= bound


def test_cut_report_consistency():
    g = small_world(seed=11)
    for S in random_masks(g, 10, seed=12):
        if not S.any() or S.all():
            continue
        rep = cut_report(g, S)
        assert rep.set_size == int(S.sum())
        assert rep.edge_boundary == edge_boundary(g, S).shape[0]
        assert rep.vertex_boundary == int(vertex_boundary(g, S).sum())
        assert rep.degree_sum == degree_sum(g, S)
        assert rep.conductance == conductance(g, S)
        assert rep.alpha == rep.set_size / g.num_vertices
        assert rep.conductance > 0


@pytest.mark.parametrize("params", [ModelParams(n=4, r=1.0, seed=3), None], ids=["r1", "torus"])
def test_entry_rows_built_once_and_match_repeat(params, monkeypatch):
    builds = []
    build = SmallWorldGraph.entry_rows.func

    def counting(graph):
        builds.append(graph)
        return build(graph)

    monkeypatch.setattr(SmallWorldGraph.entry_rows, "func", counting)
    g = torus_only_graph(4) if params is None else sample_graph(params)
    S = ball_set(4, 2)
    cut_report(g, S)
    is_expanding(g, S, 0.5, 1.0)
    sweep_cut(g)
    count_connected_box_sets(g, make_box_partition(4, 3), 2)
    rows = g.entry_rows
    assert len(builds) == 1
    assert np.array_equal(rows, np.repeat(np.arange(g.num_vertices), g.degrees))
    assert rows.dtype == np.int64
    assert not rows.flags.writeable


def test_is_expanding_singleton():
    g = torus_only_graph(2)
    S = mask_from_indices([7], 2)
    verdict = is_expanding(g, S, 0.5, 4.0)
    assert verdict.holds
    assert verdict.min_subset_size == 1
    assert verdict.worst_boundary == 4


def test_is_expanding_single_constraint():
    # plus-shaped set, interior centre; small epsilon leaves only S' = S,
    # so the verdict is exactly |boundary| >= c |S|
    n = 4
    g = torus_only_graph(n)
    idx = [coord_to_index(0, 0, n)] + [
        coord_to_index(x, y, n) for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1))
    ]
    S = mask_from_indices(idx, n)
    assert is_expanding(g, S, 0.1, 12 / 5).holds
    assert not is_expanding(g, S, 0.1, 12 / 5 + 0.01).holds


def test_is_expanding_validation():
    g = torus_only_graph(1)
    S = mask_from_indices([0], 1)
    with pytest.raises(ValueError):
        is_expanding(g, np.zeros(9, dtype=bool), 0.5, 1.0)
    with pytest.raises(ValueError):
        is_expanding(g, S, 0.0, 1.0)
    with pytest.raises(ValueError):
        is_expanding(g, S, 1.0, 1.0)
    with pytest.raises(ValueError):
        is_expanding(g, S, 0.5, 0.0)


def test_is_expanding_matches_bruteforce():
    rng = np.random.default_rng(13)
    graphs = [small_world(n=3, r=1.0, seed=s) for s in (1, 2)]
    for _ in range(150):
        g = graphs[int(rng.integers(len(graphs)))]
        size = int(rng.integers(1, 13))
        subset = rng.choice(g.num_vertices, size=size, replace=False)
        eps = float(rng.uniform(0.05, 0.95))
        c = float(rng.uniform(0.1, 5.0))
        verdict = is_expanding(g, mask_from_indices(subset, g.n), eps, c)
        brute = oracles.expansion_bruteforce(oracles.graph_edge_list(g), subset, eps, c)
        assert verdict.holds == brute, (size, eps, c)


def test_is_expanding_failure_witness():
    g = small_world(n=2, r=1.0, seed=14)
    rng = np.random.default_rng(15)
    seen_failure = False
    for _ in range(50):
        subset = rng.choice(g.num_vertices, size=10, replace=False)
        verdict = is_expanding(g, mask_from_indices(subset, 2), 0.3, 2.0)
        if not verdict.holds:
            seen_failure = True
            assert verdict.worst_boundary < verdict.required
            assert verdict.min_subset_size <= verdict.worst_subset_size <= verdict.set_size
    assert seen_failure


def test_min_conductance_exhaustive_tiny():
    g = small_world(n=1, r=0.5, seed=16)
    phi, witness = oracles.min_conductance_bruteforce(g)
    edges = oracles.graph_edge_list(g)
    N = g.num_vertices
    best = min(
        oracles.conductance_fraction(edges, np.array([(code >> k) & 1 for k in range(N)], dtype=bool))
        for code in range(1, 2**N - 1)
    )
    assert phi == pytest.approx(float(best), rel=1e-12)
    assert conductance(g, witness) == pytest.approx(phi, rel=1e-12)


def test_min_conductance_below_ball():
    g = torus_only_graph(2)
    phi, _ = oracles.min_conductance_bruteforce(g)
    assert phi <= conductance(g, ball_set(2, 1))


def test_min_conductance_connected_relation():
    g = small_world(n=2, r=1.5, seed=17)
    phi_all, _ = oracles.min_conductance_bruteforce(g)
    phi_conn, witness = oracles.min_conductance_bruteforce(g, connected_only=True)
    assert phi_conn >= phi_all
    assert conductance(g, witness) == pytest.approx(phi_conn, rel=1e-12)


def test_min_conductance_connected_matches_enumeration():
    g = small_world(n=1, r=1.0, seed=18)
    edges = oracles.graph_edge_list(g)
    N = g.num_vertices
    best = None
    for subset in oracles.connected_subsets(N, edges, N - 1):
        if len(subset) > N // 2:
            continue
        S = np.zeros(N, dtype=bool)
        S[list(subset)] = True
        val = oracles.conductance_fraction(edges, S)
        best = val if best is None else min(best, val)
    phi_conn, _ = oracles.min_conductance_bruteforce(g, connected_only=True)
    assert phi_conn == pytest.approx(float(best), rel=1e-12)


def test_min_conductance_capacity():
    with pytest.raises(CapacityError):
        oracles.min_conductance_bruteforce(torus_only_graph(3))  # N = 49 > 25
    with pytest.raises(CapacityError):
        oracles.min_conductance_bruteforce(torus_only_graph(11), connected_only=True)


def n9_graphs(r):
    """The twelve n = 1 graphs at exponent r, or the bare 3x3 torus for r=None."""
    if r is None:
        return [torus_only_graph(1)]
    return [small_world(n=1, r=r, seed=seed) for seed in range(12)]


@pytest.mark.parametrize("chunk", [oracles._SCAN_CHUNK, 32])
@pytest.mark.parametrize("r", [None, 0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 20.0])
def test_min_conductance_scan_matches_references(monkeypatch, r, chunk):
    # chunks of 32 codes split the 510 proper subsets of N = 9, so minimisers
    # tie across chunk borders as they do at N = 25 with the default chunk
    monkeypatch.setattr(oracles, "_SCAN_CHUNK", chunk)
    for g in n9_graphs(r):
        N = g.num_vertices
        edges = oracles.graph_edge_list(g)
        phi, witness = oracles.min_conductance_bruteforce(g)
        ref_phi, ref_witness = oracles.min_conductance_all_subsets_loop(g)
        assert phi == ref_phi
        assert witness.tolist() == ref_witness.tolist()
        phi_conn, conn = oracles.min_conductance_bruteforce(g, connected_only=True)
        assert phi_conn == oracles.min_conductance_anchored_growth(g)[0]
        exact, code = oracles.min_conductance_connected_codes(N, edges)
        assert phi_conn == float(exact)
        assert sum(1 << int(v) for v in np.flatnonzero(conn)) == code
        assert nx.is_connected(nx.Graph(edges).subgraph(np.flatnonzero(conn).tolist()))


def test_min_conductance_connected_shares_cap():
    with pytest.raises(CapacityError):
        oracles.min_conductance_bruteforce(torus_only_graph(3), connected_only=True)  # N = 49 > 25


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
def test_sweep_cut_matches_loop(n):
    graphs = [small_world(n=n, r=r, seed=seed) for r in (0.0, 1.0, 2.0, 4.0) for seed in (1, 2, 3)]
    for g in graphs + [torus_only_graph(n)]:
        reports = sweep_cut(g)
        assert reports == oracles.sweep_cut_loop(g)
        for rep in reports:
            assert type(rep.edge_boundary) is type(rep.vertex_boundary) is type(rep.degree_sum) is int
            assert type(rep.conductance) is float


def test_sweep_cut_report_count_and_bound():
    g = small_world(n=2, r=1.0, seed=19)
    reports = sweep_cut(g)
    assert len(reports) == g.num_vertices - 1
    for k, rep in enumerate(reports):
        assert rep.set_size == k + 1
        assert rep.alpha == pytest.approx((k + 1) / g.num_vertices)
    sweep_min = min(rep.conductance for rep in reports)
    exact, _ = oracles.min_conductance_bruteforce(g)
    assert sweep_min >= exact - 1e-12


def test_sweep_cut_finds_good_torus_cut():
    # on the bare torus the sweep minimum should compete with a half strip
    n = 6
    g = torus_only_graph(n)
    half = mask_from_indices(
        [coord_to_index(x, y, n) for x in range(-n, 0) for y in range(-n, n + 1)], n
    )
    sweep_min = min(rep.conductance for rep in sweep_cut(g))
    assert sweep_min <= 3 * conductance(g, half)


def test_ball_set_examples():
    S = ball_set(5, 2)
    assert int(S.sum()) == 13
    for n in (3, 6):
        for L in range(1, n + 1):
            b = ball_set(n, L)
            assert int(b.sum()) == 1 + 2 * L * (L + 1)
    with pytest.raises(ValueError):
        ball_set(4, 0)
    with pytest.raises(ValueError):
        ball_set(4, 5)
    for bad in support.NON_INTEGERS:
        with pytest.raises(TypeError, match="radius"):
            ball_set(4, bad)


def test_ball_torus_boundary_closed_form():
    # 8L + 4 cut edges while the ball does not wrap; 8n once L = n because
    # the four antipodal tip pairs become adjacent
    for n in (3, 5, 8):
        for L in range(1, n):
            assert torus_boundary_count(ball_set(n, L), n) == 8 * L + 4
        assert torus_boundary_count(ball_set(n, n), n) == 8 * n


def test_ball_is_the_metric_ball():
    n, L = 4, 3
    S = ball_set(n, L)
    for v in range(num_vertices(n)):
        inside = torus_distance(index_to_coord(v, n), (0, 0), n) <= L
        assert S[v] == inside


def test_box_set_count_q1_and_pairs():
    n = 3
    g = torus_only_graph(n)
    part = make_box_partition(n, 3)
    assert count_connected_box_sets(g, part, 1) == part.num_boxes
    # q=2 on the bare torus: adjacent box pairs by direct scan
    edges = set()
    for u, v in oracles.torus_edge_list(n):
        a, b = part.labels[u], part.labels[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    assert count_connected_box_sets(g, part, 2) == len(edges)


def test_box_set_count_matches_bruteforce():
    for seed in (1, 2):
        g = sample_graph(ModelParams(n=3, r=1.0, seed=seed))
        part = make_box_partition(3, 2)
        box_edges = set()
        for u, v in oracles.graph_edge_list(g):
            a, b = part.labels[u], part.labels[v]
            if a != b:
                box_edges.add((int(min(a, b)), int(max(a, b))))
        brute = oracles.count_box_sets_brute(part.num_boxes, sorted(box_edges), 3)
        for q in (1, 2, 3):
            assert count_connected_box_sets(g, part, q) == brute[q], (seed, q)


@pytest.mark.parametrize("r", [0.0, 1.0])
@pytest.mark.parametrize("n, ell", [(8, 2), (15, 4)], ids=["Q64", "Q49"])
def test_box_set_count_matches_enumeration_at_caps(n, ell, r):
    # the bit-mask growth against the set-based enumerator, at both cap corners
    g = sample_graph(ModelParams(n=n, r=r, seed=3))
    part = make_box_partition(n, ell)
    assert part.num_boxes == {2: 64, 4: 49}[ell]
    expect = oracles.count_box_sets_enumerated(g, part, 4)
    assert [count_connected_box_sets(g, part, q) for q in (1, 2, 3, 4)] == [expect[q] for q in (1, 2, 3, 4)]


def test_box_set_count_rejects_non_integer_q():
    g = torus_only_graph(3)
    part = make_box_partition(3, 2)
    with pytest.raises(TypeError):
        count_connected_box_sets(g, part, 2.5)
    with pytest.raises(TypeError):
        count_connected_box_sets(g, part, "2")
    assert count_connected_box_sets(g, part, np.int64(2)) == count_connected_box_sets(g, part, 2)
    with pytest.raises(ValueError):
        count_connected_box_sets(g, part, 0)
    with pytest.raises(ValueError):
        count_connected_box_sets(g, make_box_partition(4, 2), 2)


def test_box_set_capacity():
    g = torus_only_graph(10)
    part = make_box_partition(10, 2)  # 11x11 strips -> 121 boxes > 64
    with pytest.raises(CapacityError):
        count_connected_box_sets(g, part, 2)
    small = make_box_partition(10, 5)
    with pytest.raises(CapacityError):
        count_connected_box_sets(g, small, 5)


def test_wq_bound_small_sample():
    # seed-mean W_q against the coarse expectation bound n^2 (40 l^2)^q
    n, ell = 6, 2
    part = make_box_partition(n, ell)
    for q in (1, 2, 3):
        counts = [
            count_connected_box_sets(sample_graph(ModelParams(n=n, r=1.0, seed=s)), part, q)
            for s in range(30)
        ]
        assert np.mean(counts) <= n**2 * (40 * ell**2) ** q


def test_diameter_pure_torus():
    for n in (2, 5, 9):
        assert diameter(torus_only_graph(n))[0] == 2 * n


def test_diameter_capacity():
    g = torus_only_graph(159)  # N = 101,761 > DIAMETER_MAX_VERTICES
    with pytest.raises(CapacityError):
        diameter(g)


def test_diameter_lower_bound_mode():
    for seed in (1, 2, 3):
        g = small_world(n=5, r=1.0, seed=seed)
        hi, lo = diameter(g)
        assert lo <= hi


def test_diameter_matches_allpairs():
    for n, r, seed in ((2, 1.0, 1), (3, 2.0, 2), (4, 0.5, 3)):
        g = sample_graph(ModelParams(n=n, r=r, seed=seed))
        expect = oracles.diameter_allpairs(g.num_vertices, oracles.graph_edge_list(g))
        assert diameter(g)[0] == expect
        assert exact_diameter(g)[0] == expect


def test_m_hat_cap_and_no_growth():
    # internal-degree statistic over random sets stays small and flat in n
    cal = support.load_calibration()
    values = {}
    for n in (10, 20, 40):
        g = sample_graph(ModelParams(n=n, r=1.0, seed=101))
        N = g.num_vertices
        rng = np.random.default_rng(n)
        worst = 0.0
        for _ in range(500):
            size = int(rng.integers(1, N // 2 + 1))
            S = mask_from_indices(rng.choice(N, size=size, replace=False), n)
            rep = cut_report(g, S)
            worst = max(worst, (rep.degree_sum - rep.edge_boundary) / rep.set_size)
        values[n] = worst
        assert worst <= 30.0
    assert values[20] <= 1.15 * values[10]
    assert values[40] <= 1.15 * values[10]
    # pilot values recorded for comparison
    assert set(cal["m_hat_max"]) == {"10", "20", "40"}


def test_vertex_expansion_box_like_sets():
    # ratio |vertex boundary| ln n / (|S| ln(1/alpha)) above the pilot floor
    floor = support.load_calibration()["vx_ratio_floor"]
    n = 40
    part = make_box_partition(n, 2)
    passes = 0
    seeds = 200
    for seed in range(seeds):
        g = sample_graph(ModelParams(n=n, r=2.0, seed=seed))
        N = g.num_vertices
        rng = np.random.default_rng(seed)
        target = rng.uniform(0.1, 0.5) * N
        chosen = np.zeros(part.num_boxes, dtype=bool)
        covered = 0
        for box in rng.permutation(part.num_boxes):
            chosen[box] = True
            covered += int(part.sizes[box])
            if covered >= target:
                break
        S = chosen[part.labels]
        alpha = covered / N
        vb = int(vertex_boundary(g, S).sum())
        ratio = vb * math.log(n) / (covered * math.log(1.0 / alpha))
        passes += ratio >= floor
    assert passes >= 0.95 * seeds


def test_random_large_sets_are_expanding():
    # (0.1, 0.05)-expansion for random sets of size >= N/10 at r = 1
    n = 40
    N = num_vertices(n)
    passes = 0
    seeds = 200
    for seed in range(seeds):
        g = sample_graph(ModelParams(n=n, r=1.0, seed=seed))
        rng = np.random.default_rng(10_000 + seed)
        size = int(rng.integers(math.ceil(N / 10), N // 2 + 1))
        S = mask_from_indices(rng.choice(N, size=size, replace=False), n)
        passes += is_expanding(g, S, 0.1, 0.05).holds
    assert passes >= 0.95 * seeds
