"""BFS kernels against networkx: eccentricities, exact diameter, distances, slot layout."""

import networkx as nx
import numpy as np
import pytest

import oracles
from swmix import (
    ModelParams,
    SmallWorldGraph,
    bfs_distances,
    double_sweep,
    exact_diameter,
    sample_graph,
    torus_only_graph,
)
from swmix import bfs
from swmix.bfs import _settled, eccentricities


def nx_graph(graph):
    """networkx copy built from the torus moves and the long-range edge list."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(oracles.graph_edge_list(graph))
    return g


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 257])
def test_eccentricities_match_networkx(r, count):
    # 63/64/65 straddle a uint64 word, 257 straddles a 256-source batch
    rng = np.random.default_rng(count)
    for n, seed in ((1, 3), (4, 5), (8, 7)):
        g = sample_graph(ModelParams(n=n, r=r, seed=seed))
        expect = nx.eccentricity(nx_graph(g))
        sources = rng.integers(g.num_vertices, size=count)
        got = eccentricities(g, sources)
        assert got.dtype == np.int64
        assert got.tolist() == [expect[int(v)] for v in sources]


def test_eccentricities_unsorted_and_duplicated_sources():
    g = sample_graph(ModelParams(n=6, r=1.0, seed=11))
    expect = nx.eccentricity(nx_graph(g))
    # duplicates both inside one word and across words and batches
    sources = np.array([100, 3, 100, 168, 0, 3, 57] * 50)
    got = eccentricities(g, sources)
    assert got.tolist() == [expect[int(v)] for v in sources]
    # a bare torus is vertex-transitive: every eccentricity is 2n
    assert eccentricities(torus_only_graph(5), [120, 0, 0, 7]).tolist() == [10] * 4


def test_eccentricities_empty_and_bad_shape():
    g = torus_only_graph(3)
    out = eccentricities(g, [])
    assert out.shape == (0,) and out.dtype == np.int64
    with pytest.raises(ValueError):
        eccentricities(g, np.zeros((2, 2), dtype=np.int64))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 6.0])
def test_exact_diameter_and_double_sweep_match_networkx(r):
    for n, seed in ((6, 1), (8, 2), (10, 3)):
        g = sample_graph(ModelParams(n=n, r=r, seed=seed))
        expect = nx.diameter(nx_graph(g))
        assert exact_diameter(g) == expect
        far, dist, bound = double_sweep(g)
        assert bound == int(dist.max()) <= expect
        assert dist[far] == 0


@pytest.mark.parametrize(
    "n, r, seed",
    [(n, r, seed) for n in (1, 2, 3, 5, 8, 12, 16, 20) for r in (0, 0.5, 1.0, 2.0, 4.0, 8.0) for seed in range(3)]
    # settling ecc(s) + d(s, v) <= lb + 1 instead of <= lb returns D - 1 on these
    + [(3, 6.0, 3), (4, 6.0, 8), (5, 2.0, 6), (8, 2.5, 7)],
)
def test_exact_diameter_matches_all_eccentricities(n, r, seed):
    # the pruned search against the largest eccentricity over every source
    g = sample_graph(ModelParams(n=n, r=r, seed=seed))
    assert exact_diameter(g) == int(eccentricities(g, np.arange(g.num_vertices)).max())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
def test_exact_diameter_bare_torus_matches_all_eccentricities(n):
    # every eccentricity is 2n, so no source settles any vertex but itself
    g = torus_only_graph(n)
    assert exact_diameter(g) == int(eccentricities(g, np.arange(g.num_vertices)).max()) == 2 * n


@pytest.mark.parametrize("seed", range(5))
def test_exact_diameter_prunes_sources(seed, monkeypatch):
    # the fringe order alone searches from 51-75% of these graphs' vertices
    g = sample_graph(ModelParams(n=24, r=1.0, seed=seed))
    expect = int(eccentricities(g, np.arange(g.num_vertices)).max())
    counted = []

    def counting(graph, sources):
        counted.append(len(sources))
        return eccentricities(graph, sources)

    monkeypatch.setattr(bfs, "eccentricities", counting)
    assert exact_diameter(g) == expect
    assert sum(counted) <= 0.4 * g.num_vertices


def test_bfs_distances_match_networkx():
    for n, r, seed in ((6, 1.0, 4), (9, 2.5, 5)):
        g = sample_graph(ModelParams(n=n, r=r, seed=seed))
        ng = nx_graph(g)
        for source in (0, g.num_vertices // 2, g.num_vertices - 1):
            expect = nx.single_source_shortest_path_length(ng, source)
            got = bfs_distances(g, source)
            assert got.tolist() == [expect[v] for v in range(g.num_vertices)]


@pytest.mark.parametrize(
    "g",
    [sample_graph(ModelParams(n=n, r=r, seed=n)) for n, r in ((1, 1.0), (2, 0.5), (3, 2.0))] + [torus_only_graph(4)],
    ids=["n1", "n2", "n3", "torus4"],
)
def test_bfs_distances_every_source(g):
    expect = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    for source in range(g.num_vertices):
        got = bfs_distances(g, source)
        assert got.dtype == np.int64
        assert got.tolist() == [expect[source][v] for v in range(g.num_vertices)]


@pytest.mark.parametrize("n, r, seed", [(1, 1.0, 0), (2, 0.0, 1), (3, 1.0, 2), (5, 2.0, 3), (8, 1.0, 4), (6, 8.0, 5)])
def test_settled_matches_bruteforce(n, r, seed):
    # brute force: v is settled when some source s has ecc(s) + d(s, v) <= lb
    g = sample_graph(ModelParams(n=n, r=r, seed=seed))
    dist = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    ecc_all = {v: max(d.values()) for v, d in dist.items()}
    diameter = max(ecc_all.values())
    rng = np.random.default_rng(seed)
    for size in (1, 3, 12):
        sources = rng.integers(g.num_vertices, size=size)
        sources = np.concatenate((sources, sources[:2]))  # duplicated sources
        ecc = np.array([ecc_all[int(s)] for s in sources], dtype=np.int64)
        for lb in (diameter, diameter + 1):
            expect = [any(e + dist[int(s)][v] <= lb for s, e in zip(sources, ecc)) for v in range(g.num_vertices)]
            got = _settled(g, sources, ecc, lb)
            assert got.dtype == np.bool_
            assert got.tolist() == expect, (size, lb)


@pytest.mark.parametrize("params", [ModelParams(n=5, r=1.0, seed=3), None], ids=["r1", "torus"])
def test_neighbour_slots_built_once_and_cover_each_row(params, monkeypatch):
    builds = []
    build = SmallWorldGraph.neighbour_slots.func

    def counting(graph):
        builds.append(graph)
        return build(graph)

    monkeypatch.setattr(SmallWorldGraph.neighbour_slots, "func", counting)
    graph = torus_only_graph(3) if params is None else sample_graph(params)
    lb = exact_diameter(graph)
    _settled(graph, np.array([0, 1]), eccentricities(graph, [0, 1]), lb)
    order, rank, columns = graph.neighbour_slots
    assert len(builds) == 1
    assert np.array_equal(rank[order], np.arange(graph.num_vertices))
    assert all(not a.flags.writeable for a in (order, rank, *columns))
    # columns[j][k] is the rank of the j-th neighbour of the vertex of rank k
    for v in range(graph.num_vertices):
        k = rank[v]
        got = [int(order[col[k]]) for col in columns if k < col.size]
        assert sorted(got) == graph.neighbours(v).tolist()
