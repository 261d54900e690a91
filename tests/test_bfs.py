"""BFS kernels against networkx: eccentricities, exact diameter, distances, slot layout."""

import ast
import hashlib
import inspect
import json

import networkx as nx
import numpy as np
import pytest

import oracles
from support import NON_INTEGERS
from swmix import (
    ModelParams,
    SmallWorldGraph,
    bfs_distances,
    double_sweep,
    exact_diameter,
    index_to_coord,
    sample_graph,
    torus_distance,
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
        diam, lower = exact_diameter(g)
        assert diam == expect
        far, dist, bound = double_sweep(g)
        assert bound == int(dist.max()) <= expect
        assert dist[far] == 0
        # the lower bound returned with the diameter is the double sweep's
        assert lower == bound


@pytest.mark.parametrize(
    "n, r, seed",
    [(n, r, seed) for n in (1, 2, 3, 5, 8, 12, 16, 20) for r in (0, 0.5, 1.0, 2.0, 4.0, 8.0) for seed in range(3)]
    # settling ecc(s) + d(s, v) <= lb + 1 instead of <= lb returns D - 1 on these
    + [(3, 6.0, 3), (4, 6.0, 8), (5, 2.0, 6), (8, 2.5, 7)],
)
def test_exact_diameter_matches_all_eccentricities(n, r, seed):
    # the pruned search against the largest eccentricity over every source
    g = sample_graph(ModelParams(n=n, r=r, seed=seed))
    assert exact_diameter(g)[0] == int(eccentricities(g, np.arange(g.num_vertices)).max())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
def test_exact_diameter_bare_torus_matches_all_eccentricities(n):
    # every eccentricity is 2n, so no source settles any vertex but itself
    g = torus_only_graph(n)
    assert exact_diameter(g)[0] == int(eccentricities(g, np.arange(g.num_vertices)).max()) == 2 * n


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
    assert exact_diameter(g)[0] == expect
    assert sum(counted) <= 0.4 * g.num_vertices


# (diameter, batch sizes, sha256 of the JSON list of batches) that exact_diameter
# hands to eccentricities, captured from the search that re-propagated every
# processed source after each batch; the key is (n, r, seed) or ("torus", n)
GOLDEN_BATCHES = {
    (12, 1.0, 0): (8, [256, 29], "64dbd55599b241e7d89415f0bb4c078afd358f3db6a002db9cbb2aeac63da325"),
    (12, 1.0, 1): (9, [256], "b54cc1091690225807808cd81f6fab59a286f7cc433480015281411468bab2b8"),
    (12, 1.0, 2): (9, [256, 2], "20efe3e7eb6aab19fb94d4882401376475fb73c1514809db336e3a05f3cf4478"),
    (12, 2.0, 0): (9, [256, 15], "9cf96446d6335d040634a975f1c8a76d1f3d1d3d2bf6db55042cf47a5bc05659"),
    (12, 2.0, 1): (9, [256, 17], "a51f47fb08575d465b342ca1beb562bb64e536bc41454f07553b3cf48f280437"),
    (12, 2.0, 2): (10, [256, 1], "d9343429cdd1fd8742ece00e9f81ab6c093d44b8d9775268a0ff45dc8ba34c6e"),
    (12, 4.0, 0): (14, [181], "03d4b39db6e0413fc9ebc19e1160dd88397e86d6f0b2f631d777527e791e1a9f"),
    (12, 4.0, 1): (14, [233], "ba87e82fb69d8b4194ed2066a1b0b82710c8c741c0e544ed8782e4609f715325"),
    (12, 4.0, 2): (13, [256, 19], "42dac6e4530c7a0164f8d8d5c42aab87de20ecd5db62e1c2cb9f37e739135280"),
    (24, 1.0, 0): (10, [256, 256, 4], "06ed2eaa15c0a6642d86ab23fb1394acb607845732dba6e43faf6a7b00425133"),
    (24, 1.0, 1): (10, [256, 256, 151], "ba3bccb43f49e14fa15254538670e3e219b1823fe24483dfe3af8e7bfe440eb0"),
    (24, 1.0, 2): (10, [256, 256, 109], "7717bc4f639cf25a66ac5b6c5ebe80999134653997b78f8d7b5bc4e4a3e56d34"),
    (24, 2.0, 0): (11, [256, 256, 204], "2034dcfa4ac92b44fadc3a82bf39726b6eadaff8982e1d569e474f0f3b10e639"),
    (24, 2.0, 1): (11, [256, 256, 256, 93], "9eb27a454a7490eec83c1bc9833e3ea49414a83ff554d7346a3eb594bd642ca0"),
    (24, 2.0, 2): (11, [256, 256, 185], "e9d4f8743f2d8ee50d90665176608131d7db944bb9b4fffec41fd54b69a04f19"),
    (24, 4.0, 0): (21, [256, 256, 4], "9c1d05535a193eae05749435ffc7d2b4811b0b0a2f57f7884b5e5ef4cf4dd59d"),
    (24, 4.0, 1): (21, [256, 174], "301b227524d3151fecc80d96bebab66d9a5d61e6eade9351d92773f99166d7cc"),
    (24, 4.0, 2): (21, [256, 256, 55], "f403d174c1aa7c9a0164bf45a0ec908c6821919820f8ecbbd9bd9ebff8b03933"),
    (40, 1.0, 0): (11, [256, 256, 256, 256, 256, 256, 256, 82], "656dd2b63f2d4d3113108fc535482e8df686e95eb64a8ad41b9e7b48208006e9"),
    (40, 1.0, 1): (11, [256, 256, 256, 256, 256, 256, 254], "d41aa607264376f0f80b8883cbce16ec268719f2307fd1365e4b232ffd98b7e1"),
    (40, 1.0, 2): (11, [256, 256, 256, 256, 256, 256, 256, 256, 57], "75e183abf2568b66a80a50f520f08c3196603b6bc033b2acd9eca6b199e9b794"),
    (40, 2.0, 0): (12, [256, 256, 256, 256, 256, 256, 256, 116], "f22c4a330c6e0581211527c27b40edbb2920eb938692052a4c85f877b9e00715"),
    (40, 2.0, 1): (13, [256, 256, 256, 256, 28], "dc6cc5f4d98b7353657afc172f99954d20841a9437d8c6b55276ac938a0e6451"),
    (40, 2.0, 2): (13, [256, 256, 256, 256, 8], "a0c14b87ca6d77145a2a81a7bb742ee995048f64f4f314d87d029dd91020b78a"),
    (40, 4.0, 0): (27, [256, 256, 256, 256, 14], "a2a14bd3a9e0bec28a66e0d92bc9b6e9977f372541744fba5b6c51bfb6bf0dfe"),
    (40, 4.0, 1): (30, [256, 256, 256, 21], "335026fe6b7c6eefc2754ad05bb11e821476d3a0c2a886aead14d74dd0896ae3"),
    (40, 4.0, 2): (29, [256, 256, 256, 167], "eef0185cc765d75c645e689f1311d893951462cdc538cf32d2dcc25a7717837a"),
    ("torus", 5): (10, [60], "988baed184e0573ee06465f0e558697fe209475f96e3db59761a651663124fdd"),
    ("torus", 12): (24, [256, 56], "bc2d9fd7da626e38f585f9efd2e9e837f96e4c86902ece739188fa2331fb38d0"),
}


@pytest.mark.parametrize("key", list(GOLDEN_BATCHES), ids=str)
def test_exact_diameter_source_batches_golden(key, monkeypatch):
    if key[0] == "torus":
        g = torus_only_graph(key[1])
    else:
        g = sample_graph(ModelParams(n=key[0], r=key[1], seed=key[2]))
    batches = []

    def recording(graph, sources):
        batches.append([int(v) for v in sources])
        return eccentricities(graph, sources)

    monkeypatch.setattr(bfs, "eccentricities", recording)
    diam, _ = exact_diameter(g)
    digest = hashlib.sha256(json.dumps(batches).encode()).hexdigest()
    assert (diam, [len(b) for b in batches], digest) == GOLDEN_BATCHES[key]


def test_bfs_rejects_non_vertex_sources():
    g = sample_graph(ModelParams(n=3, r=1.0, seed=2))
    N = g.num_vertices
    for bad in (-1, N):
        with pytest.raises(ValueError, match="out of range"):
            bfs_distances(g, bad)
        with pytest.raises(ValueError, match=r"in \[0, 49\)"):
            eccentricities(g, [0, bad])
    for bad in (2.7,) + NON_INTEGERS:
        with pytest.raises(TypeError, match="source vertex"):
            bfs_distances(g, bad)
    with pytest.raises(TypeError):
        eccentricities(g, [2.7])
    with pytest.raises(TypeError):
        eccentricities(g, [True, False])
    # numpy integers of any width are vertices
    assert bfs_distances(g, np.int32(2)).tolist() == bfs_distances(g, 2).tolist()
    assert eccentricities(g, np.array([N - 1], dtype=np.uint16)).tolist() == eccentricities(g, [N - 1]).tolist()


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


@pytest.mark.parametrize("n", range(1, 13))
def test_bfs_distances_bare_torus_match_torus_distance(n):
    # D = 2n: the longest level chains any graph of this size has
    g = torus_only_graph(n)
    coords = np.column_stack(index_to_coord(np.arange(g.num_vertices), n))
    for source in sorted({0, n, g.num_vertices // 2, g.num_vertices - 1}):
        expect = torus_distance(coords, coords[source], n)
        assert bfs_distances(g, source).tolist() == np.asarray(expect).tolist()


def test_bfs_reads_no_csr_arrays():
    # every neighbour visit goes through the neighbour slots, so one level loop serves every BFS
    tree = ast.parse(inspect.getsource(bfs))
    reads = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert "indptr" not in reads and "indices" not in reads


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
    lb, _ = exact_diameter(graph)
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
