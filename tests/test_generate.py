"""Sampling layer: normalizer, edge probabilities, samplers, graph files."""

import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from support import NON_INTEGERS, traced
from swmix import (
    CapacityError,
    GraphFormatError,
    ModelParams,
    SmallWorldGraph,
    edge_probability,
    index_to_coord,
    load_graph,
    long_range_normalizer,
    num_vertices,
    ring_size,
    sample_graph,
    save_graph,
    torus_distance,
    torus_only_graph,
)
from swmix import generate
from swmix.generate import _assemble, _pair_keys, _philox_keys, _stream, _streams
from swmix.harness import derive_seed
from swmix.torus import torus_neighbor_indices


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, r=1.0, seed=0)
    for bad in (1.5,) + NON_INTEGERS:
        with pytest.raises(TypeError, match="torus parameter n"):
            ModelParams(n=bad, r=1.0, seed=0)
        with pytest.raises(TypeError, match="seed"):
            ModelParams(n=2, r=1.0, seed=bad)
    with pytest.raises(ValueError):
        ModelParams(n=2, r=-0.1, seed=0)
    with pytest.raises(ValueError):
        ModelParams(n=2, r=float("nan"), seed=0)
    with pytest.raises(ValueError):
        ModelParams(n=2, r=1.0, seed=-1)
    with pytest.raises(ValueError):
        ModelParams(n=2, r=1.0, seed=2**64)
    p = ModelParams(n=2, r=math.inf, seed=2**64 - 1)
    assert p.r == math.inf


def test_normalizer_counts_pairs_at_r_zero():
    # with no distance weighting Z counts the admissible partners: N - 5
    assert long_range_normalizer(2, 0) == 20.0
    for n in (1, 3, 10):
        assert long_range_normalizer(n, 0) == num_vertices(n) - 5


def test_normalizer_worked_value():
    assert long_range_normalizer(2, 2) == pytest.approx(113 / 36, rel=1e-12)


def test_normalizer_infinite_exponent():
    assert long_range_normalizer(4, math.inf) == 0.0


def test_normalizer_matches_pair_sum():
    for n in (1, 2, 3, 5, 8, 13):
        for r in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0):
            z = long_range_normalizer(n, r)
            assert z == pytest.approx(oracles.normalizer_pair_sum(n, r), rel=1e-12)


def test_normalizer_growth_regimes():
    # r = 1: linear growth, doubling n doubles Z
    assert long_range_normalizer(100, 1) / long_range_normalizer(50, 1) == pytest.approx(2.0, rel=0.1)
    # r = 3: summable tail, Z is essentially flat in n
    assert long_range_normalizer(400, 3) / long_range_normalizer(50, 3) <= 1.1
    # Z grows with n for any fixed finite r
    for r in (0.0, 1.0, 2.0, 3.0):
        values = [long_range_normalizer(n, r) for n in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_edge_probability_uniform_at_r_zero():
    n = 4
    expect = 1.0 / (num_vertices(n) - 5)
    for d in range(2, 2 * n + 1):
        assert edge_probability(n, 0, d) == pytest.approx(expect, rel=1e-15)


def test_edge_probability_sums_to_one():
    for n, r in ((6, 0.0), (6, 2.5), (9, 1.0)):
        total = sum(ring_size(d, n) * edge_probability(n, r, d) for d in range(2, 2 * n + 1))
        assert total == pytest.approx(1.0, rel=1e-12)


def test_edge_probability_monotone_in_distance():
    n, r = 8, 1.7
    probs = [edge_probability(n, r, d) for d in range(2, 2 * n + 1)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_edge_probability_domain():
    with pytest.raises(ValueError):
        edge_probability(4, 1.0, 1)
    with pytest.raises(ValueError):
        edge_probability(4, 1.0, 9)
    with pytest.raises(ValueError):
        edge_probability(4, math.inf, 2)
    with pytest.raises(ValueError, match="underflowed"):
        edge_probability(3, 2000.0, 2)
    with pytest.raises(TypeError):
        edge_probability(3, 2.0, 2.5)  # no pair lies at a fractional distance
    assert edge_probability(3, 2.0, np.int64(2)) == edge_probability(3, 2.0, 2)


def test_edge_probability_checks_n_and_r_before_using_them():
    # n bounds the distance range, so it is checked before the distance is
    for bad_n in ("3", 3.0, None):
        with pytest.raises(TypeError, match="^torus parameter n must be an integer"):
            edge_probability(bad_n, 1.0, 2)
    with pytest.raises(ValueError, match="^torus parameter n 0 out of range"):
        edge_probability(0, 1.0, 2)
    with pytest.raises(TypeError, match="^r must be a real number"):
        edge_probability(3, "1.0", 2)


def test_sampler_is_deterministic():
    params = ModelParams(n=7, r=1.5, seed=123)
    g1 = sample_graph(params)
    g2 = sample_graph(params)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(g1.long_range_edges, g2.long_range_edges)
    g3 = sample_graph(ModelParams(n=7, r=1.5, seed=124))
    assert not np.array_equal(g1.long_range_edges, g3.long_range_edges)


def _assert_same_graph(g, ref):
    for name in ("indptr", "indices", "degrees", "long_range_edges"):
        a, b = getattr(g, name), getattr(ref, name)
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.writeable == b.flags.writeable, name
    assert g.params == ref.params
    assert g.num_vertices == ref.num_vertices
    assert g.edge_count == ref.edge_count
    assert g.normalizer == ref.normalizer


def test_sampler_matches_setloop_oracle():
    # r = 8 and 30 leave many distance classes with k = 0; n = 1 has one class
    for n in (1, 2, 3, 5, 8, 13, 24):
        for r in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0):
            for seed in (0, 1, 2**64 - 1):
                params = ModelParams(n=n, r=r, seed=seed)
                _assert_same_graph(sample_graph(params), oracles.sample_graph_setloop(params))


def test_sampler_normalizer_underflow():
    params = ModelParams(n=3, r=2000.0, seed=0)
    for sampler in (sample_graph, oracles.sample_graph_naive, oracles.sample_graph_setloop):
        with pytest.raises(ValueError, match="underflowed"):
            sampler(params)


def test_assemble_ignores_pair_order_and_orientation():
    # load_graph and the naive sampler hand over pairs in any order and orientation
    g = sample_graph(ModelParams(n=6, r=1.0, seed=5))
    pairs = np.array(g.long_range_edges)
    shuffled = pairs[np.random.default_rng(0).permutation(len(pairs))]
    for variant in (pairs[::-1], pairs[:, ::-1], shuffled, shuffled[:, ::-1]):
        _assert_same_graph(_assemble(g.params, _pair_keys(variant, g.num_vertices), g.normalizer), g)
    naive = oracles.sample_graph_naive(ModelParams(n=4, r=1.0, seed=9))
    swapped = np.array(naive.long_range_edges)[::-1, ::-1].copy()
    _assert_same_graph(_assemble(naive.params, _pair_keys(swapped, naive.num_vertices), naive.normalizer),
                       oracles.assemble_lexsort(naive.params, swapped, naive.normalizer))
    bare = torus_only_graph(3)
    _assert_same_graph(bare, oracles.assemble_lexsort(bare.params, np.empty((0, 2), np.int64), 0.0))


def test_sampler_rejects_infinite_exponent():
    with pytest.raises(ValueError):
        sample_graph(ModelParams(n=3, r=math.inf, seed=0))


def test_sampled_graph_structure():
    g = sample_graph(ModelParams(n=6, r=2.0, seed=3))
    N = g.num_vertices
    assert N == num_vertices(6)
    assert g.edge_count == 2 * N + g.long_range_edges.shape[0]
    assert g.degrees.sum() == 2 * g.edge_count
    assert g.degrees.min() >= 4
    for v in range(N):
        nb = g.neighbours(v)
        assert g.degree(v) == nb.size
        assert (np.diff(nb) > 0).all()  # sorted, no duplicates
        assert v not in nb
    sym_gap = (g.adjacency != g.adjacency.T).nnz
    assert sym_gap == 0


def test_degree_and_neighbours_follow_the_vertex_rule():
    g = sample_graph(ModelParams(n=3, r=1.0, seed=4))
    N = g.num_vertices
    for v in (-1, N):
        with pytest.raises(ValueError):
            g.degree(v)
        with pytest.raises(ValueError):
            g.neighbours(v)
    for v in (1.0,) + NON_INTEGERS:
        with pytest.raises(TypeError):
            g.degree(v)
        with pytest.raises(TypeError):
            g.neighbours(v)
    last = np.int64(N - 1)
    assert g.degree(last) == g.neighbours(last).size == g.degrees[-1]


def test_long_range_edges_sorted_distant_pairs():
    g = sample_graph(ModelParams(n=5, r=1.0, seed=42))
    lr = g.long_range_edges
    assert (lr[:, 0] < lr[:, 1]).all()
    keys = lr[:, 0] * g.num_vertices + lr[:, 1]
    assert (np.diff(keys) > 0).all()
    for u, v in lr:
        d = torus_distance(index_to_coord(int(u), 5), index_to_coord(int(v), 5), 5)
        assert d >= 2


def test_long_range_count_mean():
    # E[#long-range edges] = N/2 regardless of r
    n, r, seeds = 30, 1.5, 50
    N = num_vertices(n)
    counts = [
        sample_graph(ModelParams(n=n, r=r, seed=s)).long_range_edges.shape[0]
        for s in range(seeds)
    ]
    margin = 3 * math.sqrt(N / 2) / math.sqrt(seeds)
    assert abs(np.mean(counts) - N / 2) <= margin


def test_edge_count_concentration():
    n, r, seeds = 30, 2.0, 500
    N = num_vertices(n)
    inside = 0
    for s in range(seeds):
        g = sample_graph(ModelParams(n=n, r=r, seed=s))
        lr = g.edge_count - 2 * N
        if abs(lr - N / 2) <= 4 * math.sqrt(N / 2):
            inside += 1
    assert inside >= 0.99 * seeds


def test_per_distance_class_moments():
    # each distance class is Binomial(N * ring/2, d^-r / Z)
    n, r, seeds = 5, 1.5, 200
    N = num_vertices(n)
    sums = np.zeros(2 * n + 1)
    for s in range(seeds):
        g = sample_graph(ModelParams(n=n, r=r, seed=s))
        for u, v in g.long_range_edges:
            d = torus_distance(index_to_coord(int(u), n), index_to_coord(int(v), n), n)
            sums[d] += 1
    for d in range(2, 2 * n + 1):
        trials = N * ring_size(d, n) // 2
        p = edge_probability(n, r, d)
        sigma = math.sqrt(trials * p * (1 - p) / seeds)
        assert abs(sums[d] / seeds - trials * p) <= 5 * sigma


def test_naive_sampler_matches_structure():
    g = oracles.sample_graph_naive(ModelParams(n=4, r=1.0, seed=9))
    assert g.degrees.min() >= 4
    assert g.degrees.sum() == 2 * g.edge_count
    for u, v in g.long_range_edges:
        d = torus_distance(index_to_coord(int(u), 4), index_to_coord(int(v), 4), 4)
        assert d >= 2
    again = oracles.sample_graph_naive(ModelParams(n=4, r=1.0, seed=9))
    assert np.array_equal(g.long_range_edges, again.long_range_edges)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_naive_sampler_matches_full_matrix_oracle(n):
    # row blocks draw the same uniforms, pair for pair, as one full-matrix draw
    for r in (0.0, 1.0, 2.0, 4.0, 20.0):
        for seed in (0, 7):
            params = ModelParams(n=n, r=r, seed=seed)
            _assert_same_graph(oracles.sample_graph_naive(params), oracles.sample_graph_naive_full(params))


def test_naive_sampler_mean_degree():
    # mean degree 4 + 2 * (N/2) / N = 5
    n, seeds = 8, 100
    N = num_vertices(n)
    means = [
        2 * oracles.sample_graph_naive(ModelParams(n=n, r=1.0, seed=s)).edge_count / N
        for s in range(seeds)
    ]
    assert abs(np.mean(means) - 5.0) < 0.03


def test_naive_sampler_extreme_exponent_hugs_distance_two():
    n = 6
    near = total = 0
    for s in range(20):
        g = oracles.sample_graph_naive(ModelParams(n=n, r=20.0, seed=s))
        for u, v in g.long_range_edges:
            d = torus_distance(index_to_coord(int(u), n), index_to_coord(int(v), n), n)
            total += 1
            near += d == 2
    assert total > 0
    assert near / total >= 0.98


def test_naive_sampler_capacity():
    with pytest.raises(CapacityError):
        oracles.sample_graph_naive(ModelParams(n=25, r=1.0, seed=0))


def test_fast_and_naive_total_count_agree():
    # cheap two-sample moment check; the distributional test lives in the
    # acceptance suite
    n, r, seeds = 3, 1.0, 400
    fast = [
        sample_graph(ModelParams(n=n, r=r, seed=s)).long_range_edges.shape[0]
        for s in range(seeds)
    ]
    naive = [
        oracles.sample_graph_naive(ModelParams(n=n, r=r, seed=10_000 + s)).long_range_edges.shape[0]
        for s in range(seeds)
    ]
    se = math.sqrt((np.var(fast) + np.var(naive)) / seeds)
    assert abs(np.mean(fast) - np.mean(naive)) <= 5 * se


def test_torus_only_graph():
    g = torus_only_graph(3)
    assert (g.degrees == 4).all()
    assert g.edge_count == 2 * num_vertices(3)
    assert g.long_range_edges.shape == (0, 2)
    assert g.normalizer == 0.0
    assert math.isinf(g.params.r)


def test_save_load_round_trip(tmp_path):
    g = sample_graph(ModelParams(n=5, r=2.0, seed=11))
    path = tmp_path / "g.swg"
    save_graph(g, path)
    h = load_graph(path)
    assert h.params == g.params
    assert h.normalizer == g.normalizer
    assert h.edge_count == g.edge_count
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.indices, g.indices)
    assert np.array_equal(h.long_range_edges, g.long_range_edges)


def test_save_load_bare_torus(tmp_path):
    g = torus_only_graph(2, seed=5)
    path = tmp_path / "torus.swg"
    save_graph(g, path)
    h = load_graph(path)
    assert h.params == g.params
    assert h.edge_count == g.edge_count
    assert h.long_range_edges.shape == (0, 2)


def test_save_graph_bytes_are_pinned(tmp_path):
    # sha256 of the file written before save_graph iterated plain Python ints
    g = sample_graph(ModelParams(n=32, r=2.0, seed=7))
    path = tmp_path / "g.swg"
    save_graph(g, path)
    assert g.edge_count == 10543
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2e2b63b54bbc8b38451d8f033c6d8b7e51b912d87823edf72e8528acb2669734"
    )


def test_graphs_compare_and_hash_by_identity():
    params = ModelParams(n=3, r=1.0, seed=0)
    g, h = sample_graph(params), sample_graph(params)
    assert g == g and g != h and not (g == h)
    assert hash(g) == hash(g)
    assert {g, h, g} == {g, h} and len({g, h}) == 2


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_rejects_malformed_files(tmp_path):
    z = repr(long_range_normalizer(2, 1.0))
    head = f"swg 2 1.0 0 {z}"

    cases = [
        ("empty", "", 1),
        ("magic", "xxx 2 1.0 0 0.0 50\n", 1),
        ("tokens", "swg 2 1.0 0 0.0\n", 1),
        ("badint", "swg two 1.0 0 0.0 50\n", 1),
        ("negr", "swg 2 -1.0 0 0.0 50\n", 1),
        ("count", f"{head} 51\n", 1),
        ("zval", "swg 2 1.0 0 99.0 51\n0 12\n", 1),
        ("vertex", f"{head} 51\n0 99\n", 2),
        ("selfloop", f"{head} 51\n7 7\n", 2),
        ("adjacent", f"{head} 51\n0 1\n", 2),
        ("dupe", f"{head} 52\n0 12\n12 0\n", 3),
        ("nonint", f"{head} 51\n0 x\n", 2),
        ("triple", f"{head} 51\n0 12 3\n", 2),
        ("blank", f"{head} 51\n\n0 12\n", 2),
        # the bare-torus marker r = inf has Z = 0 and no long-range edge
        ("inf_z", "swg 2 inf 0 5.0 51\n0 12\n", 1),
        ("inf_edge", "swg 2 inf 0 0.0 51\n0 12\n", 2),
    ]
    for name, text, lineno in cases:
        path = _write(tmp_path / f"{name}.swg", text)
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert err.value.line == lineno, name


def _spawn_key_table():
    """Spawn keys listed in the generate module docstring; (d,) stands for d = 2 and 48."""
    rows = re.findall(r"^    \((\w+),( \d+)?\) ", generate.__doc__, flags=re.MULTILINE)
    keys = []
    for head, tail in rows:
        if head == "d":
            keys += [(2,), (48,)]
        else:
            keys.append((int(head),) + ((int(tail),) if tail else ()))
    return keys


def test_stream_registry_matches_explicit_philox():
    keys = _spawn_key_table()
    assert keys == [(2,), (48,), (1,), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
    for seed in (0, 2**64 - 1):
        for key in keys:
            ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))
            got = _stream(seed, *key).integers(0, 2**62, size=8)
            assert np.array_equal(got, ref.integers(0, 2**62, size=8)), (seed, key)
    # the class keys of n = 1, 2 and 64, one batch per n, and each table key on its own
    class_keys = [[(d,) for d in range(2, 2 * n + 1)] for n in (1, 2, 64)]
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(0, 64, 2.0, 0)):
        for batch in class_keys + [[key] for key in keys]:
            got = _philox_keys(seed, batch)
            want = [np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64) for key in batch]
            assert got.dtype == np.uint64 and np.array_equal(got, np.array(want)), (seed, batch)
        streams = _streams(seed, class_keys[1])
        for key, rng in zip(class_keys[1], streams):
            ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))
            assert np.array_equal(rng.integers(0, 2**62, size=8), ref.integers(0, 2**62, size=8)), (seed, key)


def test_long_range_rows_are_the_csr_rows_without_the_torus():
    graphs = [sample_graph(ModelParams(n=n, r=r, seed=11)) for n in (1, 2, 5, 9) for r in (0.0, 2.0, 8.0)]
    for g in graphs + [torus_only_graph(1), torus_only_graph(4)]:
        indptr, indices = g.long_range_rows
        assert not indptr.flags.writeable and not indices.flags.writeable
        assert indptr.dtype == np.int64 and indptr.shape == (g.num_vertices + 1,)
        assert indices.size == 2 * len(g.long_range_edges)
        torus = torus_neighbor_indices(g.n)
        for v in range(g.num_vertices):
            row = g.neighbours(v)
            want = row[~np.isin(row, torus[v])]
            assert np.array_equal(indices[indptr[v] : indptr[v + 1]], want), (g.params, v)


def test_graph_derives_every_array_from_the_long_range_rows():
    # a graph built from long_range_rows and the scalars alone rebuilds the sampled graph's arrays
    graphs = [sample_graph(ModelParams(n=n, r=r, seed=3)) for n in (1, 2, 6) for r in (0.0, 2.0)]
    for g in graphs + [torus_only_graph(2)]:
        bare = SmallWorldGraph(
            params=g.params,
            num_vertices=g.num_vertices,
            edge_count=g.edge_count,
            long_range_rows=g.long_range_rows,
            normalizer=g.normalizer,
        )
        for name in ("indptr", "indices", "degrees", "long_range_edges"):
            got, want = getattr(bare, name), getattr(g, name)
            assert np.array_equal(got, want) and got.dtype == want.dtype, (g.params, name)
            assert not got.flags.writeable, (g.params, name)
        assert bare.long_range_edges.shape == (len(g.long_range_rows[1]) // 2, 2)


def test_sampled_graph_holds_only_its_long_range_rows():
    # n = 128 has N = 66,049 vertices and about N / 2 long-range pairs: the
    # rows take 1.0 MiB, and one round's draws at most a few arrays of 1.2 k keys
    sample_graph(ModelParams(n=4, r=1.0, seed=0))  # imports and first-call set-up stay out of the trace
    for seed in (0, 1):
        g, held, peak = traced(lambda: sample_graph(ModelParams(n=128, r=1.0, seed=seed)))
        assert peak < 3.0 * 2**20, (seed, peak)
        assert held <= 1.1 * 2**20, (seed, held)
        assert set(vars(g)) == {"params", "num_vertices", "edge_count", "long_range_rows", "normalizer"}


def _digest_script():
    path = Path(__file__).parent / "data" / "make_graph_digests.py"
    spec = importlib.util.spec_from_file_location("make_graph_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_graphs_match_committed_digests(tmp_path):
    # the digests come from the sampler that sorted the full CSR inside every
    # sample_graph call; the on-demand CSR and a file round trip must rebuild it
    script = _digest_script()
    want = json.loads(script.OUT.read_text(encoding="utf-8"))
    seen, cells = [], set()
    for key, g in script.graphs():
        assert script.digest(g) == want[key], key
        seen.append(key)
        cell = key.rsplit(" ", 1)[0]
        if cell not in cells:
            # one file round trip per (n, r) cell: parsing every n = 128 file would take seconds
            cells.add(cell)
            save_graph(g, tmp_path / "g.swg")
            assert script.digest(load_graph(tmp_path / "g.swg")) == want[key], key
    assert sorted(seen) == sorted(want) and len(seen) == 324 and len(cells) == 54


def test_streams_are_built_only_in_generate():
    src = Path(generate.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "generate.py":
            text = path.read_text(encoding="utf-8")
            assert "SeedSequence" not in text and "Philox" not in text, path.name
