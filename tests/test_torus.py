"""Torus geometry: distances, rings, boundaries, box partitions."""

import ast
import importlib
import inspect
import itertools
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

import oracles
import swmix
from support import NON_INTEGERS
from swmix import harness, torus
from swmix import (
    BoxPartition,
    ModelParams,
    SweepConfig,
    box_core,
    box_core_dichotomy,
    coord_to_index,
    derive_seed,
    edge_boundary,
    index_to_coord,
    is_expanding,
    long_range_normalizer,
    make_box_partition,
    mask_from_indices,
    mixing_time,
    num_vertices,
    relaxation_bounds,
    ring,
    ring_offsets,
    ring_size,
    torus_boundary_count,
    torus_distance,
    torus_neighbor_indices,
    torus_only_graph,
)


def test_num_vertices():
    assert num_vertices(1) == 9
    assert num_vertices(2) == 25
    assert num_vertices(100) == 201**2


def test_coord_index_round_trip():
    for n in (1, 2, 5):
        seen = set()
        for x in range(-n, n + 1):
            for y in range(-n, n + 1):
                idx = coord_to_index(x, y, n)
                seen.add(idx)
                assert index_to_coord(idx, n) == (x, y)
        assert seen == set(range(num_vertices(n)))


def test_coord_index_is_x_major():
    assert coord_to_index(-2, -2, 2) == 0
    assert coord_to_index(-2, -1, 2) == 1
    assert coord_to_index(-1, -2, 2) == 5
    assert coord_to_index(0, 0, 2) == 12


def test_torus_distance_examples():
    assert torus_distance((0, 0), (2, 2), 2) == 4
    # wraparound: (-2,-2) and (2,2) are one step apart per axis on the 5-cycle
    assert torus_distance((-2, -2), (2, 2), 2) == 2
    assert torus_distance((1, -1), (1, -1), 2) == 0


def test_torus_distance_rejects_out_of_range():
    with pytest.raises(ValueError):
        torus_distance((0, 0), (3, 0), 2)


def test_indices_and_coordinates_must_be_integers():
    # a float is rejected, not truncated to a neighbouring vertex
    with pytest.raises(TypeError):
        mask_from_indices([2.7], 3)
    with pytest.raises(TypeError):
        index_to_coord(2.7, 3)
    with pytest.raises(TypeError):
        coord_to_index(0.5, 1, 3)
    with pytest.raises(TypeError):
        torus_distance((0.5, 0), (1, 0), 3)
    with pytest.raises(ValueError, match=r"in \[0, 49\)"):
        mask_from_indices([0, 49], 3)
    assert mask_from_indices(np.array([2], dtype=np.uint8), 3).nonzero()[0].tolist() == [2]
    assert not mask_from_indices([], 3).any()
    assert index_to_coord(np.int64(2), 3) == (-3, -1)
    assert coord_to_index(np.int32(-3), np.uint8(2), 3) == 5


def test_torus_distance_matches_shift_scan():
    for n in (1, 2, 3):
        side = 2 * n + 1
        pts = oracles.grid_points(n)
        for u in pts:
            for v in pts:
                assert torus_distance(u, v, n) == oracles.wrapped_distance(u, v, side)


def test_torus_distance_broadcasts():
    n = 4
    pts = np.array(oracles.grid_points(n))
    d = torus_distance(pts, (0, 0), n)
    assert d.shape == (pts.shape[0],)
    assert d.max() == 2 * n
    assert (d >= 0).all()


def test_ring_size_examples():
    assert ring_size(2, 2) == 8
    assert ring_size(4, 2) == 4
    assert ring_size(1, 10) == 4


def test_ring_size_range_errors():
    with pytest.raises(ValueError):
        ring_size(0, 3)
    with pytest.raises(ValueError):
        ring_size(7, 3)
    with pytest.raises(ValueError):
        ring((0, 0, 0), 1, 3)


def test_ring_distance_must_be_an_integer():
    # 2.5 is rejected, not truncated to ring 2, and True is not ring 1
    for bad in NON_INTEGERS:
        with pytest.raises(TypeError, match="ring distance"):
            ring_size(bad, 3)
    with pytest.raises(TypeError):
        ring_offsets(2.5, 3)
    with pytest.raises(ValueError):
        ring_offsets(0, 3)
    assert ring_size(np.int64(2), 3) == 8
    assert np.array_equal(ring_offsets(np.uint8(2), 3), ring_offsets(2, 3))


def test_ring_sizes_sum_to_all_other_vertices():
    for n in (1, 2, 3, 8, 64):
        total = sum(ring_size(ell, n) for ell in range(1, 2 * n + 1))
        assert total == num_vertices(n) - 1


def test_ring_size_matches_scan():
    for n in (1, 2, 4, 6):
        for ell in range(1, 2 * n + 1):
            assert ring_size(ell, n) == oracles.ring_count(ell, n)


def test_ring_members_are_at_exact_distance():
    for n, v in ((2, (0, 0)), (3, (2, -3)), (4, (-4, 1))):
        for ell in range(1, 2 * n + 1):
            pts = ring(v, ell, n)
            assert pts.shape == (ring_size(ell, n), 2)
            d = torus_distance(pts, v, n)
            assert (np.asarray(d) == ell).all()
            # no coordinate listed twice
            assert len({tuple(p) for p in pts}) == pts.shape[0]


def test_ring_offsets_match_loop_oracle():
    # the rule gives each ring exactly, past the wraparound too
    for n in range(1, 41):
        for ell in range(1, 2 * n + 1):
            got, expect = ring_offsets(ell, n), oracles.ring_offsets_loop(ell, n)
            assert np.array_equal(got, expect), (n, ell)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert not got.flags.writeable


def test_ring_geometry_allocates_no_vertex_table():
    # n = 301 has N = 363,609 vertices; a ring or Z needs only O(n) memory
    n, r = 301, 2.0
    checks = [
        (lambda: long_range_normalizer(n, r), math.fsum(ring_size(d, n) * d**-r for d in range(2, 2 * n + 1))),
        (lambda: ring_offsets(5, n), oracles.ring_offsets_loop(5, n)),
        (lambda: ring_offsets(600, n), oracles.ring_offsets_loop(600, n)),
    ]
    tracemalloc.start()
    try:
        for call, expect in checks:
            tracemalloc.reset_peak()
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < 64 * 1024, peak
            assert np.array_equal(got, expect)
    finally:
        tracemalloc.stop()


def test_torus_neighbor_indices_of_origin():
    n = 2
    v = coord_to_index(0, 0, n)
    nbr = torus_neighbor_indices(n)[v]
    expect = [
        coord_to_index(1, 0, n),
        coord_to_index(-1, 0, n),
        coord_to_index(0, 1, n),
        coord_to_index(0, -1, n),
    ]
    assert nbr.tolist() == expect


def test_torus_neighbor_indices_match_roll_table():
    for n in (1, 2, 3, 6, 31):
        got, expect = torus_neighbor_indices(n), oracles.torus_neighbors_roll(n)
        assert np.array_equal(got, expect), n
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert not got.flags.writeable


def _calls_named(module, name):
    """Enclosing function and argument sources of every call to `name` (a bare or dotted name) in module."""
    tree = ast.parse(inspect.getsource(module))
    return [
        (func.name, [ast.unparse(arg) for arg in node.args])
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def test_index_rules_have_one_home():
    # operator.index and the bool check run only in torus._integer, no isinstance check
    # admits np.integer, and canonical indices are split only by torus._split
    assert [func for func, _ in _calls_named(torus, "index")] == ["_integer"]
    assert [func for func, _ in _calls_named(torus, "divmod")] == ["_split"]
    modules = [importlib.import_module(f"swmix.{info.name}") for info in pkgutil.iter_modules(swmix.__path__)]
    type_checks = [(module.__name__, func, classes)
                   for module in modules for func, (_, classes) in _calls_named(module, "isinstance")]
    assert [(name, func) for name, func, classes in type_checks if "bool" in classes] == [("swmix.torus", "_integer")]
    assert [(name, func) for name, func, classes in type_checks if "floating" in classes] == [("swmix.torus", "_real")]
    assert [check for check in type_checks if "integer" in check[2]] == []
    for module in modules:
        if module is torus:
            continue
        assert "import operator" not in inspect.getsource(module), module.__name__
        for func, (_, divisor) in _calls_named(module, "divmod"):
            # a pair key lo * N + hi splits by the vertex count; the router splits scalars in its hot loop
            by_vertex_count = divisor == "N" or divisor.startswith("num_vertices(")
            assert by_vertex_count or (module is harness and func == "greedy_route"), (module.__name__, func)


BELOW_ZERO, ABOVE_ONE = float(np.nextafter(0.0, -1.0)), float(np.nextafter(1.0, 2.0))
MIX = dict(experiment="mix", n_values=(3,), r_values=(1.0,), num_seeds=1)

# name in the error, call with the parameter set to x, values just outside its range, and values
# accepted: its closed ends, or an inner value where both ends are open
REAL_PARAMETERS = {
    "ModelParams.r": ("r", lambda x: ModelParams(n=2, r=x, seed=0), [BELOW_ZERO], [0, math.inf]),
    "derive_seed.r": ("r", lambda x: derive_seed(0, 2, x, 0), [BELOW_ZERO], [0, math.inf]),
    "SweepConfig.r_values": ("r_values entry", lambda x: SweepConfig(**{**MIX, "r_values": (x,)}), [BELOW_ZERO], [0]),
    "long_range_normalizer.r": ("r", lambda x: long_range_normalizer(2, x), [BELOW_ZERO], [0, math.inf]),
    "mixing_time.epsilon": ("epsilon", lambda x: mixing_time(torus_only_graph(2), epsilon=x), [0, ABOVE_ONE], [1]),
    "relaxation_bounds.epsilon": ("epsilon", lambda x: relaxation_bounds(0.5, 0.5, x), [0, ABOVE_ONE], [1]),
    "relaxation_bounds.gap": ("gap", lambda x: relaxation_bounds(x, 0.5), [0, ABOVE_ONE], [1]),
    "relaxation_bounds.pi_min": ("pi_min", lambda x: relaxation_bounds(0.5, x), [0, ABOVE_ONE], [1]),
    "is_expanding.epsilon": (
        "epsilon", lambda x: is_expanding(torus_only_graph(2), mask_from_indices([0], 2), x, 1), [0, 1], [0.5]),
    "is_expanding.c": (
        "c", lambda x: is_expanding(torus_only_graph(2), mask_from_indices([0], 2), 0.5, x), [0], [math.inf]),
    "box_core_dichotomy.eta": (
        "eta", lambda x: box_core_dichotomy(mask_from_indices([0], 2), make_box_partition(2, 1), x), [0, 1], [0.5]),
    "SweepConfig.ball_frac": (
        "ball_frac", lambda x: SweepConfig(**{**MIX, "experiment": "conductance", "ball_frac": x}), [0, 1], [0.5]),
}


@pytest.mark.parametrize("parameter", REAL_PARAMETERS)
def test_real_parameters_have_one_rule(parameter):
    what, call, outside, accepted = REAL_PARAMETERS[parameter]
    for bad in (True, np.True_, "0.5", None):
        with pytest.raises(TypeError, match=f"^{what} must be a real number"):
            call(bad)
    for bad in [math.nan] + outside:
        with pytest.raises(ValueError, match=f"^{what} must lie in"):
            call(bad)
    for good in accepted:
        call(good)
        call(np.float64(good))


def test_vertex_set_masks_have_one_rule():
    n = 2
    S = np.zeros(num_vertices(n), dtype=bool)
    for bad in (np.True_, True, S[None, :], S[:-1], S.astype(int)):
        with pytest.raises(ValueError, match="bool mask"):
            box_core(bad, make_box_partition(n, 1))
    for bad in (np.True_, S[:-1], S.astype(int)):
        with pytest.raises(ValueError, match="bool mask"):
            torus_boundary_count(bad, n)
    assert torus_boundary_count(S[None, :], n).tolist() == [0]


def test_single_vertex_boundary():
    n = 3
    S = mask_from_indices([coord_to_index(0, 0, n)], n)
    edges = edge_boundary(torus_only_graph(n), S)
    assert edges.shape == (4, 2)
    assert torus_boundary_count(S, n) == 4


def test_column_strip_boundary():
    # a full column only cuts the edges to the two neighbouring columns
    for n in (1, 2, 5):
        side = 2 * n + 1
        idx = [coord_to_index(0, y, n) for y in range(-n, n + 1)]
        S = mask_from_indices(idx, n)
        assert torus_boundary_count(S, n) == 2 * side


def test_full_grid_has_empty_boundary():
    n = 2
    S = np.ones(num_vertices(n), dtype=bool)
    assert edge_boundary(torus_only_graph(n), S).shape == (0, 2)
    assert torus_boundary_count(S, n) == 0


def test_torus_boundary_matches_edge_scan():
    n = 3
    rng = np.random.default_rng(5)
    edges = oracles.torus_edge_list(n)
    bare = torus_only_graph(n)
    for _ in range(50):
        S = rng.random(num_vertices(n)) < rng.random()
        expect = oracles.edge_boundary_pairs(edges, S)
        got = edge_boundary(bare, S)
        assert [tuple(e) for e in got] == expect
        assert torus_boundary_count(S, n) == len(expect)


def test_torus_boundary_count_batched():
    n = 2
    rng = np.random.default_rng(11)
    batch = rng.random((7, 3, num_vertices(n))) < 0.4
    counts = torus_boundary_count(batch, n)
    assert counts.shape == (7, 3)
    for i in range(7):
        for j in range(3):
            assert counts[i, j] == torus_boundary_count(batch[i, j], n)
    with pytest.raises(ValueError):
        torus_boundary_count(batch[..., :-1], n)


def test_isoperimetry_exhaustive_smallest_grid():
    # every subset of the 3x3 torus meets the edge-boundary lower bound
    n = 1
    N = num_vertices(n)
    codes = np.arange(2**N, dtype=np.uint32)
    masks = (codes[:, None] >> np.arange(N)[None, :]) & 1
    masks = masks.astype(bool)
    sizes = masks.sum(axis=1)
    keep = (sizes >= 1) & (sizes <= N // 2)
    counts = torus_boundary_count(masks[keep], n)
    bound = np.minimum(2 * n + 1, 2 * np.sqrt(sizes[keep]))
    assert (counts >= bound).all()


def test_partition_regular_tiling():
    part = make_box_partition(4, 3)
    assert part.num_boxes == 9
    assert all(w == 3 and h == 3 for (_, _, w, h) in part.boxes)
    assert part.sizes.tolist() == [9] * 9


def test_partition_remainder_absorbed():
    part = make_box_partition(3, 3)
    assert part.num_boxes == 4
    dims = sorted((w, h) for (_, _, w, h) in part.boxes)
    assert dims == [(3, 3), (3, 4), (4, 3), (4, 4)]
    assert sorted(part.sizes.tolist()) == [9, 12, 12, 16]


def test_partition_unit_boxes():
    part = make_box_partition(1, 1)
    assert part.num_boxes == 9
    assert part.sizes.tolist() == [1] * 9


def test_partition_box_side_validation():
    with pytest.raises(ValueError):
        make_box_partition(3, 0)
    with pytest.raises(ValueError):
        make_box_partition(3, 4)
    for bad in NON_INTEGERS:
        with pytest.raises(TypeError, match="box_side"):
            make_box_partition(3, bad)


def test_partition_invariants():
    for n in (1, 2, 3, 5, 8, 13, 21, 40):
        N = num_vertices(n)
        for ell in range(1, n + 1):
            part = make_box_partition(n, ell)
            Q = part.num_boxes
            assert N / (4 * ell**2) <= Q <= N / ell**2
            # labels tile the grid exactly and agree with the stated sizes
            assert np.bincount(part.labels, minlength=Q).tolist() == part.sizes.tolist()
            assert part.sizes.sum() == N
            for (_, _, w, h) in part.boxes:
                assert ell <= w <= 2 * ell
                assert ell <= h <= 2 * ell


def test_partition_labels_match_box_rectangles():
    part = make_box_partition(5, 2)
    for b, (x0, y0, w, h) in enumerate(part.boxes):
        for dx in range(w):
            for dy in range(h):
                idx = coord_to_index(x0 + dx, y0 + dy, 5)
                assert part.labels[idx] == b


def test_box_core_full_and_broken_box():
    n = 4
    part = make_box_partition(n, 3)
    x0, y0, w, h = part.boxes[0]
    idx = [coord_to_index(x0 + dx, y0 + dy, n) for dx in range(w) for dy in range(h)]
    S = mask_from_indices(idx, n)
    assert (box_core(S, part) == S).all()
    # removing any single vertex empties the core
    S2 = S.copy()
    S2[idx[4]] = False
    assert box_core(S2, part).sum() == 0


def test_box_core_idempotent():
    n = 5
    part = make_box_partition(n, 2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        S = rng.random(num_vertices(n)) < 0.8
        core = box_core(S, part)
        again = box_core(core, part)
        assert (core & S).sum() == core.sum()
        assert (again == core).all()


def test_dichotomy_full_box_and_single_vertex():
    n = 4
    part = make_box_partition(n, 2)
    x0, y0, w, h = part.boxes[0]
    idx = [coord_to_index(x0 + dx, y0 + dy, n) for dx in range(w) for dy in range(h)]
    assert box_core_dichotomy(mask_from_indices(idx, n), part, 0.5)
    assert box_core_dichotomy(mask_from_indices([idx[0]], n), part, 0.5)


def test_dichotomy_validation():
    part = make_box_partition(2, 1)
    empty = np.zeros(num_vertices(2), dtype=bool)
    with pytest.raises(ValueError):
        box_core_dichotomy(empty, part, 0.5)
    one = mask_from_indices([0], 2)
    with pytest.raises(ValueError):
        box_core_dichotomy(one, part, 0.0)
    with pytest.raises(ValueError):
        box_core_dichotomy(one, part, 1.0)
    with pytest.raises(ValueError):
        box_core_dichotomy(one[:-1], part, 0.5)


def test_dichotomy_random_sweep():
    rng = np.random.default_rng(17)
    for n, ell in ((4, 2), (6, 2), (8, 3)):
        part = make_box_partition(n, ell)
        N = num_vertices(n)
        for _ in range(500):
            S = rng.random(N) < rng.uniform(0.05, 0.95)
            if not S.any():
                continue
            eta = rng.uniform(0.05, 0.95)
            assert box_core_dichotomy(S, part, eta)
