"""Slow reference implementations backing the test suite.

Each helper recomputes a library quantity through a deliberately different
route: explicit Python loops, dense linear algebra, or exhaustive
enumeration.  Agreement with the library is then evidence of correctness
rather than a restatement of the same code.  Everything here favours
clarity over speed and is only meant for small instances.  The module also
holds the library's former reference implementations, the per-pair sampler
and the exhaustive conductance scan, which only the tests call.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from swmix.errors import CapacityError
from swmix.expansion import CutReport, _conductance_from
from swmix.generate import (
    ModelParams,
    SmallWorldGraph,
    _assemble,
    _pair_keys,
    _sampling_normalizer,
    _stream,
    long_range_normalizer,
)
from swmix.torus import (
    index_to_coord,
    num_vertices,
    ring_offsets,
    ring_size,
    torus_distance,
    torus_neighbor_indices,
)
from swmix import walk
from swmix.walk import second_eigenpair


def wrapped_distance(u, v, side: int) -> int:
    """Torus distance by scanning the nine shifted copies of v."""
    best = None
    for sx in (-side, 0, side):
        for sy in (-side, 0, side):
            d = abs(u[0] - (v[0] + sx)) + abs(u[1] - (v[1] + sy))
            if best is None or d < best:
                best = d
    return best


def grid_points(n: int):
    return [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]


def ring_count(ell: int, n: int) -> int:
    """Vertices at torus distance ell from the origin, counted by scanning."""
    side = 2 * n + 1
    return sum(1 for p in grid_points(n) if wrapped_distance(p, (0, 0), side) == ell)


def normalizer_pair_sum(n: int, r: float) -> float:
    """Long-range normalizer as a direct sum over the scanned grid."""
    side = 2 * n + 1
    terms = []
    for p in grid_points(n):
        d = wrapped_distance(p, (0, 0), side)
        if d >= 2:
            terms.append(float(d) ** -float(r))
    return math.fsum(terms)


def point_index(x: int, y: int, n: int) -> int:
    return (x + n) * (2 * n + 1) + (y + n)


def torus_edge_list(n: int):
    """Undirected nearest-neighbour edges from modular arithmetic."""
    side = 2 * n + 1
    pairs = set()
    for x, y in grid_points(n):
        i = point_index(x, y, n)
        for dx, dy in ((1, 0), (0, 1)):
            xx = (x + dx + n) % side - n
            yy = (y + dy + n) % side - n
            j = point_index(xx, yy, n)
            pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def torus_neighbors_roll(n: int) -> np.ndarray:
    """(N, 4) neighbour table (+x, -x, +y, -y) from np.roll of the index grid."""
    side = 2 * n + 1
    grid = np.arange(side * side).reshape(side, side)
    shifted = [np.roll(grid, -1, axis=0), np.roll(grid, 1, axis=0), np.roll(grid, -1, axis=1), np.roll(grid, 1, axis=1)]
    return np.stack(shifted, axis=-1).reshape(side * side, 4)


def graph_edge_list(graph):
    """All undirected edges: torus moves plus the stored long-range list."""
    pairs = set(torus_edge_list(graph.n))
    for u, v in np.asarray(graph.long_range_edges).reshape(-1, 2):
        pairs.add((int(min(u, v)), int(max(u, v))))
    return sorted(pairs)


def adjacency_lists(num_vertices: int, edges):
    nbrs = [[] for _ in range(num_vertices)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def edge_boundary_pairs(edges, members):
    """Edges with exactly one endpoint in the set, as sorted (u, v) pairs."""
    out = []
    for u, v in edges:
        if bool(members[u]) != bool(members[v]):
            out.append((u, v))
    return sorted(out)


def vertex_boundary_list(edges, members):
    """Outside vertices adjacent to the set."""
    seen = set()
    for u, v in edges:
        if members[u] and not members[v]:
            seen.add(v)
        elif members[v] and not members[u]:
            seen.add(u)
    return sorted(seen)


def conductance_fraction(edges, members) -> Fraction:
    """Conductance as an exact rational from the edge list."""
    cut = len(edge_boundary_pairs(edges, members))
    deg = [0] * len(members)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    inside = sum(d for d, m in zip(deg, members) if m)
    outside = sum(deg) - inside
    return Fraction(2 * len(edges) * cut, inside * outside)


def expansion_bruteforce(edges, subset, epsilon: float, c: float):
    """Check the expansion property by enumerating every sub-subset.

    Returns True when every T inside the subset with |T| >= (1 - epsilon)|S|
    has at least c * |T| edges leaving the subset from T.
    """
    subset = sorted(subset)
    members = set(subset)
    outside_edges = {v: 0 for v in subset}
    for u, v in edges:
        if u in members and v not in members:
            outside_edges[u] += 1
        if v in members and u not in members:
            outside_edges[v] += 1
    need = max(1, math.ceil((1 - Fraction(epsilon)) * len(subset)))
    for size in range(need, len(subset) + 1):
        for tsub in itertools.combinations(subset, size):
            boundary = sum(outside_edges[v] for v in tsub)
            if boundary < c * len(tsub):
                return False
    return True


def is_connected(vertices, nbrs) -> bool:
    vset = set(vertices)
    if not vset:
        return False
    queue = deque([next(iter(vset))])
    seen = {queue[0]}
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v in vset and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(vset)


def connected_subsets(num_vertices: int, edges, max_size: int):
    """Every connected vertex subset up to max_size, by filtering combinations."""
    nbrs = adjacency_lists(num_vertices, edges)
    out = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(num_vertices), size):
            if is_connected(combo, nbrs):
                out.append(frozenset(combo))
    return out


def bfs_queue(source: int, nbrs):
    """Plain queue-based BFS distances (-1 when unreachable)."""
    dist = [-1] * len(nbrs)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def diameter_allpairs(num_vertices: int, edges) -> int:
    """Exact diameter from a BFS at every vertex."""
    nbrs = adjacency_lists(num_vertices, edges)
    return max(max(bfs_queue(s, nbrs)) for s in range(num_vertices))


def greedy_routes(graph, pairs, hop_cap: int):
    """(hops, delivered) of greedy routing for each (source, target) pair.

    Neighbour lists are rebuilt from the edge list and sorted; every
    neighbour is scored with swmix.torus.torus_distance on coordinates (one
    N x N table, computed up front), and the first minimum wins, so ties go
    to the smallest index.
    """
    N = graph.num_vertices
    nbrs = [sorted(row) for row in adjacency_lists(N, graph_edge_list(graph))]
    coords = np.column_stack(index_to_coord(np.arange(N), graph.n))
    dist = torus_distance(coords[:, None, :], coords[None, :, :], graph.n).tolist()
    out = []
    for source, target in pairs:
        cur, hops = source, 0
        while cur != target and hops < hop_cap:
            scores = [dist[w][target] for w in nbrs[cur]]
            cur = nbrs[cur][scores.index(min(scores))]
            hops += 1
        out.append((hops, cur == target))
    return out


def count_box_sets_brute(num_boxes: int, box_edges, max_size: int):
    """Connected box-set counts per size, by filtering all combinations."""
    nbrs = adjacency_lists(num_boxes, box_edges)
    counts = {}
    for size in range(1, max_size + 1):
        counts[size] = sum(
            1
            for combo in itertools.combinations(range(num_boxes), size)
            if is_connected(combo, nbrs)
        )
    return counts


def neighbor_sets(adjacency_pairs, count):
    """One Python set of neighbours per vertex, from undirected pairs."""
    sets = [set() for _ in range(count)]
    for a, b in adjacency_pairs:
        sets[a].add(b)
        sets[b].add(a)
    return sets


def connected_sets(neighbor_sets, max_size):
    """Yield every connected vertex set of size <= max_size exactly once.

    Anchored growth: sets are grouped by their minimum element; candidates
    are extended one vertex at a time, and a vertex rejected at some branch
    is banned from the whole subtree, which makes the enumeration exact.
    """
    n = len(neighbor_sets)

    def grow(members, cand, banned):
        yield members
        if len(members) == max_size:
            return
        cand = sorted(cand)
        banned = set(banned)
        for u in cand:
            extra = {
                w
                for w in neighbor_sets[u]
                if w > anchor and w not in members and w not in banned
            }
            rest = (set(cand) - {u} - banned) | (extra - set(cand))
            yield from grow(members | {u}, rest - members, banned)
            banned.add(u)

    for anchor in range(n):
        start_cand = {w for w in neighbor_sets[anchor] if w > anchor}
        yield from grow(frozenset([anchor]), start_cand, set())


def count_box_sets_enumerated(graph, partition, max_size: int):
    """Connected box-set counts per size, by set-based anchored-growth enumeration."""
    Q = partition.num_boxes
    labels = partition.labels
    heads = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    lu = labels[heads]
    lv = labels[graph.indices]
    cross = lu != lv
    pair_codes = np.unique(lu[cross].astype(np.int64) * Q + lv[cross])
    pairs = np.column_stack([pair_codes // Q, pair_codes % Q])
    counts = dict.fromkeys(range(1, max_size + 1), 0)
    for members in connected_sets(neighbor_sets(pairs, Q), max_size):
        counts[len(members)] += 1
    return counts


def undirected_edges(graph) -> np.ndarray:
    """(|E|, 2) array of the CSR's entries (u, v) with u < v."""
    heads = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    tails = graph.indices
    keep = heads < tails
    return np.column_stack([heads[keep], tails[keep]])


def min_conductance_all_subsets_loop(graph):
    """All-subsets minimum conductance with one pass per edge over each chunk.

    Codes are scanned in increasing order and the best is replaced only on a
    strictly smaller phi, so the witness is the smallest-code minimiser.
    """
    N = graph.num_vertices
    edges = undirected_edges(graph)
    degrees = graph.degrees
    total = 2 * graph.edge_count
    best_phi, best_code = math.inf, None
    chunk = 1 << 18
    bit_cols = np.arange(N, dtype=np.uint32)
    for lo in range(1, 2**N - 1, chunk):
        codes = np.arange(lo, min(lo + chunk, 2**N - 1), dtype=np.uint64)
        bits = ((codes[:, None] >> bit_cols) & 1).astype(bool)
        dsum = bits @ degrees
        cut = np.zeros(codes.size, dtype=np.int64)
        for u, v in edges:
            cut += bits[:, u] != bits[:, v]
        phi = cut * total / (dsum * (total - dsum))
        i = int(np.argmin(phi))
        if phi[i] < best_phi:
            best_phi = float(phi[i])
            best_code = int(codes[i])
    witness = ((best_code >> np.arange(N)) & 1).astype(bool)
    return best_phi, witness


def min_conductance_anchored_growth(graph):
    """Connected-only minimum conductance over every connected set of size <= N - 1.

    The sets come from anchored-growth enumeration; the witness is the first
    minimiser in that order, not necessarily the smallest code.
    """
    N = graph.num_vertices
    edges = undirected_edges(graph)
    degrees = graph.degrees
    total = 2 * graph.edge_count
    nbr = neighbor_sets(edges, N)
    best_phi, best_set = math.inf, None
    for members in connected_sets(nbr, N - 1):
        idx = np.fromiter(members, dtype=np.int64)
        dsum = int(degrees[idx].sum())
        inside = np.zeros(N, dtype=bool)
        inside[idx] = True
        cut = int((inside[edges[:, 0]] != inside[edges[:, 1]]).sum())
        phi = cut * total / (dsum * (total - dsum))
        if phi < best_phi:
            best_phi, best_set = phi, inside
    return best_phi, best_set


def min_conductance_connected_codes(num_vertices: int, edges):
    """(exact phi, code) of the smallest-code connected minimiser.

    Every code 1 .. 2^N - 2 is decoded, tested for connectivity by BFS and
    scored as an exact rational, so connected sets of every size count.
    """
    nbrs = adjacency_lists(num_vertices, edges)
    best, best_code = None, None
    for code in range(1, 2**num_vertices - 1):
        members = [v for v in range(num_vertices) if code >> v & 1]
        if not is_connected(members, nbrs):
            continue
        mask = np.array([code >> v & 1 for v in range(num_vertices)], dtype=bool)
        val = conductance_fraction(edges, mask)
        if best is None or val < best:
            best, best_code = val, code
    return best, best_code


def sweep_cut_loop(graph):
    """Sweep-cut reports scored one prefix at a time by a Python loop."""
    _, x = second_eigenpair(graph)
    values = x / np.sqrt(graph.degrees)
    order = np.argsort(values, kind="stable")
    N = graph.num_vertices
    total = 2 * graph.edge_count
    in_set = np.zeros(N, dtype=bool)
    nbr_in_count = np.zeros(N, dtype=np.int64)
    dsum = 0
    cut = 0
    vboundary = 0
    reports = []
    for k in range(N - 1):
        v = int(order[k])
        nbrs = graph.indices[graph.indptr[v] : graph.indptr[v + 1]]
        inside_nbrs = int(in_set[nbrs].sum())
        deg = int(graph.degrees[v])
        cut += deg - 2 * inside_nbrs
        dsum += deg
        if nbr_in_count[v] > 0:
            vboundary -= 1  # v was on the outside boundary, now absorbed
        in_set[v] = True
        fresh = nbrs[(nbr_in_count[nbrs] == 0) & ~in_set[nbrs]]
        vboundary += int(fresh.size)
        nbr_in_count[nbrs] += 1
        reports.append(
            CutReport(
                set_size=k + 1,
                edge_boundary=cut,
                vertex_boundary=vboundary,
                degree_sum=dsum,
                conductance=cut * total / (dsum * (total - dsum)),
                alpha=(k + 1) / N,
            )
        )
    return reports


def dense_lazy_kernel(graph) -> np.ndarray:
    """Dense lazy-walk matrix built from modular arithmetic + the edge list."""
    num = graph.num_vertices
    adj = np.zeros((num, num))
    for u, v in graph_edge_list(graph):
        adj[u, v] += 1.0
        adj[v, u] += 1.0
    deg = adj.sum(axis=1)
    return 0.5 * np.eye(num) + 0.5 * adj / deg[:, None]


def stationary_from_edges(graph) -> np.ndarray:
    edges = graph_edge_list(graph)
    deg = np.zeros(graph.num_vertices)
    for u, v in edges:
        deg[u] += 1.0
        deg[v] += 1.0
    return deg / (2.0 * len(edges))


def mixing_time_by_powering(kernel, pi, epsilon: float = 0.25, max_steps: int = 100000) -> int:
    """Smallest t where the worst-start TV distance drops to epsilon.

    Tracks every start at once and advances one step per iteration, so there
    is no doubling or bisection to share bugs with.
    """
    dists = np.eye(kernel.shape[0])
    for t in itertools.count():
        worst = 0.5 * np.abs(dists - pi).sum(axis=1).max()
        if worst <= epsilon:
            return t
        assert t < max_steps, "mixing oracle did not converge"
        dists = dists @ kernel


def mixing_time_stride_bisect(graph, starts="auto", epsilon: float = 0.25):
    """(t_mix, start vertices) from a probe-and-bisect mixing search.

    Probes the worst TV over the start columns at t = 1, 2, 4, 8, 16, then
    every 16 steps, until one probe meets epsilon, and bisects between it and
    the last probe that failed, evolving each midpoint from the distributions
    of that failed probe.  It shares only the kernel, the start policy and
    the evolution step with swmix.walk.mixing_time, which must give the same
    t_mix.
    """
    start_vertices, _ = walk._resolve_starts(graph, starts)
    pi = walk.stationary(graph)[:, None]
    kernel_t = walk._kernel_transpose(graph)
    Y = np.zeros((graph.num_vertices, start_vertices.size))
    Y[start_vertices, np.arange(start_vertices.size)] = 1.0

    def passes(M):
        return 0.5 * float(np.abs(M - pi).sum(axis=0).max()) <= epsilon

    if passes(Y):
        return 0, start_vertices
    lo, Ylo, hi, t = 0, Y, None, 1
    while hi is None or hi - lo > 1:
        Y = walk._evolve(kernel_t, Ylo, lo, t)
        if passes(Y):
            hi = t
        else:
            assert t < walk._MAX_STEPS, "stride-and-bisect oracle did not converge"
            lo, Ylo = t, Y
        t = min(t + min(t, 16), walk._MAX_STEPS) if hi is None else (lo + hi) // 2
    return hi, start_vertices


def spectral_gap_dense(kernel, pi) -> float:
    """Spectral gap via a dense symmetric eigendecomposition."""
    root = np.sqrt(pi)
    sym = root[:, None] * kernel / root[None, :]
    vals = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    return float(1.0 - vals[-2])


def sample_graph_setloop(params):
    """The class-by-class sampler with a per-key set loop.

    Same streams, binomial counts and batch sizes as swmix.generate, but each
    class keeps its distinct keys by walking the batch one key at a time
    through a Python set, and the CSR comes from :func:`assemble_lexsort`.
    The library's batched dedupe and one-key sort must reproduce it array
    for array.
    """
    n, r = params.n, params.r
    N = num_vertices(n)
    side = 2 * n + 1
    z = long_range_normalizer(n, r)
    if z == 0.0:
        raise ValueError(f"normalizer underflowed to zero for r={r}; exponent too large")

    pair_keys = []
    for d in range(2, 2 * n + 1):
        rs = ring_size(d, n)
        num_pairs = N * rs // 2
        p = float(d) ** -r / z
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=params.seed, spawn_key=(d,)))
        )
        k = int(rng.binomial(num_pairs, p))
        if k == 0:
            continue
        offsets = ring_offsets(d, n)
        chosen = set()
        while len(chosen) < k:
            batch = max(16, int(1.2 * (k - len(chosen))))
            u = rng.integers(0, N, size=batch)
            oi = rng.integers(0, rs, size=batch)
            gx, gy = np.divmod(u, side)
            wx = (gx + offsets[oi, 0]) % side
            wy = (gy + offsets[oi, 1]) % side
            w = wx * side + wy
            lo = np.minimum(u, w)
            hi = np.maximum(u, w)
            keys = lo * N + hi
            for key in keys:
                if key not in chosen:
                    chosen.add(int(key))
                    if len(chosen) == k:
                        break
        pair_keys.extend(chosen)

    pair_keys = np.array(sorted(pair_keys), dtype=np.int64)
    long_pairs = np.column_stack([pair_keys // N, pair_keys % N]) if pair_keys.size else np.empty((0, 2), np.int64)
    return assemble_lexsort(params, long_pairs, z)


def assemble_lexsort(params, long_pairs, normalizer):
    """CSR graph of the torus plus long_pairs, ordered by two-key lexsorts.

    Returns a namespace with the attributes a SmallWorldGraph exposes
    (params, num_vertices, indptr, indices, degrees, edge_count,
    long_range_edges, normalizer), so its CSR is this module's own and is
    compared against the library graph's on-demand CSR.
    """
    n = params.n
    N = num_vertices(n)
    nbr = torus_neighbor_indices(n)
    rows = [np.repeat(np.arange(N, dtype=np.int64), 4), ]
    cols = [nbr.reshape(-1).astype(np.int64)]
    long_pairs = np.asarray(long_pairs, dtype=np.int64).reshape(-1, 2)
    if long_pairs.size:
        long_pairs = np.sort(long_pairs, axis=1)
        order = np.lexsort((long_pairs[:, 1], long_pairs[:, 0]))
        long_pairs = long_pairs[order]
        rows.append(long_pairs[:, 0])
        cols.append(long_pairs[:, 1])
        rows.append(long_pairs[:, 1])
        cols.append(long_pairs[:, 0])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indices = cols[order]
    counts = np.bincount(rows, minlength=N)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    degrees = np.diff(indptr)
    for arr in (indices, indptr, degrees, long_pairs):
        arr.setflags(write=False)
    return SimpleNamespace(
        params=params,
        num_vertices=N,
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        edge_count=indices.size // 2,
        long_range_edges=long_pairs,
        normalizer=normalizer,
    )


def ring_offsets_loop(ell: int, n: int) -> np.ndarray:
    """Ring offsets built one ring at a time by walking |a| = lo..hi.

    Offsets (a, b) with |a| + |b| = ell restricted to the coordinate box; at
    ell > n the tails |a| > n or |b| > n are cut off by the wraparound.  The
    library's rule, torus._ring_offset, must give the same read-only array.
    """
    lo = max(0, ell - n)
    hi = min(ell, n)
    offs = []
    for a in range(lo, hi + 1):
        b = ell - a
        for sa in (1,) if a == 0 else (1, -1):
            for sb in (1,) if b == 0 else (1, -1):
                offs.append((sa * a, sb * b))
    arr = np.array(sorted(offs), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def sample_graph_naive_full(params):
    """The per-pair reference sampler drawn over the whole N x N matrix.

    One uniform per eligible pair of the upper triangle, in row-major order,
    from the stream under spawn key (1,).  The row-block sampler
    :func:`sample_graph_naive` must reproduce it array for array.
    """
    n, r = params.n, params.r
    N = num_vertices(n)
    side = 2 * n + 1
    z = long_range_normalizer(n, r)
    gx, gy = np.divmod(np.arange(N), side)
    dx = np.abs(gx[:, None] - gx[None, :])
    dy = np.abs(gy[:, None] - gy[None, :])
    dist = np.minimum(dx, side - dx) + np.minimum(dy, side - dy)
    iu, iv = np.triu_indices(N, k=1)
    d = dist[iu, iv]
    eligible = d >= 2
    probs = d[eligible].astype(np.float64) ** -r / z
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=params.seed, spawn_key=(1,))))
    accept = rng.random(probs.size) < probs
    long_pairs = np.column_stack([iu[eligible][accept], iv[eligible][accept]])
    return assemble_lexsort(params, long_pairs, z)


# Quadratic reference sampler refuses graphs above this many vertices.  Its
# cost is time, quadratic in N: at n = 24 (N = 2401, the largest n under the
# cap) one call takes 0.12-0.14 s and raises peak RSS by about 3 MB, because
# it holds only _NAIVE_BLOCK_ROWS rows of the pair triangle at once (2-vCPU
# Xeon VM, numpy 2.4).
NAIVE_SAMPLER_MAX_VERTICES = 2500
_NAIVE_BLOCK_ROWS = 16


def sample_graph_naive(params: ModelParams) -> SmallWorldGraph:
    """Quadratic reference sampler: one Bernoulli draw per vertex pair.

    Same model law as :func:`swmix.generate.sample_graph` but a different
    stream layout, so the two are compared statistically, not edge for edge.

    Raises:
        CapacityError: if N exceeds NAIVE_SAMPLER_MAX_VERTICES.
        ValueError: if r is not finite or the normalizer underflows to zero.
    """
    z = _sampling_normalizer(params.n, params.r)
    n, r = params.n, params.r
    N = num_vertices(n)
    if N > NAIVE_SAMPLER_MAX_VERTICES:
        raise CapacityError(
            f"reference sampler is quadratic; N={N} exceeds cap {NAIVE_SAMPLER_MAX_VERTICES}"
        )
    side = 2 * n + 1
    gx, gy = np.divmod(np.arange(N), side)
    rng = _stream(params.seed, 1)
    long_pairs = [np.empty((0, 2), np.int64)]
    # The upper triangle goes in blocks of rows, in row-major order.  Each
    # rng.random call continues the same stream, so every eligible pair meets
    # the same uniform as in one draw over the whole triangle.
    for lo in range(0, N, _NAIVE_BLOCK_ROWS):
        u = np.arange(lo, min(lo + _NAIVE_BLOCK_ROWS, N))
        v = np.arange(lo + 1, N)
        dx = np.abs(gx[u, None] - gx[None, v])
        dy = np.abs(gy[u, None] - gy[None, v])
        dist = np.minimum(dx, side - dx) + np.minimum(dy, side - dy)
        iu, iv = np.nonzero((v[None, :] > u[:, None]) & (dist >= 2))
        probs = dist[iu, iv].astype(np.float64) ** -r / z
        accept = rng.random(probs.size) < probs
        long_pairs.append(np.column_stack([u[iu[accept]], v[iv[accept]]]))
    return _assemble(params, _pair_keys(np.concatenate(long_pairs), N), z)


# The subset scan refuses graphs above this many vertices.  At N = 25 it
# takes about 3.8 s over all subsets and 6.1 s connected-only (2-vCPU Xeon,
# one BLAS thread); every vertex more doubles it.
BRUTE_ALL_SUBSETS_MAX_VERTICES = 25
_SCAN_CHUNK = 1 << 18  # codes per chunk: 2 MB per int64 column


def _is_connected(code: int, nbr) -> bool:
    """Whether the set with bit code `code` induces a connected subgraph: grow
    a mask from its lowest bit through the neighbour masks to a fixed point."""
    reach, grown = 0, code & -code
    while grown != reach:
        reach = rest = grown
        while rest:
            low = rest & -rest
            grown |= nbr[low.bit_length() - 1]
            rest ^= low
        grown &= code
    return reach == code


def min_conductance_bruteforce(graph: SmallWorldGraph, connected_only=False):
    """Exhaustive minimum conductance; returns (phi, witness mask).

    One scan over the subset codes (bit v set when vertex v is in S) serves
    both modes, so both share the BRUTE_ALL_SUBSETS_MAX_VERTICES cap.  Per
    chunk of codes, the cut is d(S) minus the internal edge ends,
    popcount(S & nbr[v]) summed over v in S (the graph is simple), and phi
    comes from the same formula as `swmix.conductance`, float for float.  That
    formula gives S and its complement the same phi bit for bit, and of the
    two the smaller code leaves bit N - 1 clear, so over all subsets the scan
    covers codes 1 .. 2^(N-1) - 1 only.  With connected_only=True it covers
    1 .. 2^N - 2, since the complement of a connected set need not be
    connected, and the codes that beat the running best are tested in phi
    order until one induces a connected subgraph.

    The witness is the smallest code sum(2^v) among the minimisers, in
    either mode; any other minimiser has the same phi.

    Raises:
        CapacityError: above BRUTE_ALL_SUBSETS_MAX_VERTICES vertices.
    """
    N = graph.num_vertices
    if N > BRUTE_ALL_SUBSETS_MAX_VERTICES:
        raise CapacityError(
            f"subset scan capped at {BRUTE_ALL_SUBSETS_MAX_VERTICES} vertices, got {N}"
        )
    bit = np.uint32(1) << np.arange(N, dtype=np.uint32)
    # every row is non-empty: each vertex has its four torus edges
    nbr = np.bitwise_or.reduceat(bit[graph.indices], graph.indptr[:-1]).tolist()
    degrees = graph.degrees
    best_phi, best_code = math.inf, None
    stop = 2**N - 1 if connected_only else 2 ** (N - 1)
    for lo in range(1, stop, _SCAN_CHUNK):
        codes = np.arange(lo, min(lo + _SCAN_CHUNK, stop), dtype=np.uint32)
        dsum = np.zeros(codes.size, dtype=np.int64)
        inner = np.zeros(codes.size, dtype=np.int64)
        for v in range(N):
            has = (codes >> v) & 1
            dsum += has * degrees[v]
            inner += has * np.bitwise_count(codes & nbr[v])
        phi = _conductance_from(graph, dsum - inner, dsum)
        if connected_only:
            cand = np.flatnonzero(phi < best_phi)
            for i in cand[np.argsort(phi[cand], kind="stable")].tolist():
                if _is_connected(lo + i, nbr):
                    best_phi, best_code = float(phi[i]), lo + i
                    break
        else:
            i = int(np.argmin(phi))
            if phi[i] < best_phi:
                best_phi, best_code = float(phi[i]), lo + i
    witness = ((best_code >> np.arange(N)) & 1).astype(bool)
    return best_phi, witness
