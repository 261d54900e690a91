"""Slow reference implementations backing the test suite.

Each helper recomputes a library quantity through a deliberately different
route: explicit Python loops, dense linear algebra, or exhaustive
enumeration.  Agreement with the library is then evidence of correctness
rather than a restatement of the same code.  Everything here favours
clarity over speed and is only meant for small instances.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from swmix.torus import index_to_coord, torus_distance


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


def spectral_gap_dense(kernel, pi) -> float:
    """Spectral gap via a dense symmetric eigendecomposition."""
    root = np.sqrt(pi)
    sym = root[:, None] * kernel / root[None, :]
    vals = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    return float(1.0 - vals[-2])
