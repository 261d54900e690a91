"""Cuts, conductance, expansion certificates, sweep cuts, box sets, diameter.

Vertex sets are boolean masks over canonical indices.  For a set S in graph
G = (V, E) the edge boundary is the set of edges with exactly one endpoint
in S, the vertex boundary is the set of outside vertices adjacent to S, and
the conductance is

    phi(S) = |boundary(S)| / ( d(S) * d(V \\ S) / (2 |E|) ),

where d(X) sums degrees over X.  phi is symmetric under complementation and
positive for every proper nonempty S of a connected graph.

The expansion certificate checks, for given epsilon and c, that every
subset S' of S with |S'| >= (1 - epsilon)|S| keeps |boundary(S) cap
boundary(S')| >= c |S'|.  Sorting the per-vertex outside-edge counts makes
the worst S' of each size a prefix, so the check is exact and runs in
O(|S| log |S|) despite quantifying over exponentially many subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bfs
from .errors import CapacityError
from .generate import SmallWorldGraph, _pair_keys
from .torus import BoxPartition, _as_mask, _check_n, _integer, _real, _split
from .walk import second_eigenpair

__all__ = [
    "CutReport",
    "cut_report",
    "edge_boundary",
    "vertex_boundary",
    "degree_sum",
    "conductance",
    "ExpansionVerdict",
    "is_expanding",
    "sweep_cut",
    "ball_set",
    "count_connected_box_sets",
    "diameter",
]

# Box-set counts at q = 4 take 2 ms at Q = 64 (n = 8) and 6 ms at Q = 49 (n = 15), both at r = 0
# (2-vCPU Xeon); each box's neighbours are one uint64 mask, so 64 boxes is also its width.
BOX_GRAPH_MAX_BOXES = 64
# Each step of q costs about 10x: in one run q = 4, 5, 6 took 0.9 ms, 10 ms, 70 ms at Q = 64 and
# 2.8 ms, 38 ms, 0.40 s at Q = 49 (seed 0, r = 0).  The cap stays at 4 because
# test_box_set_capacity pins the CapacityError at q = 5.
BOX_SET_MAX_SIZE = 4
# At n = 157 (N = 99,225), one seed each, exact_diameter takes 8.8 s at r = 1,
# 6.1 s at r = 4 and 357 s on the bare torus (2-vCPU Xeon, one BLAS thread),
# where every eccentricity equals the diameter and half the vertices are searched.
DIAMETER_MAX_VERTICES = 100_000


def _cut_entries(graph: SmallWorldGraph, S: np.ndarray):
    """Directed adjacency entries (head in S, tail outside S), in CSR order."""
    cut = S[graph.entry_rows] & ~S[graph.indices]
    return graph.entry_rows[cut], graph.indices[cut]


def edge_boundary(graph: SmallWorldGraph, S) -> np.ndarray:
    """Edges leaving S, as (k, 2) pairs (u, v) with u < v, lexsorted (the order of their keys u * N + v)."""
    S = _as_mask(S, graph.n)
    N = graph.num_vertices
    keys = _pair_keys(np.column_stack(_cut_entries(graph, S)), N)
    return np.column_stack(np.divmod(keys, N))


def vertex_boundary(graph: SmallWorldGraph, S) -> np.ndarray:
    """Bool mask of vertices outside S adjacent to at least one vertex of S."""
    S = _as_mask(S, graph.n)
    _, tails = _cut_entries(graph, S)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[tails] = True
    return mask


def degree_sum(graph: SmallWorldGraph, S) -> int:
    """Sum of vertex degrees over S."""
    S = _as_mask(S, graph.n)
    return int(graph.degrees[S].sum())


def conductance(graph: SmallWorldGraph, S) -> float:
    """Conductance phi(S); raises ValueError for empty or full S."""
    return cut_report(graph, S).conductance


def _conductance_from(graph: SmallWorldGraph, cut, dsum):
    # ints or int64 arrays give the same float while both products stay below 2**53
    total = 2 * graph.edge_count
    return cut * total / (dsum * (total - dsum))


@dataclass(frozen=True)
class CutReport:
    """Summary of one cut: sizes, boundaries, degree mass, conductance."""

    set_size: int
    edge_boundary: int
    vertex_boundary: int
    degree_sum: int
    conductance: float
    alpha: float  # volume fraction |S| / N


def cut_report(graph: SmallWorldGraph, S) -> CutReport:
    """CutReport for the given proper nonempty vertex set."""
    S = _as_mask(S, graph.n)
    size = int(S.sum())
    if size == 0 or size == graph.num_vertices:
        raise ValueError("a cut needs a proper nonempty vertex set")
    _, tails = _cut_entries(graph, S)
    cut = int(tails.size)
    vb = int(np.unique(tails).size)
    dsum = int(graph.degrees[S].sum())
    return CutReport(
        set_size=size,
        edge_boundary=cut,
        vertex_boundary=vb,
        degree_sum=dsum,
        conductance=_conductance_from(graph, cut, dsum),
        alpha=size / graph.num_vertices,
    )


@dataclass(frozen=True)
class ExpansionVerdict:
    """Outcome of the (epsilon, c) expansion check on one set."""

    holds: bool
    epsilon: float
    c: float
    set_size: int
    min_subset_size: int
    worst_subset_size: int
    worst_boundary: int
    required: float


def is_expanding(graph: SmallWorldGraph, S, epsilon, c) -> ExpansionVerdict:
    """Exact check that S is (epsilon, c)-expanding in G.

    Every S' subseteq S with |S'| >= (1 - epsilon)|S| must satisfy
    |boundary(S) cap boundary(S')| >= c |S'|.  The boundary intersection for
    fixed |S'| = m is minimized by the m vertices of S with the fewest edges
    leaving S, so prefix sums of the sorted per-vertex counts decide every m
    at once.  The subset-size floor is ceil((1 - epsilon) |S|), computed in
    exact integers from the float epsilon's ratio num / den.

    Raises:
        TypeError: if epsilon or c is not a real number.
        ValueError: if S is empty, epsilon is outside (0, 1), or c <= 0.
    """
    S = _as_mask(S, graph.n)
    size = int(S.sum())
    if size == 0:
        raise ValueError("expansion check needs a nonempty vertex set")
    epsilon, c = _real(epsilon, "epsilon", "(0, 1)"), _real(c, "c", "(0, inf]")
    heads, _ = _cut_entries(graph, S)
    per_vertex = np.bincount(heads, minlength=graph.num_vertices)[S]
    per_vertex.sort()
    prefix = np.cumsum(per_vertex)
    # ceil((den - num) size / den) by floor division of the negated numerator
    num, den = epsilon.as_integer_ratio()
    m_floor = max(-((num - den) * size // den), 1)
    sizes = np.arange(m_floor, size + 1)
    margins = prefix[sizes - 1] - c * sizes
    worst = int(np.argmin(margins))
    return ExpansionVerdict(
        holds=bool(margins[worst] >= 0),
        epsilon=epsilon,
        c=c,
        set_size=size,
        min_subset_size=m_floor,
        worst_subset_size=int(sizes[worst]),
        worst_boundary=int(prefix[sizes[worst] - 1]),
        required=float(c * sizes[worst]),
    )


def sweep_cut(graph: SmallWorldGraph):
    """Conductance sweep along the second eigenvector of the lazy kernel.

    Vertices are ordered by the kernel's second right eigenvector (computed
    on the symmetrized kernel, then rescaled by D^(-1/2)); the N - 1 proper
    prefixes of that order are scored together in O(|E|) by difference
    arrays over sweep ranks: an edge with ranks a < b is cut by the prefixes
    k in [a, b), and a vertex of rank b whose lowest neighbour rank is a
    lies on their vertex boundary for the same k.

    Returns:
        List of CutReport, one per proper prefix, in sweep order.
    """
    _, x = second_eigenpair(graph)
    order = np.argsort(x / np.sqrt(graph.degrees), kind="stable")
    N = graph.num_vertices
    rank = np.empty(N, dtype=np.int64)
    rank[order] = np.arange(N)

    def covering(starts, stops):
        # how many rank intervals [start, stop) hold each prefix end k < N - 1
        return np.cumsum(np.bincount(starts, minlength=N) - np.bincount(stops, minlength=N))[:-1]

    head = rank[graph.entry_rows]
    tail = rank[graph.indices]
    forward = head < tail
    first = np.minimum.reduceat(tail, graph.indptr[:-1])
    entered = first < rank
    cut = covering(head[forward], tail[forward])
    vboundary = covering(first[entered], rank[entered])
    dsum = np.cumsum(graph.degrees[order])[:-1]
    phi = _conductance_from(graph, cut, dsum)
    columns = zip(range(1, N), cut.tolist(), vboundary.tolist(), dsum.tolist(), phi.tolist())
    return [CutReport(k, c, vb, d, p, alpha=k / N) for k, c, vb, d, p in columns]


def ball_set(n, radius) -> np.ndarray:
    """Mask of the L1 ball of the given radius around the origin.

    The ball has 1 + 2 * radius * (radius + 1) vertices; radius must lie in
    [1, n] so the ball never wraps onto itself.
    """
    n = _check_n(n)
    radius = _integer(radius, "radius", 1, n + 1)
    x, y = _split(np.arange((2 * n + 1) ** 2), n)
    return (np.abs(x) + np.abs(y)) <= radius


def count_connected_box_sets(graph: SmallWorldGraph, partition: BoxPartition, q) -> int:
    """Number of ways to pick q distinct boxes whose union is connected in G.

    Two boxes are adjacent when any graph edge (torus or long-range) joins
    them; a union of boxes is connected in G exactly when the picked boxes
    form a connected set in that box graph, since each box is internally
    connected.  Counted by anchored growth on box bit masks: each set grows
    from its lowest box through the neighbour masks, and a box left out of
    a branch is banned from the later branches, so every set is counted
    once; the choices of the last box are one popcount of the candidates.

    Raises:
        TypeError: if q is not an integer.
        CapacityError: if the partition has more than BOX_GRAPH_MAX_BOXES
            boxes or q exceeds BOX_SET_MAX_SIZE.
        ValueError: if q < 1 or the partition does not match the graph.
    """
    if partition.n != graph.n:
        raise ValueError("partition and graph have different torus parameters")
    q = _integer(q, "q", 1)
    if q > BOX_SET_MAX_SIZE:
        raise CapacityError(f"box-set size capped at {BOX_SET_MAX_SIZE}, got q={q}")
    Q = partition.num_boxes
    if Q > BOX_GRAPH_MAX_BOXES:
        raise CapacityError(f"box graph capped at {BOX_GRAPH_MAX_BOXES} boxes, got {Q}")
    bits = np.uint64(1) << partition.labels.astype(np.uint64)
    nbr = np.zeros(Q, dtype=np.uint64)
    # a box's own bit does no harm: every box is excluded before its mask is read
    np.bitwise_or.at(nbr, partition.labels[graph.entry_rows], bits[graph.indices])
    nbr = nbr.tolist()

    def grow(cand, excluded, room):
        # connected ways to add `room` boxes from cand, none of them excluded
        if room <= 1:
            return cand.bit_count() if room else 1
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            excluded |= low
            total += grow((cand | nbr[low.bit_length() - 1]) & ~excluded, excluded, room - 1)
        return total

    # sets grouped by their lowest box b: boxes 0..b are excluded from the growth
    return sum(grow(nbr[b] & -(2 << b), (2 << b) - 1, q - 1) for b in range(Q))


def diameter(graph: SmallWorldGraph) -> tuple:
    """(diameter, lower): the exact diameter and the double-sweep lower bound.

    Both come from one `bfs.exact_diameter` search.

    Raises:
        CapacityError: above DIAMETER_MAX_VERTICES vertices.
    """
    if graph.num_vertices > DIAMETER_MAX_VERTICES:
        raise CapacityError(
            f"diameter computation capped at {DIAMETER_MAX_VERTICES} vertices, got {graph.num_vertices}"
        )
    return bfs.exact_diameter(graph)
