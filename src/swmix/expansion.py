"""Cuts, conductance, expansion certificates, and exact small-scale minima.

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

The exact minimum conductance is one scan over every subset code of a graph
with at most 25 vertices, for all sets or connected sets only; each cut comes
from per-vertex neighbour bit masks and popcounts (Knuth, TAOCP 4A, 7.1.3).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bfs
from .errors import CapacityError
from .generate import SmallWorldGraph
from .torus import BoxPartition, _as_mask, _check_n
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
    "min_conductance_bruteforce",
    "sweep_cut",
    "ball_set",
    "count_connected_box_sets",
    "diameter",
]

# Exhaustive minima and the box-set counter refuse inputs above these sizes.
# At N = 25 the subset scan takes about 3.8 s over all subsets and 6.1 s
# connected-only (2-vCPU Xeon, one BLAS thread); every vertex more doubles it.
BRUTE_ALL_SUBSETS_MAX_VERTICES = 25
_SCAN_CHUNK = 1 << 18  # codes per chunk: 2 MB per int64 column
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
    """Directed adjacency entries (head in S, tail outside S)."""
    inside = np.flatnonzero(S)
    starts = graph.indptr[inside]
    counts = graph.indptr[inside + 1] - starts
    heads = np.repeat(inside, counts)
    tails = graph.indices[bfs._concat_ranges(starts, counts)]
    out = ~S[tails]
    return heads[out], tails[out]


def edge_boundary(graph: SmallWorldGraph, S) -> np.ndarray:
    """Edges leaving S, as (k, 2) pairs (u, v) with u < v, lexsorted."""
    S = _as_mask(S, graph.n)
    heads, tails = _cut_entries(graph, S)
    pairs = np.column_stack([heads, tails])
    pairs.sort(axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


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
    at once.  The subset-size floor is ceil((1 - epsilon) |S|) computed in
    exact rational arithmetic.

    Raises:
        ValueError: if S is empty, epsilon is outside (0, 1), or c <= 0.
    """
    S = _as_mask(S, graph.n)
    size = int(S.sum())
    if size == 0:
        raise ValueError("expansion check needs a nonempty vertex set")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c!r}")
    heads, _ = _cut_entries(graph, S)
    per_vertex = np.bincount(heads, minlength=graph.num_vertices)[S]
    per_vertex.sort()
    prefix = np.cumsum(per_vertex)
    m_floor = int(math.ceil((1 - Fraction(float(epsilon))) * size))
    m_floor = max(m_floor, 1)
    sizes = np.arange(m_floor, size + 1)
    margins = prefix[sizes - 1] - c * sizes
    worst = int(np.argmin(margins))
    return ExpansionVerdict(
        holds=bool(margins[worst] >= 0),
        epsilon=float(epsilon),
        c=float(c),
        set_size=size,
        min_subset_size=m_floor,
        worst_subset_size=int(sizes[worst]),
        worst_boundary=int(prefix[sizes[worst] - 1]),
        required=float(c * sizes[worst]),
    )


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
    comes from the same formula as `conductance`, float for float.  That
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

    head = np.repeat(rank, graph.degrees)
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
    if not isinstance(radius, (int, np.integer)) or not 1 <= radius <= n:
        raise ValueError(f"radius must be an integer in [1, n={n}], got {radius!r}")
    side = 2 * n + 1
    gx, gy = np.divmod(np.arange(side * side), side)
    return (np.abs(gx - n) + np.abs(gy - n)) <= radius


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
    q = operator.index(q)
    if not 1 <= q:
        raise ValueError(f"q must be >= 1, got {q!r}")
    if q > BOX_SET_MAX_SIZE:
        raise CapacityError(f"box-set size capped at {BOX_SET_MAX_SIZE}, got q={q}")
    Q = partition.num_boxes
    if Q > BOX_GRAPH_MAX_BOXES:
        raise CapacityError(f"box graph capped at {BOX_GRAPH_MAX_BOXES} boxes, got {Q}")
    bits = np.uint64(1) << partition.labels.astype(np.uint64)
    nbr = np.zeros(Q, dtype=np.uint64)
    # a box's own bit does no harm: every box is excluded before its mask is read
    np.bitwise_or.at(nbr, np.repeat(partition.labels, graph.degrees), bits[graph.indices])
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
