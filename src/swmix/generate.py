"""Sampling of small-world random graphs on the torus.

The model has vertex set B_n = {-n, ..., n}^2.  All 2N torus (grid) edges are
always present, so every vertex has base degree 4.  Independently for every
unordered pair {u, v} at torus distance d >= 2, a long-range edge is added
with probability

    p(d) = d^(-r) / Z,     Z = sum_{d=2}^{2n} ring_size(d, n) * d^(-r),

where r >= 0 is the clustering exponent.  Z is exactly the sum of dist^(-r)
over all vertices at distance >= 2 from a fixed vertex, so each vertex gains
one long-range edge in expectation and the expected number of long-range
edges is N / 2.  Pairs at distance 1 never receive a second, parallel edge.

Sampling. The default sampler works per distance class: the class at distance
d holds M_d = N * ring_size(d, n) / 2 unordered pairs, so the number of class
edges is drawn as K_d ~ Binomial(M_d, p(d)) and then K_d distinct pairs are
drawn uniformly from the class (uniform vertex, uniform ring offset, reject
repeats).  Since i.i.d. Bernoulli indicators conditioned on their sum are a
uniform subset of that size, the resulting edge set has exactly the per-pair
product law of the model; a quadratic per-pair reference sampler is kept for
statistical cross-checks.

The draws run in batched rounds.  In each round every class that is still
short by s pairs draws a batch of max(16, int(1.2 s)) (vertex, offset) pairs
from its own stream, and the batches of all classes are deduplicated
together: a pair is kept if its key lo * N + hi is new, and each class keeps
its first s new keys in draw order.  This is the same set that rejecting
repeats one key at a time picks, because two classes never share a key (their
pairs lie at different torus distances) and the first occurrence of a key in
draw order is the one a one-at-a-time loop would meet first.

Randomness. Every draw in the package comes from ``_stream(seed, *spawn_key)``,
a counter-based Philox stream keyed by (seed, purpose) and so reproducible
independently of evaluation order.  The spawn keys, one purpose each:

    (d,)     sample_graph: distance class d, for 2 <= d <= 2n
    (1,)     sample_graph_naive: the per-pair uniforms
    (0, 1)   walk.heuristic_start_vertices: the uniform start vertices
    (0, 2)   walk.second_eigenpair: the Lanczos start vector
    (0, 3)   the routing experiment: source and target pairs
    (0, 4)   the expansion experiment: random sets and boxes
    (0, 5)   tests/data/run_pilot.py: random connected sets
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import CapacityError, GraphFormatError
from .torus import (
    _check_n,
    num_vertices,
    ring_size,
    ring_table,
    torus_neighbor_indices,
)

__all__ = [
    "ModelParams",
    "SmallWorldGraph",
    "long_range_normalizer",
    "edge_probability",
    "sample_graph",
    "sample_graph_naive",
    "torus_only_graph",
    "save_graph",
    "load_graph",
]

# Quadratic reference sampler refuses graphs above this many vertices.  Its
# cost is time, quadratic in N: at n = 24 (N = 2401, the largest n under the
# cap) one call takes 0.12-0.14 s and raises peak RSS by about 3 MB, because
# it holds only _NAIVE_BLOCK_ROWS rows of the pair triangle at once (2-vCPU
# Xeon VM, numpy 2.4).
NAIVE_SAMPLER_MAX_VERTICES = 2500
_NAIVE_BLOCK_ROWS = 16

GRAPH_FILE_MAGIC = "swg"


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, r, seed) of one graph instance.

    n >= 1 is the torus parameter, r >= 0 the distance exponent (math.inf
    marks the degenerate torus-only graph), and seed a 64-bit unsigned
    integer feeding the samplers.
    """

    n: int
    r: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_n(self.n))
        r = float(self.r)
        if math.isnan(r) or r < 0:
            raise ValueError(f"r must be a real number >= 0, got {self.r!r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "seed", _seed64(self.seed, "seed"))


def _seed64(value, what: str) -> int:
    """value as a Python int; ValueError unless it is an integer in [0, 2^64)."""
    if not isinstance(value, (int, np.integer)) or not 0 <= value < 2**64:
        raise ValueError(f"{what} must be a 64-bit unsigned integer, got {value!r}")
    return int(value)


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """The Philox stream of one purpose; the module docstring lists the spawn keys."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)))


def long_range_normalizer(n, r) -> float:
    """Normalizing constant Z = sum_{d=2}^{2n} ring_size(d, n) * d^(-r).

    Grows like n^(2-r) for r < 2, like log n at r = 2, and stays bounded for
    r > 2.  Exact compensated summation keeps the value reproducible to the
    last few ulps.
    """
    params = ModelParams(n=n, r=r, seed=0)  # reuse the domain validation
    n, r = params.n, params.r
    if math.isinf(r):
        return 0.0
    return math.fsum(ring_size(d, n) * d**-r for d in range(2, 2 * n + 1))


def _sampling_normalizer(n, r) -> float:
    """Z for drawing long-range edges; ValueError where it is 0.0 (r = inf, or every d^(-r) underflowed)."""
    z = long_range_normalizer(n, r)
    if z == 0.0:
        why = "sampling needs a finite exponent" if math.isinf(float(r)) else "normalizer underflowed to zero"
        raise ValueError(f"{why} at r={r}; torus_only_graph gives the bare torus")
    return z


def edge_probability(n, r, distance) -> float:
    """Probability distance^(-r) / Z of a long-range edge at the given distance.

    Raises:
        ValueError: if distance is outside [2, 2n], r is not finite, or Z
            underflows to zero.
    """
    if not 2 <= distance <= 2 * n:
        raise ValueError(f"long-range distance must lie in [2, 2n = {2 * n}], got {distance}")
    return float(distance) ** -float(r) / _sampling_normalizer(n, r)


@dataclass(frozen=True)
class SmallWorldGraph:
    """One sampled graph, stored as a CSR adjacency over canonical indices.

    Attributes:
        params: the (n, r, seed) triple the graph was sampled from.
        num_vertices: N = (2n+1)^2.
        indptr, indices: CSR structure of the symmetric adjacency; neighbour
            lists are sorted and contain no duplicates.
        degrees: (N,) vertex degrees; always >= 4 because of the torus edges.
        edge_count: number of undirected edges |E| = 2N + #long-range.
        long_range_edges: (k, 2) canonical index pairs with u < v, sorted.
        normalizer: the constant Z of the sampled parameters.
    """

    params: ModelParams
    num_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    edge_count: int
    long_range_edges: np.ndarray
    normalizer: float

    @property
    def n(self) -> int:
        return self.params.n

    def degree(self, v) -> int:
        return int(self.degrees[v])

    def neighbours(self, v) -> np.ndarray:
        """Sorted canonical indices adjacent to v (read-only view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @cached_property
    def adjacency(self) -> scipy.sparse.csr_matrix:
        """Symmetric 0/1 adjacency as a scipy CSR matrix (float64 data)."""
        data = np.ones(self.indices.size, dtype=np.float64)
        mat = scipy.sparse.csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.num_vertices, self.num_vertices),
        )
        return mat

    @cached_property
    def neighbour_slots(self) -> tuple:
        """Degree-ordered neighbour-slot layout shared by the BFS kernels.

        Returns (order, rank, columns): order lists the vertices by
        decreasing degree and rank is its inverse permutation.  In rank
        space the vertices with a j-th neighbour form a prefix, and
        columns[j] holds the rank of the j-th neighbour of each of them, so
        one dense gather per slot visits every CSR entry exactly once.
        """
        deg = np.diff(self.indptr)
        order = np.argsort(-deg)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        first = self.indptr[order]
        columns = tuple(rank[self.indices[first[: np.count_nonzero(deg > j)] + j]] for j in range(deg.max()))
        for arr in (order, rank, *columns):
            arr.setflags(write=False)
        return order, rank, columns


def _assemble(params: ModelParams, long_pairs: np.ndarray, normalizer: float) -> SmallWorldGraph:
    """Build the CSR graph from the torus plus the given long-range pairs.

    Every directed edge is one int64 key row * N + col, so a single sort of
    the keys orders the rows and, within each row, the neighbours.
    """
    n = params.n
    N = num_vertices(n)
    u, v = np.asarray(long_pairs, dtype=np.int64).reshape(-1, 2).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    long_keys = np.sort(lo * N + hi)
    long_pairs = np.column_stack(np.divmod(long_keys, N))
    torus_keys = np.arange(N, dtype=np.int64)[:, None] * N + torus_neighbor_indices(n)
    keys = np.concatenate([torus_keys.reshape(-1), long_keys, hi * N + lo])
    keys.sort()
    indices = keys % N
    degrees = np.bincount(long_pairs.reshape(-1), minlength=N) + 4
    indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    for arr in (indices, indptr, degrees, long_pairs):
        arr.setflags(write=False)
    return SmallWorldGraph(
        params=params,
        num_vertices=N,
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        edge_count=indices.size // 2,
        long_range_edges=long_pairs,
        normalizer=normalizer,
    )


def _draw_long_range_keys(params: ModelParams, z: float) -> np.ndarray:
    """Sorted keys lo * N + hi of the long-range pairs, drawn class by class.

    Each round draws one batch for every class that is still short and keeps,
    per class, its first new keys in draw order, up to the number it needs.
    """
    n, r = params.n, params.r
    N = num_vertices(n)
    side = 2 * n + 1
    dists = range(2, 2 * n + 1)
    rngs = [_stream(params.seed, d) for d in dists]
    sizes = [ring_size(d, n) for d in dists]
    need = np.array(
        [int(rng.binomial(N * rs // 2, float(d) ** -r / z)) for rng, rs, d in zip(rngs, sizes, dists)],
        dtype=np.int64,
    )
    # class c is ring c + 2, which starts at row base[c] of the ring table
    offsets, starts = ring_table(n)
    base = starts[2:-1]
    chosen = [np.empty(0, np.int64)]
    active = np.flatnonzero(need)
    while active.size:
        batches = [max(16, int(1.2 * need[c])) for c in active]
        u = np.concatenate([rngs[c].integers(0, N, size=b) for c, b in zip(active, batches)])
        oi = np.concatenate([rngs[c].integers(0, sizes[c], size=b) + base[c] for c, b in zip(active, batches)])
        cls = np.repeat(active, batches)
        gx, gy = np.divmod(u, side)
        w = (gx + offsets[oi, 0]) % side * side + (gy + offsets[oi, 1]) % side
        keys = np.minimum(u, w) * N + np.maximum(u, w)
        uniq, first = np.unique(keys, return_index=True)
        first = np.sort(first[~np.isin(uniq, np.concatenate(chosen))])
        # Rank of each new key within its class, in draw order.
        c = cls[first]
        keep = first[np.arange(first.size) - np.searchsorted(c, c) < need[c]]
        chosen.append(keys[keep])
        need -= np.bincount(cls[keep], minlength=need.size)
        active = np.flatnonzero(need)
    return np.sort(np.concatenate(chosen))


def sample_graph(params: ModelParams) -> SmallWorldGraph:
    """Sample one graph with the per-distance-class binomial sampler.

    Equivalent in law to independent per-pair Bernoulli draws; see the module
    docstring.  Repeated pairs are dropped in batched rounds over all classes
    at once, which keeps per class the first new keys in draw order and so
    picks the same pairs as a per-key rejection loop.  Runs in
    O((N + #edges) log N) expected time.

    Raises:
        ValueError: if r is not finite (use :func:`torus_only_graph` for the
            degenerate bare torus) or the normalizer underflows to zero.
    """
    z = _sampling_normalizer(params.n, params.r)
    pair_keys = _draw_long_range_keys(params, z)
    return _assemble(params, np.column_stack(np.divmod(pair_keys, num_vertices(params.n))), z)


def sample_graph_naive(params: ModelParams) -> SmallWorldGraph:
    """Quadratic reference sampler: one Bernoulli draw per vertex pair.

    Same model law as :func:`sample_graph` but a different stream layout, so
    the two are compared statistically, not edge for edge.

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
    return _assemble(params, np.concatenate(long_pairs), z)


def torus_only_graph(n, seed=0) -> SmallWorldGraph:
    """Bare torus with no long-range edges (the r -> infinity limit).

    Used as a baseline and in exact small tests; its normalizer is 0 and it
    cannot be resampled.
    """
    params = ModelParams(n=n, r=math.inf, seed=seed)
    return _assemble(params, np.empty((0, 2), np.int64), 0.0)


def save_graph(graph: SmallWorldGraph, path) -> None:
    """Write a graph to a text file.

    Format: one header line ``swg n r seed Z edge_count`` followed by one
    ``u v`` line (canonical indices, u < v) per long-range edge.  Torus edges
    are implicit.  UTF-8, LF line endings.  All floats are written with
    round-trip precision, so load_graph(save_graph(G)) reproduces every
    field exactly.
    """
    p = graph.params
    lines = [f"{GRAPH_FILE_MAGIC} {p.n} {p.r!r} {p.seed} {graph.normalizer!r} {graph.edge_count}"]
    for u, v in graph.long_range_edges:
        lines.append(f"{u} {v}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> SmallWorldGraph:
    """Read a graph written by :func:`save_graph`.

    Raises:
        GraphFormatError: on any malformed header or edge line; the message
            carries the 1-based line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GraphFormatError("empty graph file", line=1)
    head = lines[0].split()
    if len(head) != 6 or head[0] != GRAPH_FILE_MAGIC:
        raise GraphFormatError(
            f"expected header '{GRAPH_FILE_MAGIC} n r seed Z edge_count', got {lines[0]!r}", line=1
        )
    try:
        n = int(head[1])
        r = float(head[2])
        seed = int(head[3])
        z = float(head[4])
        edge_count = int(head[5])
    except ValueError as exc:
        raise GraphFormatError(f"bad header field: {exc}", line=1) from None
    try:
        params = ModelParams(n=n, r=r, seed=seed)
    except ValueError as exc:
        raise GraphFormatError(str(exc), line=1) from None

    N = num_vertices(n)
    side = 2 * n + 1
    seen = set()
    pairs = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            raise GraphFormatError("blank edge line", line=lineno)
        parts = raw.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {raw!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex in {raw!r}", line=lineno) from None
        if not (0 <= u < N and 0 <= v < N):
            raise GraphFormatError(f"vertex index out of range for n={n}", line=lineno)
        if u == v:
            raise GraphFormatError("self-loop edge", line=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge {key[0]} {key[1]}", line=lineno)
        dux = abs(u // side - v // side)
        duy = abs(u % side - v % side)
        d = min(dux, side - dux) + min(duy, side - duy)
        if d < 2:
            raise GraphFormatError("long-range edge at torus distance < 2", line=lineno)
        seen.add(key)
        pairs.append(key)

    if edge_count != 2 * N + len(pairs):
        raise GraphFormatError(
            f"header edge_count {edge_count} != 2N + long-range = {2 * N + len(pairs)}", line=1
        )
    if math.isfinite(r):
        expected_z = long_range_normalizer(n, r)
        if not math.isclose(z, expected_z, rel_tol=1e-9, abs_tol=0.0):
            raise GraphFormatError(
                f"header Z={z!r} does not match the model normalizer {expected_z!r}", line=1
            )
    long_pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return _assemble(params, long_pairs, z)
