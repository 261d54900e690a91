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
product law of the model.  The quadratic per-pair reference sampler that the
tests compare it against lives in tests/oracles.py.

The draws run in batched rounds.  In each round every class that is still
short by s pairs draws a batch of max(16, int(1.2 s)) (vertex, offset) pairs
from its own stream, and the batches are deduplicated together: a pair is
kept if its key lo * N + hi is new, and each class keeps its first s new keys
in draw order.  This is the same set that rejecting repeats one key at a time
picks, because two classes never share a key (their pairs lie at different
torus distances) and the first occurrence of a key in draw order is the one a
one-at-a-time loop would meet first.  For the same reason the classes need
not all draw together: they are cut, in class order, into groups whose first
batches sum to at most _GROUP_DRAWS draws, and each group runs its rounds to
completion before the next one starts, so that one round holds a bounded
number of draws.  A class's batch sizes depend only on its own shortfall, so
every class consumes its stream exactly as it would in one joint round.

Layout. A graph stores only its sorted long-range rows over an implicit
torus.  The degrees and the pair list are derived from the rows on first
read, and so is the full CSR, which merges them with the torus rows, for the
walk's adjacency, the cut code of swmix.expansion and
SmallWorldGraph.neighbours.  BFS builds only the degrees, and routing
nothing.

Randomness. Every draw in the package comes from ``_stream(seed, *spawn_key)``
(or ``_streams`` for many keys at once), a counter-based Philox stream keyed
by (seed, purpose) and so reproducible independently of evaluation order.
Each stream is the one ``Philox(SeedSequence(entropy=seed, spawn_key=key))``
gives, bit for bit, but its 128-bit key is derived by ``_philox_keys`` with
SeedSequence's published mixing: a 4-word pool is hashed from the seed's
32-bit words, zero-padded, and then every spawn-key word is mixed in, one
word position at a time for all keys together as uint32 arrays.  The key
reaches Philox through ``_PhiloxKey``, so building a stream runs no
SeedSequence and draws no OS entropy.  The spawn keys, one purpose each:

    (d,)     sample_graph: distance class d, for 2 <= d <= 2n
    (1,)     tests/oracles.py: the per-pair uniforms of sample_graph_naive
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
from numpy.random.bit_generator import ISeedSequence

from .errors import GraphFormatError
from .torus import (
    _check_n,
    _integer,
    _real,
    _ring_offset,
    _ring_size,
    _shift,
    num_vertices,
    torus_neighbor_indices,
)

__all__ = [
    "ModelParams",
    "SmallWorldGraph",
    "long_range_normalizer",
    "edge_probability",
    "sample_graph",
    "torus_only_graph",
    "save_graph",
    "load_graph",
]

GRAPH_FILE_MAGIC = "swg"


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, r, seed) of one graph instance.

    n >= 1 is the torus parameter, r >= 0 the distance exponent (math.inf
    marks the degenerate torus-only graph), and seed an integer in
    [0, 2^64) feeding the samplers.  A non-integer n or seed, a float or a
    bool, raises TypeError; an out-of-range one raises ValueError.
    """

    n: int
    r: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_n(self.n))
        object.__setattr__(self, "r", _real(self.r, "r", "[0, inf]"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, 2**64))


# SeedSequence's hash constants, as numpy publishes them in bit_generator.pyx.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, count: int) -> list:
    """init and its next count multiples by mult, mod 2^32: the running hash constant of SeedSequence."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _philox_keys(seed: int, spawn_keys) -> np.ndarray:
    """(m, 2) uint64 Philox keys; row i is SeedSequence(seed, spawn_key=spawn_keys[i]).generate_state(2, np.uint64).

    seed lies in [0, 2^64) and spawn_keys is an (m, L) array of words in
    [0, 2^32), L >= 1.  The seed's pool is mixed once in Python ints; the
    spawn-key words then enter all m pools together as (4, m) uint32 arrays,
    whose products wrap mod 2^32 as SeedSequence's do.
    """
    words = np.asarray(spawn_keys, dtype=np.uint32)

    def hashmix(value, const_in, const_out):
        value = (value ^ const_in) * const_out & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    # hashmix call k runs under the constants a[k] and a[k + 1]
    a = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * words.shape[1])
    # the seed's 32-bit words, zero-padded to the pool size, then all-to-all mixing
    pool = [hashmix(seed >> 32 * i & _MASK32, a[i], a[i + 1]) for i in range(4)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], a[k], a[k + 1]))
                k += 1
    # spawn-key word j meets pool word dst in hashmix call 16 + 4 j + dst
    pool = np.array(pool, dtype=np.uint32)[:, None]
    a = np.array(a, dtype=np.uint32)[:, None]
    for j in range(words.shape[1]):
        k = 16 + 4 * j
        pool = mix(pool, hashmix(words[:, j], a[k : k + 4], a[k + 1 : k + 5]))
    # generate_state(2, np.uint64): four output words, paired little-endian
    b = np.array(_hash_consts(_INIT_B, _MULT_B, 4), dtype=np.uint32)[:, None]
    state = hashmix(pool, b[:4], b[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _PhiloxKey(ISeedSequence):
    """A derived Philox key in the seed-sequence slot, so Philox builds no SeedSequence and draws no OS entropy."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key  # Philox asks for (2, np.uint64)


def _streams(seed: int, spawn_keys) -> list:
    """The Philox streams of several purposes, one per row of spawn_keys."""
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key))) for key in _philox_keys(seed, spawn_keys)]


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """The Philox stream of one purpose; the module docstring lists the spawn keys."""
    return _streams(seed, [spawn_key])[0]


def long_range_normalizer(n, r) -> float:
    """Normalizing constant Z = sum_{d=2}^{2n} ring_size(d, n) * d^(-r).

    Grows like n^(2-r) for r < 2, like log n at r = 2, and stays bounded for
    r > 2.  Exact compensated summation keeps the value reproducible to the
    last few ulps.
    """
    n, r = _check_n(n), _real(r, "r", "[0, inf]")
    dists = range(2, 2 * n + 1)
    return math.fsum(size * d**-r for d, size in zip(dists, _ring_size(np.array(dists), n).tolist()))


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
        TypeError: if n or distance is not an integer (numpy integers are
            accepted) or r is not a real number.
        ValueError: if n < 1, r < 0, distance is outside [2, 2n], r is not
            finite, or Z underflows to zero.
    """
    z = _sampling_normalizer(n, r)  # checks n and r before either is used
    distance = _integer(distance, "long-range distance", 2, 2 * n + 1)
    return float(distance) ** -float(r) / z


@dataclass(frozen=True, eq=False)
class SmallWorldGraph:
    """One sampled graph: the long-range rows over an implicit torus.

    Every vertex has the same 4 torus edges, so a graph stores only its
    long-range rows and four scalars.  Every other array is derived from the
    rows on first read and cached, read-only: `degrees` and
    `long_range_edges`, and `indptr` and `indices`, the CSR of the whole
    graph, for `neighbours`, `adjacency` (walk, spectral) and the cut,
    sweep-cut and box-set code of swmix.expansion.  BFS reads
    `neighbour_slots` (and so `degrees`) and greedy routing only
    `long_range_rows`.  Graphs compare and hash by identity.

    Attributes:
        params: the (n, r, seed) triple the graph was sampled from.
        num_vertices: N = (2n+1)^2.
        edge_count: number of undirected edges |E| = 2N + #long-range.
        long_range_rows: (indptr, indices) of the rows without their 4 torus
            neighbours: row v lists the long-range neighbours of v, sorted,
            at indices[indptr[v] : indptr[v + 1]].
        normalizer: the constant Z of the sampled parameters.
    """

    params: ModelParams
    num_vertices: int
    edge_count: int
    long_range_rows: tuple
    normalizer: float

    @property
    def n(self) -> int:
        return self.params.n

    def degree(self, v) -> int:
        return int(self.degrees[_integer(v, "vertex", 0, self.num_vertices)])

    def neighbours(self, v) -> np.ndarray:
        """Sorted canonical indices adjacent to v (read-only view)."""
        v = _integer(v, "vertex", 0, self.num_vertices)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @cached_property
    def degrees(self) -> np.ndarray:
        """(N,) vertex degrees: 4 torus edges plus the long-range row length (read-only)."""
        degrees = np.diff(self.long_range_rows[0])
        degrees += 4
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def long_range_edges(self) -> np.ndarray:
        """(k, 2) canonical pairs u < v, sorted: the long-range row entries with row < column (read-only)."""
        indptr, cols = self.long_range_rows
        rows = np.repeat(np.arange(self.num_vertices), np.diff(indptr))
        upper = rows < cols
        pairs = np.column_stack((rows[upper], cols[upper]))
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def indptr(self) -> np.ndarray:
        """CSR row pointers of the symmetric adjacency: the long-range row pointers plus 4 per row (read-only)."""
        indptr = self.long_range_rows[0] + 4 * np.arange(self.num_vertices + 1)
        indptr.setflags(write=False)
        return indptr

    @cached_property
    def indices(self) -> np.ndarray:
        """CSR neighbour lists of the symmetric adjacency, each row sorted, no duplicates (read-only).

        The CSR merges the stored long-range rows, one sorted run of 2k
        directed-edge keys row * N + col, with the 4N torus keys, which are
        in row order and unsorted only within a row, by one stable sort
        (numpy's timsort merges presorted runs).
        """
        N = self.num_vertices
        indptr, long_cols = self.long_range_rows
        vertices = np.arange(N, dtype=np.int64)
        torus_keys = vertices[:, None] * N + torus_neighbor_indices(self.n)
        keys = np.concatenate([torus_keys.reshape(-1), np.repeat(vertices, np.diff(indptr)) * N + long_cols])
        keys.sort(kind="stable")
        indices = keys % N
        indices.setflags(write=False)
        return indices

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
    def entry_rows(self) -> np.ndarray:
        """Row of each CSR entry, aligned with indices (read-only)."""
        rows = np.repeat(np.arange(self.num_vertices), self.degrees)
        rows.setflags(write=False)
        return rows

    @cached_property
    def neighbour_slots(self) -> tuple:
        """Degree-ordered neighbour-slot layout that every BFS level gathers through.

        Returns (order, rank, columns): order lists the vertices by
        decreasing degree and rank is its inverse permutation.  In rank
        space the vertices with a j-th neighbour form a prefix, and
        columns[j] holds the rank of the j-th neighbour of each of them, so
        one dense gather per slot visits every edge end exactly once.  Slots
        0-3 are the torus moves of torus_neighbor_indices and the later
        slots walk the long-range rows, so the layout never builds the CSR.
        """
        deg = self.degrees
        order = np.argsort(-deg)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        torus = rank[torus_neighbor_indices(self.n)[order]].T.copy()
        indptr, indices = self.long_range_rows
        first = indptr[order]
        extra = (rank[indices[first[: np.count_nonzero(deg > j + 4)] + j]] for j in range(deg.max() - 4))
        columns = (*torus, *extra)
        for arr in (order, rank, *columns):
            arr.setflags(write=False)
        return order, rank, columns


def _pair_key(u, v, N: int):
    """Key lo * N + hi of each unordered pair {u, v}, elementwise in the order given."""
    keys = np.minimum(u, v)
    keys *= N
    keys += np.maximum(u, v)
    return keys


def _pair_keys(pairs, N: int) -> np.ndarray:
    """Sorted int64 keys of unordered vertex pairs given in any order and orientation (see _pair_key)."""
    u, v = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return np.sort(_pair_key(u, v, N))


def _assemble(params: ModelParams, long_keys: np.ndarray, normalizer: float) -> SmallWorldGraph:
    """Build the graph from the long-range pairs with the given sorted keys; the torus stays implicit.

    long_keys holds one int64 key lo * N + hi per pair (see _pair_keys).  Row v
    holds one entry per pair with v as its lo or its hi half, so the row
    pointers are counted from the two halves, one at a time.  One sort of the
    2k directed keys row * N + col then orders the long-range rows, which are
    all the graph stores.
    """
    N = num_vertices(params.n)
    lo, hi = np.divmod(long_keys, N)
    indptr = np.zeros(N + 1, dtype=np.int64)
    indptr[1:] = np.bincount(lo, minlength=N)
    indptr[1:] += np.bincount(hi, minlength=N)
    np.cumsum(indptr, out=indptr)
    hi *= N
    hi += lo
    del lo
    keys = np.concatenate([long_keys, hi])
    del hi
    keys.sort()
    keys %= N
    for arr in (indptr, keys):
        arr.setflags(write=False)
    return SmallWorldGraph(
        params=params,
        num_vertices=N,
        edge_count=2 * N + long_keys.size,
        long_range_rows=(indptr, keys),
        normalizer=normalizer,
    )


# The first-round draws of one class group sum to at most this many, unless one
# class alone draws more.  At n = 128, r = 1 and 2, any bound from 1,024 to
# 16,384 leaves the assembly's 1.76 MiB as the traced peak of sample_graph,
# against 2.68 MiB when all classes draw together.  At 4,096 the draws peak at
# 0.77 MiB, and the 9 cells n = 32, 64, 128 x r = 1, 2, 4 take 38 rounds
# instead of 9 with the sampler time at par (44.0 against 45.5 ms, min of 10
# alternating runs of 15 on a 2-vCPU Xeon, one BLAS thread).
_GROUP_DRAWS = 4096


def _batches(need: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The round's batch size max(16, int(1.2 s)) of each active class, short by s pairs."""
    return np.maximum(16, (1.2 * need[active]).astype(np.int64))


def _class_groups(need: np.ndarray) -> list:
    """The classes with need > 0 in class order, cut into runs whose batches sum to at most _GROUP_DRAWS.

    A class whose own batch exceeds the bound forms a group alone.
    """
    active = np.flatnonzero(need)
    groups, start, total = [], 0, 0
    for i, b in enumerate(_batches(need, active).tolist()):
        if total and total + b > _GROUP_DRAWS:
            groups.append(active[start:i])
            start, total = i, 0
        total += b
    if active.size:
        groups.append(active[start:])
    return groups


def _round_draws(rngs: list, sizes: list, active: np.ndarray, need: np.ndarray, n: int, N: int) -> tuple:
    """Keys and classes of one round's draws, in draw order: a batch of (vertex, ring offset) pairs per active class."""
    batches = _batches(need, active).tolist()
    u = np.concatenate([rngs[c].integers(0, N, size=b) for c, b in zip(active, batches)])
    oi = np.concatenate([rngs[c].integers(0, sizes[c], size=b) for c, b in zip(active, batches)])
    cls = np.repeat(active, batches)
    return _pair_key(u, _shift(u, *_ring_offset(cls + 2, oi, n), n), N), cls


def _new_keys(keys: np.ndarray, cls: np.ndarray, need: np.ndarray, chosen: np.ndarray) -> tuple:
    """Per class, its first keys in draw order new to the round and to chosen, up to need, and their classes."""
    # each distinct key's first draw: the least draw index in its run of the sorted keys
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.flatnonzero(np.diff(ordered, prepend=-1))
    first = np.minimum.reduceat(order, head)
    del order
    first = np.sort(first[~np.isin(ordered[head], chosen)])
    del ordered, head
    # Rank of each new key within its class, in draw order.
    c = cls[first]
    keep = first[np.arange(first.size) - np.searchsorted(c, c) < need[c]]
    return keys[keep], cls[keep]


def _draw_long_range_keys(params: ModelParams, z: float) -> np.ndarray:
    """Sorted keys lo * N + hi of the long-range pairs, drawn class group by class group.

    Each round draws one batch for every class of the group that is still
    short and keeps, per class, its first new keys in draw order, up to the
    number it needs.  The new keys go straight into the output array, whose
    slice of the group so far is the group's set of chosen keys; a round's
    other arrays are freed when its two helpers return, before the next round
    draws.  One sort of the output ends the draws.
    """
    n, r = params.n, params.r
    N = num_vertices(n)
    dists = np.arange(2, 2 * n + 1)
    # class c is ring c + 2; a draw picks offset i of its ring by the rule of torus._ring_offset
    sizes = _ring_size(dists, n).tolist()
    rngs = _streams(params.seed, dists[:, None])
    need = np.array(
        [int(rng.binomial(N * rs // 2, float(d) ** -r / z)) for rng, rs, d in zip(rngs, sizes, dists)],
        dtype=np.int64,
    )
    keys = np.empty(int(need.sum()), np.int64)
    end = 0
    for active in _class_groups(need):
        start = end
        while active.size:
            new, classes = _new_keys(*_round_draws(rngs, sizes, active, need, n, N), need, keys[start:end])
            keys[end : end + new.size] = new
            end += new.size
            need -= np.bincount(classes, minlength=need.size)
            active = active[need[active] > 0]
    keys.sort()
    return keys


def sample_graph(params: ModelParams) -> SmallWorldGraph:
    """Sample one graph with the per-distance-class binomial sampler.

    Equivalent in law to independent per-pair Bernoulli draws; see the module
    docstring.  Repeated pairs are dropped in batched rounds over groups of
    classes, which keep per class the first new keys in draw order and so
    pick the same pairs as a per-key rejection loop.  Runs in
    O((N + #edges) log N) expected time.

    Raises:
        ValueError: if r is not finite (use :func:`torus_only_graph` for the
            degenerate bare torus) or the normalizer underflows to zero.
    """
    z = _sampling_normalizer(params.n, params.r)
    return _assemble(params, _draw_long_range_keys(params, z), z)


def torus_only_graph(n, seed=0) -> SmallWorldGraph:
    """The graph with no long-range edges: the bare torus, used as a baseline.

    It is not the r -> infinity limit of the model: as r grows, a pair at
    distance 2 is joined with probability tending to 1/8, so each vertex
    keeps one distance-2 shortcut in expectation.  Its r is math.inf as a
    marker, its normalizer is 0, and it cannot be resampled.
    """
    params = ModelParams(n=n, r=math.inf, seed=seed)
    return _assemble(params, np.empty(0, np.int64), 0.0)


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
    lines.extend(f"{u} {v}" for u, v in graph.long_range_edges.tolist())
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
    expected_z = long_range_normalizer(n, r)  # 0.0 at r = inf, the bare-torus marker of torus_only_graph
    if not math.isclose(z, expected_z, rel_tol=1e-9, abs_tol=0.0):
        raise GraphFormatError(f"header Z={z!r} does not match the model normalizer {expected_z!r}", line=1)
    if math.isinf(r) and len(lines) > 1:
        raise GraphFormatError("the bare torus (r = inf) has no long-range edge lines", line=2)

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
    return _assemble(params, _pair_keys(pairs, N), z)
