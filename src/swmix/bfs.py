"""Breadth-first search utilities: distances, eccentricities, exact diameter.

Every BFS runs one level loop, `_levels`: one dense gather-OR per slot of
the graph's cached degree-ordered layout, `SmallWorldGraph.neighbour_slots`,
so each level costs O(|E|) whatever the frontier's size.  The frontier holds
one bool per vertex for `bfs_distances`, or one bit per source in uint64
words for `eccentricities`; the settled-vertex propagation of the exact
diameter gathers through the same slots.  A batch of W words per vertex
holds four N x W blocks at a time: the frontier, the unseen mask, a level's
gather output and one gather temporary.

The exact diameter combines the iFUB fringe order (Crescenzi et al., TCS
2013) with the eccentricity bounding rule of Takes & Kosters (2011): a double
sweep picks a midpoint vertex, vertices are taken by decreasing distance from
it in batches for the bit-parallel kernel, and a vertex is skipped once a
processed source proves its eccentricity is at most the best found.  The
search stops when no vertex farther than half that best from the midpoint is
left unproven.  At r = 1 and n = 24-48 it searches from 17-40% of the
vertices, and returns the double sweep's lower bound with the diameter.
"""

from __future__ import annotations

from functools import partial
from itertools import count

import numpy as np

from .torus import _integer, _integers

__all__ = ["bfs_distances", "double_sweep", "eccentricities", "exact_diameter"]

_ECC_BATCH = 256


def bfs_distances(graph, source) -> np.ndarray:
    """Hop distances from source to every vertex (-1 if unreachable)."""
    source = _integer(source, "source vertex", 0, graph.num_vertices)
    _, rank, _ = graph.neighbour_slots
    front = np.zeros(graph.num_vertices, dtype=bool)
    front[rank[source]] = True
    dist = front.astype(np.int64) - 1  # 0 at the source, -1 until reached
    for level, new in _levels(graph, front):
        dist[new] = level
    return dist[rank]


def double_sweep(graph):
    """Two BFS sweeps; returns (far_vertex, distances_from_it, lower_bound).

    The far vertex is the first (smallest canonical index) vertex at maximum
    distance from vertex 0; the returned lower bound is its eccentricity,
    which bounds the diameter from below.
    """
    d0 = bfs_distances(graph, 0)
    a = int(np.argmax(d0))
    da = bfs_distances(graph, a)
    return a, da, int(da.max())


def _gather(values, columns, combine):
    """Row k: `combine` over the rows of `values` at the neighbour ranks of rank k."""
    # np.take copies 2-D rows several times faster than indexing; 1-D, the reverse
    take = values.__getitem__ if values.ndim == 1 else partial(np.take, values, axis=0)
    # every vertex has degree >= 4 from its torus edges, so slot 0 covers all
    out = take(columns[0])
    for col in columns[1:]:
        head = out[: col.size]
        combine(head, take(col), out=head)
    return out


def _levels(graph, front):
    """Yield (level, front) per BFS level from a rank-space frontier, until a level reaches nothing.

    front holds one bool per vertex rank, or uint64 words with one bit per
    source; each yielded front, of the same shape, marks what its level
    reaches first.  A level holds four blocks of front's shape: the previous
    frontier, the unseen mask, the gather output and one gather temporary.
    The previous frontier is freed once the caller drops it, so a caller
    that keeps the seed holds a fifth.
    """
    columns = graph.neighbour_slots[2]
    unseen = ~front
    for level in count(1):
        front = _gather(front, columns, np.bitwise_or)
        front &= unseen
        if not front.any():
            return
        unseen ^= front
        yield level, front


def eccentricities(graph, sources) -> np.ndarray:
    """Eccentricity of each source vertex, via bit-parallel multi-source BFS.

    Up to _ECC_BATCH sources search together, one bit per source packed 64
    to a uint64 word (the bit-parallel BFS of Akiba, Iwata & Yoshida, 2013).
    Each level ORs every vertex's neighbours' frontier words, masks off the
    bits already seen, and records the level as the eccentricity of every
    source whose bit reached a new vertex.  A batch of W = ceil(sources / 64)
    words per vertex holds four N x W blocks at a time (see `_levels`).
    Sources that are not one-dimensional raise ValueError.
    """
    src = _integers(sources, "sources", 0, graph.num_vertices)
    if src.ndim != 1:
        raise ValueError(f"sources must be one-dimensional, got shape {src.shape}")
    out = np.zeros(src.size, dtype=np.int64)
    _, rank, _ = graph.neighbour_slots
    head = graph.num_vertices // 16 * 16
    for lo in range(0, src.size, _ECC_BATCH):
        block = rank[src[lo : lo + _ECC_BATCH]]
        bit = np.arange(block.size)
        words = -(-block.size // 64)
        front = np.zeros((graph.num_vertices, words), dtype=np.uint64)
        # .at, because duplicated sources share a (vertex, word) cell
        np.bitwise_or.at(front, (block, bit >> 6), np.uint64(1) << (bit & 63).astype(np.uint64))
        # rebinding front drops this scope's reference to the seed at the first level
        for level, front in _levels(graph, front):
            # OR the words over the vertices through a (N // 16, 16 W) view of the
            # frontier: long contiguous rows reduce several times faster than (N, W)
            # rows, and unlike a transposed copy the view allocates nothing N-sized
            grew = np.bitwise_or.reduce(front[:head].reshape(-1, 16 * words), axis=0).reshape(16, words)
            grew = np.bitwise_or.reduce(grew, axis=0) | np.bitwise_or.reduce(front[head:], axis=0)
            hit = np.unpackbits(grew.astype("<u8", copy=False).view(np.uint8), bitorder="little")
            out[lo + np.flatnonzero(hit[: block.size])] = level
    return out


def _settled(graph, sources, ecc, lb) -> np.ndarray:
    """Mask of vertices v with ecc(s) + d(s, v) <= lb for some processed source s.

    One multi-source propagation of the budget lb - ecc(s), in the rank
    space of the graph's neighbour slots: each round a vertex takes the
    largest neighbour budget less one, gathered slot by slot.  A vertex is
    settled while its budget is non-negative, so budget.max() rounds reach
    them all.
    """
    _, rank, columns = graph.neighbour_slots
    budget = np.full(graph.num_vertices, -1, dtype=np.int64)
    # a repeated source (a, b and m may coincide) repeats its eccentricity too
    budget[rank[sources]] = lb - ecc
    for _ in range(int(budget.max())):
        budget = np.maximum(budget, _gather(budget, columns, np.maximum) - 1)
    return budget[rank] >= 0


def exact_diameter(graph) -> tuple:
    """(diameter, lower): the exact diameter, and the double sweep's lower bound.

    A double sweep a -> b gives a lower bound lb and a midpoint m of a
    shortest a-b path; `lower` is ecc(a), as `double_sweep` returns it.
    The other vertices are queued by decreasing d(m, .) (iFUB, Crescenzi et
    al., TCS 2013) and processed in batches of _ECC_BATCH sources through
    `eccentricities`; lb is the largest eccentricity found so far.  A
    processed source s settles every v with ecc(s) + d(s, v) <= lb, since
    then ecc(v) <= lb by the triangle inequality (the bounding rule of Takes
    & Kosters, 2011); settled vertices are skipped.  The search returns lb
    once every vertex with d(m, v) > lb // 2 is settled.

    This is exact: suppose D > lb and d(u, v) = D.  Then d(m, u) + d(m, v)
    >= D > lb, so one of them, say u, has d(m, u) > lb / 2, and ecc(u) >= D
    > lb, so u is not settled.  At r = 1 and n = 24-48 the search runs from
    17-40% of the vertices (10 seeds each), against 51-94% for the fringe
    order alone.
    """
    a, da, ecc_a = double_sweep(graph)
    b = int(np.argmax(da))
    db = bfs_distances(graph, b)
    ecc_b = int(db.max())
    lb = max(ecc_a, ecc_b)
    # midpoint of a shortest a-b path
    half = lb // 2
    cand = np.flatnonzero((da == half) & (da + db == lb))
    m = int(cand[0]) if cand.size else a
    del da, db, cand  # N-sized, and read no further
    dm = bfs_distances(graph, m)
    ecc_m = int(dm.max())
    lb = max(lb, ecc_m)
    sources = new = np.array([a, b, m], dtype=np.int64)
    ecc = found = np.array([ecc_a, ecc_b, ecc_m], dtype=np.int64)
    fringe = np.argsort(-dm, kind="stable")
    while True:
        # lb only grows and settled sets only grow, so the queue only shrinks,
        # and what older sources settle at an unchanged lb has already left it
        fringe = fringe[(dm[fringe] > lb // 2) & ~_settled(graph, new, found, lb)[fringe]]
        if fringe.size == 0:
            return lb, ecc_a
        new = fringe[:_ECC_BATCH]
        found = eccentricities(graph, new)
        sources = np.concatenate((sources, new))
        ecc = np.concatenate((ecc, found))
        if found.max() > lb:
            lb = int(found.max())
            new, found = sources, ecc
