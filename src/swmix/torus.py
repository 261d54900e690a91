"""Geometry of the two-dimensional discrete torus.

The vertex set is the square grid ``B_n = {-n, ..., n}^2`` with coordinates
wrapping around modulo ``2n + 1`` in both axes, so every vertex has exactly
four grid neighbours.  Distances are measured in the minimum-wrap L1 metric

    dist(u, v) = min(|ux - vx|, 2n+1 - |ux - vx|)
               + min(|uy - vy|, 2n+1 - |uy - vy|).

Vertices are addressed throughout the package by a canonical index

    index = (x + n) * (2n + 1) + (y + n),

so index 0 is the corner ``(-n, -n)`` and indices increase x-major.  Vertex
subsets are plain boolean masks of length ``N = (2n+1)^2`` over canonical
indices.  Here and in every module, an index or coordinate argument that is
not an integer (numpy integers pass) raises TypeError, and one outside
[0, N) or [-n, n] raises ValueError.

The module also provides the box partition used by the expansion analysis:
a deterministic tiling of the grid into axis-aligned rectangles whose sides
all lie in ``[box_side, 2 * box_side]``, together with the box-core operation
(union of fully covered boxes) and the core-or-boundary dichotomy check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "num_vertices",
    "coord_to_index",
    "index_to_coord",
    "torus_distance",
    "ring_size",
    "ring",
    "ring_offsets",
    "ring_table",
    "torus_neighbor_indices",
    "torus_edge_boundary",
    "torus_boundary_count",
    "mask_from_indices",
    "BoxPartition",
    "make_box_partition",
    "box_core",
    "box_core_dichotomy",
]


def _check_n(n, what: str = "torus parameter n") -> int:
    """n as an int, if it is an integer >= 1: the torus parameter, or any other count."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {n!r}")
    return int(n)


def _vertex(v, N: int, what: str) -> int:
    """v as a vertex index in [0, N), by the rule in the module docstring."""
    v = operator.index(v)
    if not 0 <= v < N:
        raise ValueError(f"{what} {v} out of range [0, {N})")
    return v


def _vertices(a, N: int, what: str) -> np.ndarray:
    """a as an int64 array of vertex indices in [0, N); an empty a may have any dtype."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError(f"{what} must be integers, got {a.dtype} values")
    if a.size and not 0 <= a.min() <= a.max() < N:
        raise ValueError(f"{what} must lie in [0, {N})")
    return a.astype(np.int64, copy=False)


def _coords(a, n: int) -> np.ndarray:
    """a as an int64 array of torus coordinates, each an integer in [-n, n]."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError(f"coordinates must be integers, got {a.dtype} values")
    if np.any(np.abs(a) > n):
        raise ValueError(f"coordinates must lie in [-{n}, {n}]")
    return a.astype(np.int64, copy=False)


def num_vertices(n) -> int:
    """Number of vertices N = (2n+1)^2 of the torus B_n."""
    n = _check_n(n)
    return (2 * n + 1) ** 2


def coord_to_index(x, y, n):
    """Canonical index of coordinate (x, y); accepts scalars or arrays.

    Raises:
        ValueError: if any coordinate lies outside [-n, n].
    """
    n = _check_n(n)
    x, y = _coords(x, n), _coords(y, n)
    idx = (x + n) * (2 * n + 1) + (y + n)
    return int(idx) if idx.ndim == 0 else idx


def index_to_coord(index, n):
    """Inverse of :func:`coord_to_index`; returns (x, y) scalars or arrays."""
    n = _check_n(n)
    side = 2 * n + 1
    index = _vertices(index, side * side, "canonical indices")
    x = index // side - n
    y = index % side - n
    if index.ndim == 0:
        return int(x), int(y)
    return x, y


def torus_distance(u, v, n):
    """Minimum-wrap L1 distance between coordinates u and v.

    Args:
        u, v: coordinate pairs (x, y), or arrays of shape (..., 2).
        n: torus parameter.

    Returns:
        Integer distance (or array of distances, broadcasting u against v).
    """
    n = _check_n(n)
    u, v = _coords(u, n), _coords(v, n)
    side = 2 * n + 1
    d = np.abs(u - v)
    d = np.minimum(d, side - d)
    total = d.sum(axis=-1)
    return int(total) if np.ndim(total) == 0 else total


def ring_size(ell, n) -> int:
    """Number of vertices at torus distance exactly ell from a fixed vertex.

    Equals 4 * min(ell, 2n+1-ell) for 1 <= ell <= 2n; the ring shrinks again
    past ell = n because of the wraparound.
    """
    n = _check_n(n)
    if not 1 <= ell <= 2 * n:
        raise ValueError(f"ring distance must satisfy 1 <= ell <= 2n = {2 * n}, got {ell}")
    return 4 * min(ell, 2 * n + 1 - ell)


@lru_cache(maxsize=None)
def ring_table(n) -> tuple:
    """Every ring's offsets for torus parameter n, in one read-only table.

    Returns (offsets, starts): offsets is the (N, 2) array of all box offsets
    (a, b) with |a|, |b| <= n, sorted by (|a| + |b|, a, b), and ring ell
    occupies rows starts[ell] to starts[ell + 1].  At ell > n the tails
    |a| > n or |b| > n are cut off by the wraparound, so the box holds each
    ring exactly.
    """
    n = _check_n(n)
    a, b = np.divmod(np.arange((2 * n + 1) ** 2, dtype=np.int64), 2 * n + 1)
    a -= n
    b -= n
    ell = np.abs(a) + np.abs(b)
    order = np.lexsort((b, a, ell))
    offsets = np.column_stack((a[order], b[order]))
    starts = np.searchsorted(ell[order], np.arange(2 * n + 2))
    for arr in (offsets, starts):
        arr.setflags(write=False)
    return offsets, starts


def ring_offsets(ell, n) -> np.ndarray:
    """Read-only (k, 2) array of all offsets at distance ell from the origin."""
    n = _check_n(n)
    if not 1 <= ell <= 2 * n:
        raise ValueError(f"ring distance must satisfy 1 <= ell <= 2n = {2 * n}, got {ell}")
    offsets, starts = ring_table(n)
    return offsets[starts[int(ell)] : starts[int(ell) + 1]]


def ring(v, ell, n) -> np.ndarray:
    """All coordinates at torus distance exactly ell from vertex v.

    Args:
        v: coordinate pair (x, y).
        ell: ring distance, 1 <= ell <= 2n.
        n: torus parameter.

    Returns:
        Array of shape (ring_size(ell, n), 2).
    """
    n = _check_n(n)
    v = _coords(v, n)
    if v.shape != (2,):
        raise ValueError(f"v must be a coordinate pair in [-{n}, {n}]^2")
    side = 2 * n + 1
    return (v + ring_offsets(ell, n) + n) % side - n


@lru_cache(maxsize=None)
def torus_neighbor_indices(n: int) -> np.ndarray:
    """Read-only (N, 4) array of canonical neighbour indices (+x, -x, +y, -y)."""
    _check_n(n)
    side = 2 * n + 1
    grid = np.arange(side * side).reshape(side, side)
    out = np.stack(
        [
            np.roll(grid, -1, axis=0),
            np.roll(grid, 1, axis=0),
            np.roll(grid, -1, axis=1),
            np.roll(grid, 1, axis=1),
        ],
        axis=-1,
    ).reshape(side * side, 4)
    out.setflags(write=False)
    return out


def _as_mask(S, n: int) -> np.ndarray:
    N = (2 * n + 1) ** 2
    S = np.asarray(S)
    if S.dtype != np.bool_ or S.shape != (N,):
        raise ValueError(f"vertex set must be a bool mask of shape ({N},)")
    return S


def mask_from_indices(indices, n) -> np.ndarray:
    """Boolean vertex mask with the given canonical indices set."""
    n = _check_n(n)
    N = (2 * n + 1) ** 2
    mask = np.zeros(N, dtype=bool)
    mask[_vertices(indices, N, "canonical indices")] = True
    return mask


def torus_edge_boundary(S, n) -> np.ndarray:
    """Torus edges with exactly one endpoint in S.

    Args:
        S: bool mask of length N.
        n: torus parameter.

    Returns:
        Array of shape (k, 2) of canonical index pairs (u, v) with u < v,
        sorted lexicographically.  Only grid edges are considered; long-range
        edges of a sampled graph are handled by the graph-level boundary ops.
    """
    n = _check_n(n)
    S = _as_mask(S, n)
    nbr = torus_neighbor_indices(n)
    u = np.arange(S.size)
    rows = []
    for axis in (0, 2):  # +x and +y cover each undirected grid edge once
        w = nbr[:, axis]
        cut = S != S[w]
        rows.append(np.column_stack([u[cut], w[cut]]))
    edges = np.concatenate(rows, axis=0)
    edges.sort(axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def torus_boundary_count(S, n):
    """Number of torus edges cut by the mask(s) S; batched over leading axes.

    S may be a single mask of shape (N,) or a batch of shape (..., N).
    """
    n = _check_n(n)
    S = np.asarray(S)
    N = (2 * n + 1) ** 2
    if S.dtype != np.bool_ or S.shape[-1] != N:
        raise ValueError(f"vertex sets must be bool masks with final axis {N}")
    nbr = torus_neighbor_indices(n)
    count = (S != S[..., nbr[:, 0]]).sum(axis=-1) + (S != S[..., nbr[:, 2]]).sum(axis=-1)
    return int(count) if np.ndim(count) == 0 else count


@dataclass(frozen=True)
class BoxPartition:
    """Partition of the torus grid into axis-aligned rectangular boxes.

    Attributes:
        n: torus parameter.
        box_side: nominal side length; every box side lies in
            [box_side, 2 * box_side].
        boxes: tuple of (x0, y0, width, height) in torus coordinates.
        labels: (N,) array, box id of each canonical index.
        sizes: (Q,) array, vertex count of each box.
    """

    n: int
    box_side: int
    boxes: tuple
    labels: np.ndarray
    sizes: np.ndarray

    @property
    def num_boxes(self) -> int:
        return len(self.boxes)


def make_box_partition(n, box_side) -> BoxPartition:
    """Deterministic box partition of the grid with sides in [box_side, 2*box_side].

    The grid is tiled x-major with box_side x box_side squares starting at the
    corner (-n, -n); the last strip in each axis absorbs the remainder, so its
    boxes are enlarged to at most 2 * box_side - 1 and the final corner box
    is the largest.

    Args:
        n: torus parameter.
        box_side: nominal box side, 1 <= box_side <= n.

    Raises:
        ValueError: if box_side is outside [1, n].
    """
    n = _check_n(n)
    if not isinstance(box_side, (int, np.integer)) or not 1 <= box_side <= n:
        raise ValueError(f"box_side must be an integer in [1, n={n}], got {box_side!r}")
    box_side = int(box_side)
    side = 2 * n + 1
    k = side // box_side
    rem = side - k * box_side
    starts = [i * box_side for i in range(k)]
    widths = [box_side] * (k - 1) + [box_side + rem]

    boxes = []
    for i in range(k):
        for j in range(k):
            boxes.append((starts[i] - n, starts[j] - n, widths[i], widths[j]))

    strip = np.repeat(np.arange(k), widths)  # strip id per grid line
    label_grid = strip[:, None] * k + strip[None, :]
    labels = label_grid.reshape(side * side).astype(np.int64)
    sizes = np.bincount(labels, minlength=k * k)
    labels.setflags(write=False)
    sizes.setflags(write=False)
    return BoxPartition(n=n, box_side=box_side, boxes=tuple(boxes), labels=labels, sizes=sizes)


def box_core(S, partition: BoxPartition) -> np.ndarray:
    """Union of all partition boxes entirely contained in S, as a bool mask."""
    S = _as_mask(S, partition.n)
    counts = np.bincount(partition.labels[S], minlength=partition.num_boxes)
    full = counts == partition.sizes
    return full[partition.labels] & S


def box_core_dichotomy(S, partition: BoxPartition, eta) -> bool:
    """Check that S has a large box-core or a large torus edge boundary.

    For a nonempty vertex set S and 0 < eta < 1, returns True iff

        |box_core(S)| >= (1 - eta) |S|    or
        |torus edge boundary of S| >= eta |S| / (4 * box_side^2).

    Raises:
        ValueError: if S is empty or eta is outside (0, 1).
    """
    S = _as_mask(S, partition.n)
    size = int(S.sum())
    if size == 0:
        raise ValueError("dichotomy check requires a nonempty vertex set")
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie strictly between 0 and 1, got {eta!r}")
    core_size = int(box_core(S, partition).sum())
    if core_size >= (1 - eta) * size:
        return True
    boundary = int(torus_boundary_count(S, partition.n))
    return bool(boundary >= eta * size / (4 * partition.box_side**2))
