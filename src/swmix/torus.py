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
indices, and _split and _shift hold the package's index arithmetic.

Here and in every module an argument is checked by the one rule of its kind,
which raises TypeError naming the argument for a wrong type and ValueError
for a value out of range:

- _integer: a scalar integer (n, a vertex, a distance, a size, a count, a
  seed); numpy integers pass, floats and bools do not.
- _real: a real parameter (the exponent r, the thresholds epsilon and eta,
  the rates gap, pi_min and c, the fraction ball_frac); a float, numpy
  floats included, or an integer under _integer's rule, and never NaN
  (an integer too large for a float is out of range); -0.0 becomes 0.0.
- _integers: an integer array (vertex indices, coordinates).
- _as_mask: a vertex set, a bool mask of shape (N,), or (..., N) for a batch.

The module also provides the box partition used by the expansion analysis:
a deterministic tiling of the grid into axis-aligned rectangles whose sides
all lie in ``[box_side, 2 * box_side]``, together with the box-core operation
(union of fully covered boxes) and the core-or-boundary dichotomy check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "num_vertices",
    "coord_to_index",
    "index_to_coord",
    "torus_distance",
    "ring_size",
    "ring",
    "ring_offsets",
    "torus_neighbor_indices",
    "torus_boundary_count",
    "mask_from_indices",
    "BoxPartition",
    "make_box_partition",
    "box_core",
    "box_core_dichotomy",
]


def _check_n(n) -> int:
    """The torus parameter n as an int, if it is an integer >= 1."""
    return _integer(n, "torus parameter n", 1)


def _integer(value, what: str, lo: int, stop: int | None = None) -> int:
    """value as an int in [lo, stop) (no upper end when stop is None), by the rule in the module docstring."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if index < lo or (stop is not None and index >= stop):
        raise ValueError(f"{what} {index} out of range [{lo}, {'inf' if stop is None else stop})")
    return index


def _real(value, what: str, interval: str) -> float:
    """value as a float in interval, written "[0, inf]" or "(0, 1)", by the rule in the module docstring."""
    if isinstance(value, (float, np.floating)):
        number = float(value)
    else:
        try:
            number = float(_integer(value, what, -math.inf))
        except TypeError:
            raise TypeError(f"{what} must be a real number, got {value!r}") from None
        except OverflowError:
            raise ValueError(f"{what} must lie in {interval}, got an integer too large for a float") from None
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < number if interval[0] == "(" else lo <= number
    below = number < hi if interval[-1] == ")" else number <= hi
    if not (above and below):  # NaN is neither
        raise ValueError(f"{what} must lie in {interval}, got {value!r}")
    return number + 0.0  # -0.0 + 0.0 is 0.0: one zero, so one seed and one record per cell


def _integers(a, what: str, lo: int, stop: int) -> np.ndarray:
    """a as an int64 array of integers in [lo, stop); an empty a may have any dtype."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError(f"{what} must be integers, got {a.dtype} values")
    if a.size and not lo <= a.min() <= a.max() < stop:
        raise ValueError(f"{what} must lie in [{lo}, {stop})")
    return a.astype(np.int64, copy=False)


def _split(index, n: int):
    """Coordinates (x, y) of canonical indices, scalars or arrays, unchecked."""
    x, y = np.divmod(index, 2 * n + 1)
    x -= n
    y -= n
    return x, y


def _shift(index, dx, dy, n: int):
    """Canonical index of index + (dx, dy) with wraparound; dx and dy broadcast to index's shape, unchecked."""
    side = 2 * n + 1
    x, y = _split(index, n)
    # (x + dx + n) % side * side + (y + dy + n) % side, in place on the split's own arrays
    x += dx
    x += n
    x %= side
    x *= side
    y += dy
    y += n
    y %= side
    x += y
    return x


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
    x, y = _integers(x, "coordinates", -n, n + 1), _integers(y, "coordinates", -n, n + 1)
    idx = (x + n) * (2 * n + 1) + (y + n)
    return int(idx) if idx.ndim == 0 else idx


def index_to_coord(index, n):
    """Inverse of :func:`coord_to_index`; returns (x, y) scalars or arrays."""
    n = _check_n(n)
    index = _integers(index, "canonical indices", 0, (2 * n + 1) ** 2)
    x, y = _split(index, n)
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
    u, v = _integers(u, "coordinates", -n, n + 1), _integers(v, "coordinates", -n, n + 1)
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
    ell = _integer(ell, "ring distance", 1, 2 * n + 1)
    return int(_ring_size(ell, n))


def _ring_size(ell, n: int):
    """ring_size of each ring distance in ell; broadcasts, unchecked."""
    return 4 * np.minimum(ell, 2 * n + 1 - ell)


def _ring_offset(ell, i, n: int):
    """Offset (a, b) number i of ring ell in (a, b) order; broadcasts, unchecked.

    Ring ell <= n is (-ell, 0), then (a, -(ell - |a|)) and (a, ell - |a|)
    for each a in (-ell, ell), then (ell, 0).  Past n the wraparound cuts
    off every |a| < ell - n, so each a that is left has two offsets.
    """
    # in place on its own temporaries; b = (j % 2 * 2 - 1) * (ell - |a|)
    j = i + (ell <= n)
    a = j // 2
    a -= np.minimum(ell, n)
    a += np.where((ell > n) & (a > n - ell), 2 * (ell - n) - 1, 0)
    b = np.abs(a)
    b -= ell
    j %= 2
    j *= -2
    j += 1
    b *= j
    return a, b


def ring_offsets(ell, n) -> np.ndarray:
    """Read-only (k, 2) int64 array of all offsets at distance ell from the origin, sorted by (a, b)."""
    offsets = np.column_stack(_ring_offset(int(ell), np.arange(ring_size(ell, n)), int(n)))  # ring_size checks
    offsets.setflags(write=False)
    return offsets


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
    v = _integers(v, "coordinates", -n, n + 1)
    if v.shape != (2,):
        raise ValueError(f"v must be a coordinate pair in [-{n}, {n}]^2")
    side = 2 * n + 1
    return (v + ring_offsets(ell, n) + n) % side - n


def torus_neighbor_indices(n: int) -> np.ndarray:
    """Read-only (N, 4) array of canonical neighbour indices (+x, -x, +y, -y)."""
    n = _check_n(n)
    side = 2 * n + 1
    # an index is its row's first index plus its column, so each axis shifts on
    # its own and the table costs O(side) divisions rather than O(N)
    rows, cols = np.arange(0, side * side, side), np.arange(side)
    x_moves = [_shift(rows, dx, 0, n)[:, None] + cols for dx in (1, -1)]
    y_moves = [rows[:, None] + _shift(cols, 0, dy, n) for dy in (1, -1)]
    out = np.stack(x_moves + y_moves, axis=-1).reshape(side * side, 4)
    out.setflags(write=False)
    return out


def _as_mask(S, n: int, batch: bool = False) -> np.ndarray:
    """S as a bool mask of shape (N,), or of shape (..., N) when batch is set."""
    N = (2 * n + 1) ** 2
    S = np.asarray(S)
    if S.dtype != np.bool_ or S.shape[-1:] != (N,) or (S.ndim > 1 and not batch):
        raise ValueError(f"vertex set must be a bool mask of shape ({'..., ' if batch else ''}{N},)")
    return S


def mask_from_indices(indices, n) -> np.ndarray:
    """Boolean vertex mask with the given canonical indices set."""
    n = _check_n(n)
    N = (2 * n + 1) ** 2
    mask = np.zeros(N, dtype=bool)
    mask[_integers(indices, "canonical indices", 0, N)] = True
    return mask


def torus_boundary_count(S, n):
    """Number of torus edges cut by the mask(s) S; batched over leading axes.

    S may be a single mask of shape (N,) or a batch of shape (..., N).
    """
    n = _check_n(n)
    S = _as_mask(S, n, batch=True)
    # each cut edge once: compare every vertex with its +x and its +y neighbour on the (side, side) grid
    grid = S.reshape(*S.shape[:-1], 2 * n + 1, 2 * n + 1)
    count = sum((grid != np.roll(grid, -1, axis=axis)).sum(axis=(-2, -1)) for axis in (-2, -1))
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
        TypeError: if box_side is not an integer.
        ValueError: if box_side is outside [1, n].
    """
    n = _check_n(n)
    box_side = _integer(box_side, "box_side", 1, n + 1)
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
        TypeError: if eta is not a real number.
        ValueError: if S is empty or eta is outside (0, 1).
    """
    S = _as_mask(S, partition.n)
    size = int(S.sum())
    if size == 0:
        raise ValueError("dichotomy check requires a nonempty vertex set")
    eta = _real(eta, "eta", "(0, 1)")
    core_size = int(box_core(S, partition).sum())
    if core_size >= (1 - eta) * size:
        return True
    boundary = int(torus_boundary_count(S, partition.n))
    return bool(boundary >= eta * size / (4 * partition.box_side**2))
