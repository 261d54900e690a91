"""Lazy random walk on a sampled graph: kernel, mixing time, spectral gap.

The walk stays put with probability 1/2 and otherwise moves to a uniform
neighbour, so the transition kernel is P = I/2 + D^(-1) A / 2.  The chain is
irreducible (the torus edges keep the graph connected), aperiodic by
laziness, and reversible with stationary distribution pi_v = deg(v) / 2|E|.

Mixing time is the first t at which the total-variation distance to pi,
maximized over the chosen start vertices, drops to epsilon (1/4 by default).
The search evolves the start distributions one kernel product at a time, to
exactly t_mix.  After each product it checks only the column that was worst
at the last full evaluation, since the start set cannot pass while that
column fails, and evaluates the full worst distance only when it passes.
It holds the N x k block of start distributions and one working block of
the same size, a kernel product's output or a full evaluation's deviations,
and nothing larger.
The spectral gap comes from one thick-restart Lanczos solve on the
symmetrized kernel, written in numpy: an (m + 1) x N basis, m = min(20, N - 1),
kept orthonormal by two Gram-Schmidt passes, restarted from its top five Ritz
vectors, and an eigenvector signed against the seeded start vector.

With ``starts="all"`` the estimate is exact.  Above EXACT_STARTS_MAX_VERTICES
vertices the ``"auto"`` policy switches to a documented heuristic start set,
the vertex farthest from vertex 0 plus 32 seeded uniform vertices, and the
result is labeled as a lower estimate (``exact=False``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .bfs import bfs_distances
from .errors import ConvergenceError
from .generate import SmallWorldGraph, _stream
from .torus import _integer, _integers, _real

__all__ = [
    "EXACT_STARTS_MAX_VERTICES",
    "stationary",
    "lazy_kernel",
    "step_distribution",
    "tv_distance",
    "distance_to_stationarity",
    "MixingEstimate",
    "mixing_time",
    "heuristic_start_vertices",
    "spectral_gap",
    "second_eigenpair",
    "relaxation_bounds",
    "sample_trajectory",
]

# Largest N for which the default policy evolves all N point masses exactly.  At seed 3,
# mixing_time(starts="all") takes 0.02-0.04 s at N = 361 and 0.27-1.09 s at N = 1089 (r = 1-4,
# 2-vCPU Xeon VM).  perfbench/check.py hard-codes 400 for t_mix_exact, so both move together.
EXACT_STARTS_MAX_VERTICES = 400

# Names of the start policies, in the order the CLI lists them.
_START_POLICIES = ("auto", "all", "heuristic")

# Uniform vertices drawn for the heuristic start set, beside the far vertex of vertex 0.
_RANDOM_STARTS = 32

# Largest t the mixing search evaluates before giving up.
_MAX_STEPS = 1_000_000

# Relative residual tolerance of the Lanczos solve: it stops once
# ||S x - lambda_2 x|| <= _EIGEN_TOL * lambda_2, which leaves the eigenvector
# converged to about 1e-10, as sweep_cut needs.
_EIGEN_TOL = 1e-10

# Cap on the Lanczos sweeps, one per thick restart.
_MAX_RESTARTS = 30_000

# Lanczos basis rows per sweep and Ritz vectors kept at each thick restart.
_LANCZOS_BASIS = 20
_LANCZOS_KEPT = 5


def stationary(graph: SmallWorldGraph) -> np.ndarray:
    """Stationary distribution pi_v = deg(v) / (2 |E|)."""
    return graph.degrees / (2.0 * graph.edge_count)


def lazy_kernel(graph: SmallWorldGraph) -> scipy.sparse.csr_matrix:
    """Row-stochastic lazy transition matrix P = I/2 + D^(-1) A / 2."""
    return _kernel_transpose(graph).T.tocsr()


def _kernel_transpose(graph: SmallWorldGraph) -> scipy.sparse.csr_matrix:
    # Column-stochastic form acting on column distributions: P^T y.
    n = graph.num_vertices
    dinv = 1.0 / graph.degrees
    walk_t = graph.adjacency @ scipy.sparse.diags(dinv)
    return (0.5 * scipy.sparse.eye(n, format="csr") + 0.5 * walk_t).tocsr()


def step_distribution(graph: SmallWorldGraph, mu) -> np.ndarray:
    """One lazy-walk step applied to a distribution over vertices.

    Raises:
        ValueError: if mu does not have shape (N,) or has negative entries.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (graph.num_vertices,):
        raise ValueError(f"distribution must have shape ({graph.num_vertices},), got {mu.shape}")
    if np.any(mu < 0):
        raise ValueError("distribution entries must be nonnegative")
    return 0.5 * mu + 0.5 * (graph.adjacency @ (mu / graph.degrees))


def tv_distance(mu, nu) -> float:
    """Total-variation distance, half the L1 distance.

    Raises:
        ValueError: if the two vectors differ in shape.
    """
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if mu.shape != nu.shape:
        raise ValueError(f"shape mismatch: {mu.shape} vs {nu.shape}")
    return 0.5 * float(np.abs(mu - nu).sum())


def _evolve(kernel_t, Y: np.ndarray, t_from: int, t_to: int) -> np.ndarray:
    for _ in range(t_from, t_to):
        Y = kernel_t @ Y
    return Y


def distance_to_stationarity(graph: SmallWorldGraph, v, t) -> float:
    """TV distance between the walk started at vertex v after t steps and pi.

    Raises:
        TypeError: if v or t is not an integer (numpy integers are accepted).
        ValueError: if v is out of range or t is negative.
    """
    v, t = _integer(v, "start vertex", 0, graph.num_vertices), _integer(t, "step count", 0)
    y = np.zeros((graph.num_vertices, 1))
    y[v, 0] = 1.0
    y = _evolve(_kernel_transpose(graph), y, 0, t)
    return tv_distance(y[:, 0], stationary(graph))


@dataclass(frozen=True)
class MixingEstimate:
    """Result of a mixing-time search.

    ``t_mix`` is the first step count at which the worst TV distance over the
    start set is <= epsilon.  ``exact`` is True when every vertex was a start,
    in which case t_mix is the true mixing time; otherwise it is a lower
    estimate.  ``curve`` holds the (t, worst TV) pairs actually evaluated.
    """

    t_mix: int
    epsilon: float
    start_vertices: np.ndarray
    exact: bool
    curve: tuple


def heuristic_start_vertices(graph: SmallWorldGraph) -> np.ndarray:
    """Start set for large graphs: the far vertex of vertex 0 + seeded uniforms.

    The far vertex is the first one at maximum distance from vertex 0, as in
    bfs.double_sweep.  The random vertices come from the instance seed under
    spawn_key (0, 1), so the set is a pure function of the graph.
    """
    far = int(np.argmax(bfs_distances(graph, 0)))
    rnd = _stream(graph.params.seed, 0, 1).integers(0, graph.num_vertices, size=_RANDOM_STARTS)
    return np.unique(np.concatenate([[far], rnd]))


def _resolve_starts(graph: SmallWorldGraph, starts):
    if isinstance(starts, str):
        if starts == "auto":
            starts = "all" if graph.num_vertices <= EXACT_STARTS_MAX_VERTICES else "heuristic"
        if starts == "all":
            return np.arange(graph.num_vertices), True
        if starts == "heuristic":
            return heuristic_start_vertices(graph), False
        raise ValueError(f"starts must be one of {_START_POLICIES} or vertex indices, got {starts!r}")
    arr = np.unique(_integers(starts, "start vertices", 0, graph.num_vertices))
    if arr.size == 0:
        raise ValueError("start vertices must not be empty")
    return arr, arr.size == graph.num_vertices


def mixing_time(graph: SmallWorldGraph, starts="auto", epsilon=0.25) -> MixingEstimate:
    """Smallest t with max-over-starts TV distance to stationarity <= epsilon.

    The search evolves the start distributions one step at a time.  After
    each step it computes the TV distance of one tracked column, the worst
    one at the last full evaluation (first at t = 0).  While that column is
    above epsilon + N * machine-eps, t fails: the margin bounds the rounding
    between the column's sum taken alone and inside the full evaluation (N
    terms summing to at most 2, halved), so the column is above epsilon there
    too.  Otherwise the worst TV over all columns is evaluated; t is t_mix if
    it is <= epsilon, and else its worst column is tracked next.  A single
    start's distance never increases with t (Levin, Peres and Wilmer, Markov
    Chains and Mixing Times, section 4.4), so a newly tracked column stays
    above epsilon until it is close to passing.  The search costs exactly
    t_mix kernel products and one column TV per step; full evaluations happen
    at t = 0, at t_mix and wherever the tracked column passed before the
    start set did.

    Args:
        graph: the sampled graph.
        starts: "all" (exact), "heuristic", "auto" (exact up to
            EXACT_STARTS_MAX_VERTICES vertices), or explicit vertex indices.
        epsilon: TV threshold in (0, 1]; 1/4 by default.

    Returns:
        MixingEstimate; its t_mix satisfies the threshold and every t below
        it fails, either in a full evaluation or in its tracked column.

    Raises:
        TypeError: if epsilon is not a real number or explicit start
            vertices are not integers.
        ValueError: if epsilon lies outside (0, 1], starts is an unknown
            policy name, or explicit start vertices are empty or out of range.
        ConvergenceError: if the worst TV distance at t = _MAX_STEPS is
            still above epsilon; the error carries that distance as
            last_value, the evaluated (t, worst TV) curve as last_iterate
            and _MAX_STEPS as iterations.
    """
    epsilon = _real(epsilon, "epsilon", "(0, 1]")
    start_vertices, exact = _resolve_starts(graph, starts)
    pi = stationary(graph)
    kernel_t = _kernel_transpose(graph)
    margin = graph.num_vertices * np.finfo(np.float64).eps

    Y = np.zeros((graph.num_vertices, start_vertices.size))
    Y[start_vertices, np.arange(start_vertices.size)] = 1.0

    def worst_column(M):
        # one deviation block, made absolute in place, so that no more than
        # two N x k blocks are alive at once: M and this, or M and a product
        dev = M - pi[:, None]
        col_tv = np.abs(dev, out=dev).sum(axis=0)
        c = int(col_tv.argmax())
        return c, 0.5 * float(col_tv[c])

    c, tv = worst_column(Y)
    curve, t = [(0, tv)], 0
    while tv > epsilon:
        if t == _MAX_STEPS:
            raise ConvergenceError(
                f"worst TV distance {tv:.3g} still above {epsilon} after {_MAX_STEPS} steps",
                last_value=tv,
                last_iterate=tuple(curve),
                iterations=_MAX_STEPS,
            )
        Y = _evolve(kernel_t, Y, t, t + 1)
        t += 1
        if t == _MAX_STEPS or 0.5 * float(np.abs(Y[:, c] - pi).sum()) <= epsilon + margin:
            c, tv = worst_column(Y)
            curve.append((t, tv))
    return MixingEstimate(t, epsilon, start_vertices, exact, tuple(curve))


def second_eigenpair(graph: SmallWorldGraph):
    """Second-largest eigenvalue of the lazy kernel and its eigenvector.

    Works on the symmetrized kernel S = D^(1/2) P D^(-1/2) with its known top
    eigenvector sqrt(pi) deflated, so the operator keeps the spectrum of S
    except that eigenvalue 1 becomes 0.  Laziness puts the whole spectrum in
    [0, 1], so the largest remaining eigenvalue is lambda_2 itself.  It is
    found by a thick-restart Lanczos solve (Wu and Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000) from a seeded start vector v0:

    - the basis is an (m + 1) x N array of rows, m = min(_LANCZOS_BASIS,
      N - 1), and each new row is orthogonalized against all earlier rows
      by two classical Gram-Schmidt passes;
    - once a sweep of operator products has filled m rows, the eigenpairs
      of the projected m x m matrix (np.linalg.eigh) give the Ritz pairs; the
      top one (theta, s) has converged once beta * |s_m| <= _EIGEN_TOL *
      |theta|, where beta is the norm of the last residual and s_m the last
      component of s, so that beta * |s_m| is the residual norm of the Ritz
      vector;
    - otherwise the top _LANCZOS_KEPT Ritz vectors and the residual row
      start the next sweep;
    - on breakdown, beta <= _EIGEN_TOL * alpha for the diagonal entry alpha
      just computed, the rows span an invariant subspace to the tolerance;
      since theta >= alpha and |s_m| <= 1, the top Ritz pair of the rows so
      far passes the test and is returned at once.

    Returns (lambda_2, x) with x the unit eigenvector of S, signed so that
    x . v0 < 0; the corresponding right eigenvector of P is D^(-1/2) x.

    Raises:
        ConvergenceError: if the solve does not converge within _MAX_RESTARTS
            sweeps.  The error carries the top Ritz vector of the last sweep
            (unit norm) as last_iterate and its Ritz value, the Rayleigh
            quotient of that vector and a lower bound on lambda_2, as
            last_value.
    """
    deg = graph.degrees.astype(np.float64)
    u1 = np.sqrt(deg)
    u1 /= np.linalg.norm(u1)
    dinv_sqrt = 1.0 / np.sqrt(deg)
    adj = graph.adjacency

    def apply_deflated(x):
        return 0.5 * x + 0.5 * dinv_sqrt * (adj @ (dinv_sqrt * x)) - (u1 @ x) * u1

    v0 = _stream(graph.params.seed, 0, 2).standard_normal(graph.num_vertices)
    v0 -= (u1 @ v0) * u1
    m = min(_LANCZOS_BASIS, graph.num_vertices - 1)
    basis = np.empty((m + 1, graph.num_vertices))
    basis[0] = v0 / np.linalg.norm(v0)
    proj = np.zeros((m, m))
    kept = 0
    for _ in range(_MAX_RESTARTS):
        for j in range(kept, m):
            w = apply_deflated(basis[j])
            alpha = 0.0
            for _pass in range(2):
                h = basis[: j + 1] @ w
                w -= h @ basis[: j + 1]
                alpha += h[j]
            beta = math.sqrt(w @ w)
            proj[j, j] = alpha
            if beta <= _EIGEN_TOL * alpha:
                theta, s = np.linalg.eigh(proj[: j + 1, : j + 1])
                return _signed_pair(theta[-1], s[:, -1] @ basis[: j + 1], v0)
            basis[j + 1] = w / beta
            if j + 1 < m:
                proj[j, j + 1] = proj[j + 1, j] = beta
        theta, s = np.linalg.eigh(proj)
        if beta * abs(s[-1, -1]) <= _EIGEN_TOL * abs(theta[-1]):
            return _signed_pair(theta[-1], s[:, -1] @ basis[:m], v0)
        kept = min(_LANCZOS_KEPT, m - 1)
        basis[:kept] = s[:, -kept:].T @ basis[:m]
        basis[kept] = basis[m]
        proj[:] = 0.0
        proj[:kept, :kept] = np.diag(theta[-kept:])
        proj[kept, :kept] = proj[:kept, kept] = beta * s[-1, -kept:]
    x = basis[kept - 1] / np.linalg.norm(basis[kept - 1])
    raise ConvergenceError(
        f"Lanczos solve did not converge within {_MAX_RESTARTS} restarts",
        last_value=float(theta[-1]),
        last_iterate=x,
        iterations=_MAX_RESTARTS,
    )


def _signed_pair(theta, x, v0):
    # the unit Ritz vector, signed so that x . v0 < 0
    x /= np.linalg.norm(x)
    if x @ v0 > 0:
        x = -x
    return float(theta), x


def spectral_gap(graph: SmallWorldGraph) -> float:
    """Spectral gap 1 - lambda_2 of the lazy kernel, lambda_2 from second_eigenpair; always in (0, 1]."""
    return 1.0 - second_eigenpair(graph)[0]


def relaxation_bounds(gap, pi_min, epsilon=0.25):
    """Mixing-time sandwich from the relaxation time 1/gap.

    Returns (lower, upper) with
        lower = (1/gap - 1) * ln(1 / (2 epsilon))
        upper = (1/gap) * ln(1 / (epsilon * pi_min)),
    valid for reversible lazy chains.

    Raises:
        TypeError: if gap, pi_min or epsilon is not a real number.
        ValueError: if gap, pi_min or epsilon lies outside (0, 1].
    """
    gap, pi_min, epsilon = (_real(value, what, "(0, 1]") for value, what in
                            ((gap, "gap"), (pi_min, "pi_min"), (epsilon, "epsilon")))
    t_rel = 1.0 / gap
    return (t_rel - 1.0) * math.log(1.0 / (2.0 * epsilon)), t_rel * math.log(1.0 / (epsilon * pi_min))


def sample_trajectory(graph: SmallWorldGraph, start, steps, rng) -> np.ndarray:
    """Simulate one lazy-walk trajectory; returns steps + 1 vertex indices.

    Args:
        rng: a numpy Generator; the caller owns stream derivation.

    Raises:
        TypeError: if start or steps is not an integer (numpy integers are
            accepted).
        ValueError: if start is out of range or steps is negative.
    """
    start, steps = _integer(start, "start vertex", 0, graph.num_vertices), _integer(steps, "step count", 0)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = cur = start
    lazy = rng.random(steps)
    for i in range(steps):
        if lazy[i] >= 0.5:
            nbrs = graph.neighbours(cur)
            cur = int(nbrs[rng.integers(0, nbrs.size)])
        path[i + 1] = cur
    return path
