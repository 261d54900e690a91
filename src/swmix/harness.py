"""Seeded parameter sweeps over (n, r) grids with deterministic emission.

Each grid cell (n, r, seed) is measured independently.  When seeds are not
listed explicitly, the per-cell seed of replicate k is the first 8 bytes of
sha256("{base}:{n}:{r_hex}:{k}") with r in exact float hex, so replicates are
independent and any single cell can be reproduced in isolation.  Auxiliary
random streams inside a cell are keyed by the instance seed and a purpose;
the spawn-key table is in the :mod:`swmix.generate` docstring.

Every experiment runs through one pipeline, :func:`run_sweep`: each cell
samples its graph, measures it with the experiment's ``_measure_*`` function,
and wraps the returned columns in an ExperimentRecord, which gives every
column its type (integer, real or string) by name.

Cells run under a bounded thread pool (the SWMIX_WORKERS environment
variable overrides the width) and records are sorted by (n, r, seed) before
emission, and the manifest's config hash skips the worker count, so output
files are byte-identical at any worker count.  A ".json" path gets an array
of record objects whose final element is the manifest object; any other
path gets CSV: a header row, one row per record with reals at 17 significant
digits, and a trailing "# manifest ..." line with the config hash and seed base.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import expansion
from ._version import __version__
from .errors import CapacityError
from .generate import ModelParams, SmallWorldGraph, _sampling_normalizer, _stream, sample_graph
from .torus import _check_n, _integer, _real, make_box_partition, mask_from_indices, num_vertices
from .walk import EXACT_STARTS_MAX_VERTICES, _START_POLICIES, mixing_time, second_eigenpair, stationary

__all__ = [
    "EXPERIMENTS",
    "WORKERS_ENV_VAR",
    "SweepConfig",
    "ExperimentRecord",
    "RoutingResult",
    "derive_seed",
    "config_digest",
    "run_sweep",
    "greedy_route",
    "emit",
    "load_records",
    "load_sweep_config",
]

WORKERS_ENV_VAR = "SWMIX_WORKERS"

_COMMON_FIELDS = ("experiment", "n", "r", "seed", "num_vertices", "edge_count", "normalizer", "version")

# Column types, applied by ExperimentRecord; w_* columns are also integers, the rest reals.
_STR_FIELDS = frozenset({"experiment", "version"})
_INT_FIELDS = frozenset(
    {
        "n",
        "seed",
        "num_vertices",
        "edge_count",
        "t_mix",
        "t_mix_exact",
        "diameter",
        "diameter_lower",
        "ball_radius",
        "ball_size",
        "ball_edge_boundary",
        "ball_vertex_boundary",
        "pairs",
        "delivered_count",
        "max_hops",
        "box_side",
        "num_boxes",
        "random_sets",
        "ec_holds",
    }
)


def _coerce(column, value):
    if column in _STR_FIELDS:
        return str(value)
    if column in _INT_FIELDS or column.startswith("w_"):
        if not float(value).is_integer():
            raise ValueError(f"column {column} must hold an integer, got {value!r}")
        return int(value)
    return float(value)


def derive_seed(base, n, r, replicate) -> int:
    """Stable 64-bit instance seed for replicate ``replicate`` of cell (n, r).

    First 8 bytes, big-endian, of sha256 over "{base}:{n}:{r_hex}:{replicate}"
    where r_hex is the exact float hex of r.
    base, n and replicate must be integers and r a real number (TypeError
    otherwise): a base in [0, 2^64), n >= 1, r >= 0 and replicate >= 0
    (ValueError otherwise).
    """
    base = _integer(base, "seed base", 0, 2**64)
    n = _check_n(n)
    r = _real(r, "r", "[0, inf]")
    replicate = _integer(replicate, "replicate", 0)
    msg = f"{base}:{n}:{r.hex()}:{replicate}".encode("ascii")
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")


@dataclass(frozen=True)
class SweepConfig:
    """One experiment grid: (n, r) values, seeding, policy knobs, worker count.

    Seeds come either from ``seeds`` (an explicit tuple shared by every grid
    cell) or from ``num_seeds`` replicates derived per cell from ``seed_base``
    via :func:`derive_seed`; exactly one form must be used.  ``starts`` is the
    mixing start policy, ``ball_frac`` the ball-radius fraction of the
    conductance experiment, ``include_sweep_min`` toggles its spectral
    sweep-cut column, ``box_side``/``q_max`` parametrize the connected
    box-set counts, ``pairs`` the routing sample, and ``random_sets`` the
    random-set sample of the expansion experiment.  ``workers`` sets the
    thread count (SWMIX_WORKERS overrides it); no record depends on it.

    Raises:
        TypeError: for a non-integer n, seed, seed_base or count, an r or
            ball_frac that is not a real number, or an include_sweep_min that
            is not a bool.
        ValueError: for a field out of range, an unsampleable (n, r), a zero conductance ball radius, or a
            box_side of at least n + 1 in a wq or expansion grid.
        CapacityError: for starts="all" with an n over the exact-starts cap.
    """

    experiment: str
    n_values: tuple
    r_values: tuple
    seeds: tuple | None = None
    num_seeds: int = 0
    seed_base: int = 0
    starts: str = "auto"
    workers: int | None = None
    ball_frac: float = 0.9
    include_sweep_min: bool = True
    box_side: int = 2
    q_max: int = 3
    pairs: int = 100
    random_sets: int = 500

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        n_values = tuple(_check_n(v) for v in self.n_values)
        if not n_values:
            raise ValueError("n_values must be a nonempty list of integers >= 1")
        r_values = tuple(_real(v, "r_values entry", "[0, inf]") for v in self.r_values)
        if not r_values:
            raise ValueError("r_values must be a nonempty list of reals >= 0")
        for n in n_values:
            for r in r_values:
                _sampling_normalizer(n, r)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "r_values", r_values)
        if self.seeds is not None:
            seeds = tuple(_integer(s, "explicit seed", 0, 2**64) for s in self.seeds)
            if not seeds:
                raise ValueError("explicit seeds must be a nonempty list")
            if self.num_seeds:
                raise ValueError("give either explicit seeds or num_seeds, not both")
            object.__setattr__(self, "seeds", seeds)
        else:
            object.__setattr__(self, "num_seeds", _integer(self.num_seeds, "num_seeds", 1))
        object.__setattr__(self, "seed_base", _integer(self.seed_base, "seed_base", 0, 2**64))
        if self.starts not in _START_POLICIES:
            raise ValueError(f"starts must be one of {_START_POLICIES}, got {self.starts!r}")
        object.__setattr__(self, "ball_frac", _real(self.ball_frac, "ball_frac", "(0, 1)"))
        if type(self.include_sweep_min) not in (bool, np.bool_):  # a flag, not the integer rule: 0 and 1 fail too
            raise TypeError(f"include_sweep_min must be a bool, got {self.include_sweep_min!r}")
        object.__setattr__(self, "include_sweep_min", bool(self.include_sweep_min))
        optional = ["workers"] if self.workers is not None else []
        for name in ["box_side", "q_max", "pairs", "random_sets"] + optional:
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        if self.experiment == "mix" and self.starts == "all":
            for n in self.n_values:
                if num_vertices(n) > EXACT_STARTS_MAX_VERTICES:
                    raise CapacityError(
                        f"exact mixing starts need N <= {EXACT_STARTS_MAX_VERTICES}; "
                        f"n={n} has N={num_vertices(n)}"
                    )
        if self.experiment == "conductance":
            for n in self.n_values:
                if int(self.ball_frac * n) < 1:
                    raise ValueError(
                        f"ball radius floor({self.ball_frac} * {n}) is zero; increase n or ball_frac"
                    )
        if self.experiment in ("wq", "expansion"):
            for n in self.n_values:
                _integer(self.box_side, "box_side", 1, n + 1)  # make_box_partition's rule, before any cell runs

    def instance_seeds(self, n, r) -> tuple:
        """Seeds used for grid cell (n, r), in replicate order."""
        if self.seeds is not None:
            return self.seeds
        return tuple(derive_seed(self.seed_base, n, r, k) for k in range(self.num_seeds))


def config_digest(cfg: SweepConfig) -> str:
    """sha256 hex digest over every config field but workers (no record depends on it), reals in exact float hex."""

    def canon(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, tuple):
            return "(" + ",".join(canon(x) for x in v) + ")"
        return repr(v)

    parts = [f"{f.name}={canon(getattr(cfg, f.name))}" for f in dataclasses.fields(cfg) if f.name != "workers"]
    return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured grid cell; ``values`` holds the experiment-specific fields.

    The common fields (n, r, seed, sizes, normalizer, package version) are
    enough provenance to regenerate the record bit for bit.  Construction
    gives every column its type by name (str, int or float), for records
    measured, loaded or built by hand alike; a value that is not integral
    in an integer column raises ValueError.
    """

    experiment: str
    n: int
    r: float
    seed: int
    num_vertices: int
    edge_count: int
    normalizer: float
    version: str
    values: dict

    def __post_init__(self):
        for name in _COMMON_FIELDS:
            object.__setattr__(self, name, _coerce(name, getattr(self, name)))
        object.__setattr__(self, "values", {k: _coerce(k, v) for k, v in self.values.items()})

    def as_row(self) -> dict:
        """Flat column -> value mapping, common fields first."""
        row = {name: getattr(self, name) for name in _COMMON_FIELDS}
        row.update(self.values)
        return row


@dataclass(frozen=True)
class RoutingResult:
    """Greedy routing outcome for one (source, target) pair."""

    source: int
    target: int
    hops: int
    delivered: bool


def _worker_count(cfg: SweepConfig) -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is None:
        return cfg.workers or min(8, os.cpu_count() or 1)  # cfg.workers is None or >= 1
    if not env.strip().isdecimal() or int(env) < 1:  # digits first: int("two") would not name the variable
        raise ValueError(f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}")
    return int(env)


def _run_grid(cfg: SweepConfig, cell) -> list:
    jobs = [
        (n, r, seed)
        for n in cfg.n_values
        for r in cfg.r_values
        for seed in cfg.instance_seeds(n, r)
    ]
    workers = _worker_count(cfg)
    if workers == 1 or len(jobs) == 1:
        records = [cell(n, r, seed) for n, r, seed in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda job: cell(*job), jobs))
    records.sort(key=lambda rec: (rec.n, rec.r, rec.seed))
    return records


def _measure_mix(graph: SmallWorldGraph, cfg: SweepConfig) -> dict:
    """Mixing time, spectral gap, exact diameter, and pi_min of one graph.

    The start policy comes from cfg.starts: "all" evolves every point mass
    (exact mixing time, capped at EXACT_STARTS_MAX_VERTICES vertices),
    "heuristic" uses the documented start set, and "auto" switches between
    them on the cap.  t_mix_exact records which one happened.
    """
    est = mixing_time(graph, starts=cfg.starts)
    lam, _ = second_eigenpair(graph)
    return {
        "t_mix": est.t_mix,
        "t_mix_exact": est.exact,
        "gap": 1.0 - lam,
        "diameter": expansion.diameter(graph)[0],
        "pi_min": stationary(graph).min(),
    }


def _measure_conductance(graph: SmallWorldGraph, cfg: SweepConfig) -> dict:
    """Ball-cut report at radius floor(ball_frac * n) of one graph.

    Records the full cut report of the L1 ball (size, edge and vertex
    boundary, conductance) plus the independently computed complement
    conductance; with include_sweep_min also the minimum conductance over
    the spectral sweep-cut prefixes.
    """
    radius = int(cfg.ball_frac * graph.n)
    ball = expansion.ball_set(graph.n, radius)
    report = expansion.cut_report(graph, ball)
    values = {
        "ball_radius": radius,
        "ball_size": report.set_size,
        "ball_edge_boundary": report.edge_boundary,
        "ball_vertex_boundary": report.vertex_boundary,
        "phi_ball": report.conductance,
        "phi_ball_complement": expansion.conductance(graph, ~ball),
    }
    if cfg.include_sweep_min:
        values["phi_sweep_min"] = min(rp.conductance for rp in expansion.sweep_cut(graph))
    return values


def _measure_diameter(graph: SmallWorldGraph, cfg: SweepConfig) -> dict:
    """Exact diameter and the double-sweep lower bound of one graph."""
    diam, lower = expansion.diameter(graph)
    return {"diameter": diam, "diameter_lower": lower}


def _measure_wq(graph: SmallWorldGraph, cfg: SweepConfig) -> dict:
    """Connected box-set counts W_q for q = 1..q_max of one graph.

    Each record carries the per-seed counts w_q next to the expectation
    bound n^2 (40 box_side^2)^q, so seed means can be compared downstream.

    Raises:
        CapacityError: propagated from the box-set counter when the
            partition or q exceeds its enumeration caps.
    """
    partition = make_box_partition(graph.n, cfg.box_side)
    values = {"box_side": cfg.box_side, "num_boxes": partition.num_boxes}
    for q in range(1, cfg.q_max + 1):
        values[f"w_{q}"] = expansion.count_connected_box_sets(graph, partition, q)
        values[f"bound_{q}"] = float(graph.n) ** 2 * (40.0 * cfg.box_side**2) ** q
    return values


def greedy_route(graph: SmallWorldGraph, source, target, hop_cap=None) -> RoutingResult:
    """Greedy torus-distance routing from source to target.

    Each step moves to the neighbour (torus or long-range) minimizing the
    torus distance to the target, ties broken by smallest canonical index,
    stopping at the target or after hop_cap hops.  A torus neighbour that
    strictly decreases the distance always exists, so delivery is guaranteed
    and the default cap of 10 N is a safety net only.

    A hop scores only the long-range neighbours, read from
    graph.long_range_rows.  A torus step changes the cycle distance of one
    axis by at most 1, and since the cycle length 2n+1 is odd, only one of
    the two steps along an axis shortens it, and only if that axis is not yet
    aligned with the target.  So with D the current distance, no torus
    neighbour is closer than D - 1, and those at D - 1 are at most two: one
    per unaligned axis, the step the shorter way round.  They come from plain
    (x, y) arithmetic, and each long-range neighbour is scored per axis with
    min(d, 2n+1-d).  A hop costs O(1 + long-range degree) with no per-hop
    validation: 0.80 us on the routing_w2 benchmark cells (n = 32 to 128,
    one long-range neighbour per vertex on average), measured as the busy
    time of greedy_route over its hops in one traced perfbench run (90,915
    hops in 0.073 s, 2-vCPU Xeon VM).

    Raises:
        TypeError: for a source, target or hop_cap that is not an integer (a
            float such as 3.7 is rejected rather than truncated).
        ValueError: for out-of-range vertices or hop_cap < 1.
    """
    N = graph.num_vertices
    source = _integer(source, "source vertex", 0, N)
    target = _integer(target, "target vertex", 0, N)
    hop_cap = 10 * N if hop_cap is None else _integer(hop_cap, "hop_cap", 1)
    n = graph.n
    side = 2 * n + 1
    # plain int arithmetic rather than torus._split: numpy calls would dominate a hop of under 1 us
    tx, ty = divmod(target, side)
    # memoryview items are plain Python ints, with no numpy scalar per index
    indptr, indices = map(memoryview, graph.long_range_rows)
    cur = source
    sx, sy = divmod(source, side)
    dist = min(abs(sx - tx), side - abs(sx - tx)) + min(abs(sy - ty), side - abs(sy - ty))
    hops = 0
    while cur != target and hops < hop_cap:
        cx, cy = divmod(cur, side)
        # per axis, how far ahead the target lies (mod side); past n it is nearer behind
        ax = (tx - cx) % side
        ay = (ty - cy) % side
        best = dist - 1
        nxt = N  # above every index
        if ax:
            nxt = (cx + 1 if ax <= n else cx - 1) % side * side + cy
        if ay:
            w = cur - cy + (cy + 1 if ay <= n else cy - 1) % side
            if w < nxt:
                nxt = w
        # an index walk: a memoryview slice per hop costs more than the row's one or two entries
        k, stop = indptr[cur], indptr[cur + 1]
        while k < stop:
            w = indices[k]
            k += 1
            dx = abs(w // side - tx)
            dy = abs(w % side - ty)
            # min(d, side - d) per axis, as a branch: d <= n exactly when d < side - d
            if dx > n:
                dx = side - dx
            if dy > n:
                dy = side - dy
            if dx + dy < best or (dx + dy == best and w < nxt):
                best = dx + dy
                nxt = w
        cur, dist = nxt, best
        hops += 1
    return RoutingResult(source=source, target=target, hops=hops, delivered=cur == target)


def _measure_routing(graph: SmallWorldGraph, cfg: SweepConfig) -> dict:
    """Greedy routing over cfg.pairs seeded uniform pairs of one graph.

    Pair selection draws from the instance seed under spawn key (0, 3);
    records carry the delivered count and the median and max hop counts.
    """
    pairs = _stream(graph.params.seed, 0, 3).integers(0, graph.num_vertices, size=(cfg.pairs, 2))
    results = [greedy_route(graph, s, t) for s, t in pairs.tolist()]
    hops = [result.hops for result in results]
    return {
        "pairs": cfg.pairs,
        "delivered_count": sum(result.delivered for result in results),
        "median_hops": np.median(hops),
        "max_hops": max(hops),
    }


def _measure_expansion(graph: SmallWorldGraph, cfg: SweepConfig) -> dict:
    """Random-set expansion statistics of one graph.

    Draws from the instance seed under spawn key (0, 4):
      - m_hat: max over cfg.random_sets uniform random sets (sizes uniform in
        [1, N/2]) of (degree_sum(S) - |edge boundary|) / |S|, an empirical
        average-degree constant.
      - vx_alpha, vx_ratio: one box-like set assembled from random partition
        boxes to a volume fraction alpha drawn uniformly from [0.1, 0.5], and
        its vertex-expansion ratio |vertex boundary| * ln n / (|S| * ln(1/alpha)).
      - ec_holds: whether a uniform random set of ceil(N/10) vertices is
        (0.1, 0.05)-expanding.
    """
    n = graph.n
    N = graph.num_vertices
    rng = _stream(graph.params.seed, 0, 4)

    m_hat = 0.0
    for _ in range(cfg.random_sets):
        size = int(rng.integers(1, N // 2 + 1))
        S = mask_from_indices(rng.choice(N, size=size, replace=False), n)
        report = expansion.cut_report(graph, S)
        m_hat = max(m_hat, (report.degree_sum - report.edge_boundary) / report.set_size)

    partition = make_box_partition(n, cfg.box_side)
    target = float(rng.uniform(0.1, 0.5)) * N
    chosen = np.zeros(partition.num_boxes, dtype=bool)
    covered = 0
    for box in rng.permutation(partition.num_boxes):
        chosen[box] = True
        covered += int(partition.sizes[box])
        if covered >= target:
            break
    box_like = chosen[partition.labels]
    alpha = covered / N
    vb = int(expansion.vertex_boundary(graph, box_like).sum())
    vx_ratio = vb * math.log(n) / (covered * math.log(1.0 / alpha)) if n > 1 else 0.0

    size10 = max(1, math.ceil(N / 10))
    S10 = mask_from_indices(rng.choice(N, size=size10, replace=False), n)
    verdict = expansion.is_expanding(graph, S10, 0.1, 0.05)

    return {
        "random_sets": cfg.random_sets,
        "m_hat": m_hat,
        "vx_alpha": alpha,
        "vx_ratio": vx_ratio,
        "ec_holds": verdict.holds,
    }


# Experiment name -> measure function; the one list of valid experiments.
_MEASURES = {
    "mix": _measure_mix,
    "conductance": _measure_conductance,
    "diameter": _measure_diameter,
    "routing": _measure_routing,
    "wq": _measure_wq,
    "expansion": _measure_expansion,
}
EXPERIMENTS = tuple(_MEASURES)


def _cell(cfg: SweepConfig, n: int, r: float, seed: int) -> ExperimentRecord:
    """Sample the graph of one cell, measure it with ``_measure_<experiment>`` and wrap the columns in a record."""
    params = ModelParams(n=n, r=r, seed=seed)
    graph = sample_graph(params)
    return ExperimentRecord(
        experiment=cfg.experiment,
        n=params.n,
        r=params.r,
        seed=params.seed,
        num_vertices=graph.num_vertices,
        edge_count=graph.edge_count,
        normalizer=graph.normalizer,
        version=__version__,
        values=_MEASURES[cfg.experiment](graph, cfg),
    )


def run_sweep(cfg: SweepConfig) -> list:
    """Run the experiment named by cfg.experiment; records sorted by (n, r, seed).

    Each cell runs through ``_cell``; the docstring of ``_measure_<experiment>``
    lists the columns, spawn keys and errors.
    """
    return _run_grid(cfg, functools.partial(_cell, cfg))


def emit(records, path, config: SweepConfig) -> None:
    """Write records plus a reproducibility manifest to path.

    A path ending in ".json" gets JSON: an array of record objects whose last
    element is {"manifest": {...}}.  Any other path gets CSV: a header row,
    one comma-separated row per record with reals at 17 significant digits,
    then one "# manifest key=value ..." line.  The byte content is a pure
    function of (records, the path's suffix, config less its workers).

    Raises:
        ValueError: for empty records or mixed column sets; nothing is
            written in these cases.
        OSError: propagated from the filesystem.
    """
    if not records:
        raise ValueError("no records to emit")
    rows = [record.as_row() for record in records]
    columns = list(rows[0])
    if any(list(row) != columns for row in rows):
        raise ValueError("records do not share a single column set")
    manifest = {
        "config_sha256": config_digest(config),
        "seed_base": config.seed_base,
        "version": __version__,
    }
    if str(path).endswith(".json"):
        text = json.dumps(rows + [{"manifest": manifest}], indent=1) + "\n"
    else:
        lines = [",".join(columns)]
        # a record's cells are str, int or float
        lines.extend(",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row.values())
                     for row in rows)
        lines.append("# manifest " + " ".join(f"{k}={v}" for k, v in manifest.items()))
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _record_from_row(row) -> ExperimentRecord:
    missing = [name for name in _COMMON_FIELDS if not isinstance(row, dict) or name not in row]
    if missing:
        raise ValueError(f"record row {row!r} lacks the common columns {missing}")
    common = {name: row[name] for name in _COMMON_FIELDS}
    values = {k: v for k, v in row.items() if k not in _COMMON_FIELDS}
    return ExperimentRecord(values=values, **common)


def _checked_manifest(manifest, parse=lambda value: value) -> dict:
    """manifest with seed_base as an int; ValueError unless parse(seed_base) is an integer in [0, 2^64)."""
    try:
        seed_base = _integer(parse(manifest["seed_base"]), "seed_base", 0, 2**64)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"manifest {manifest!r} lacks an integer seed_base in [0, 2^64)") from None
    return {**manifest, "seed_base": seed_base}


def load_records(path):
    """Read a file written by :func:`emit`; returns (records, manifest).

    The format is detected from the content (a leading '[' means JSON).

    Raises:
        ValueError: if the manifest is missing, has a CSV token that is not
            key=value, or lacks an integer seed_base in [0, 2^64), or a row
            is malformed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        payload = json.loads(text)
        if not payload or not isinstance(payload[-1], dict) or "manifest" not in payload[-1]:
            raise ValueError("missing trailing manifest object")
        manifest = _checked_manifest(payload[-1]["manifest"])
        rows = payload[:-1]
    else:
        lines = [line for line in text.splitlines() if line]
        if not lines or not lines[-1].startswith("# manifest "):
            raise ValueError("missing trailing manifest line")
        tokens = lines[-1][len("# manifest ") :].split()
        if not all("=" in token for token in tokens):
            raise ValueError(f"manifest line {lines[-1]!r} has a token that is not key=value")
        manifest = _checked_manifest(dict(token.split("=", 1) for token in tokens), int)
        columns = lines[0].split(",")
        rows = []
        for line in lines[1:-1]:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"row has {len(cells)} cells, header has {len(columns)}")
            rows.append(dict(zip(columns, cells)))
    return [_record_from_row(row) for row in rows], manifest


def _parse_bool(value):
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _list_of(parse):
    return lambda value: tuple(parse(token) for token in value.split(",") if token.strip())


# SweepConfig field -> parser of its config-file value; the file's key set.
_PARSERS = {
    "experiment": str,
    "n_values": _list_of(int),
    "r_values": _list_of(float),
    "seeds": _list_of(int),
    "num_seeds": int,
    "seed_base": int,
    "starts": str,
    "workers": int,
    "ball_frac": float,
    "include_sweep_min": _parse_bool,
    "box_side": int,
    "q_max": int,
    "pairs": int,
    "random_sets": int,
}


def load_sweep_config(path) -> SweepConfig:
    """Parse a flat "key = value" config file into a SweepConfig.

    Blank lines and lines starting with '#' are skipped; list values are
    comma-separated.

    Raises:
        ValueError: on unknown or duplicate keys, malformed lines, or a
            config violating the SweepConfig invariants.
        CapacityError: for a mix config with starts = all and an n over
            the exact-starts cap.
    """
    kwargs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _PARSERS:
                raise ValueError(f"line {lineno}: unknown config key {key!r}")
            if key in kwargs:
                raise ValueError(f"line {lineno}: duplicate config key {key!r}")
            try:
                kwargs[key] = _PARSERS[key](value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from None
    try:
        return SweepConfig(**kwargs)
    except TypeError as exc:
        raise ValueError(f"incomplete config: {exc}") from None
