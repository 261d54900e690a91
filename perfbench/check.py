"""Correctness gate for the records a sweep emits.

`check_records` reads an emitted CSV file and returns how many grid cells
were attempted and which failed.  Every seed base gets the invariant checks;
the default seed base also gets a cell-by-cell comparison against the stored
reference records.  The gate re-implements the documented replicate-seed
rule, so a record for the wrong cell counts as a failure too.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Seed base of the stored reference records.
DEFAULT_SEED = 0

# Real columns compared with a tolerance; every other column must match
# exactly.  gap: a different converged eigen solver moves lambda_2 by up to
# ~3.5e-8, an unconverged one by far more than 1e-6.  normalizer and pi_min
# are pure float arithmetic on the same inputs.
GAP_TOLERANCE = 1e-6
RELATIVE_TOLERANCE = {"normalizer": 1e-12, "pi_min": 1e-12}

_INT_COLUMNS = frozenset(
    {"n", "seed", "num_vertices", "edge_count", "t_mix", "t_mix_exact", "diameter",
     "diameter_lower", "pairs", "delivered_count", "max_hops"}
)
_STR_COLUMNS = frozenset({"experiment", "version"})

COLUMNS = {
    "mix": ("t_mix", "t_mix_exact", "gap", "diameter", "pi_min"),
    "diameter": ("diameter", "diameter_lower"),
    "routing": ("pairs", "delivered_count", "median_hops", "max_hops"),
}
_COMMON = ("experiment", "n", "r", "seed", "num_vertices", "edge_count", "normalizer", "version")

# The "auto" start policy evolves every start vertex up to this many vertices.
EXACT_STARTS_MAX_VERTICES = 400
EPSILON = 0.25


def derive_seed(base, n, r, replicate) -> int:
    """The documented replicate seed: sha256("{base}:{n}:{r_hex}:{k}")[:8]."""
    msg = f"{int(base)}:{int(n)}:{float(r).hex()}:{int(replicate)}".encode("ascii")
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")


def expected_cells(config) -> list:
    """(n, r, seed) of every cell the config asks for, in emit order."""
    cells = [
        (n, float(r), derive_seed(config["seed_base"], n, r, k))
        for n in config["n_values"]
        for r in config["r_values"]
        for k in range(config["num_seeds"])
    ]
    return sorted(cells)


def _parse(column, text):
    if column in _STR_COLUMNS:
        return text
    if column in _INT_COLUMNS:
        return int(text)
    return float(text)


def read_csv(path):
    """(rows, manifest) of an emitted CSV file; rows map column -> value."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or not lines[-1].startswith("# manifest "):
        raise ValueError(f"{path}: missing manifest line")
    manifest = dict(item.split("=", 1) for item in lines[-1][len("# manifest "):].split())
    header = lines[0].split(",")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: row has {len(cells)} cells, header has {len(header)}")
        rows.append({c: _parse(c, v) for c, v in zip(header, cells)})
    return rows, manifest


def invariant_errors(row, config) -> list:
    """Checks that hold for any seed; returns the violated ones."""
    n = row["n"]
    N = (2 * n + 1) ** 2
    errs = []

    def need(ok, what):
        if not ok:
            errs.append(what)

    need(row["experiment"] == config["experiment"], "experiment")
    need(row["num_vertices"] == N, "num_vertices == (2n+1)^2")
    need(row["edge_count"] >= 2 * N, "edge_count >= 2N torus edges")
    need(math.isfinite(row["normalizer"]) and row["normalizer"] > 0, "normalizer > 0")
    kind = config["experiment"]
    if kind == "mix":
        gap, pi_min, t_mix = row["gap"], row["pi_min"], row["t_mix"]
        need(row["t_mix_exact"] == int(N <= EXACT_STARTS_MAX_VERTICES), "t_mix_exact == (N <= 400)")
        need(t_mix >= 1, "t_mix >= 1")
        need(0 < gap <= 1, "0 < gap <= 1")
        need(0 < pi_min <= 1 / N, "0 < pi_min <= 1/N")
        need(1 <= row["diameter"] <= 2 * n, "1 <= diameter <= 2n")
        if 0 < gap <= 1 and pi_min > 0:
            # Relaxation-time sandwich for reversible lazy chains; the
            # heuristic start set only gives a lower estimate of t_mix.
            upper = math.log(1 / (EPSILON * pi_min)) / gap
            lower = (1 / gap - 1) * math.log(1 / (2 * EPSILON))
            need(t_mix <= upper + 1, "t_mix <= t_rel ln(1/(eps pi_min))")
            if row["t_mix_exact"]:
                need(t_mix >= math.floor(lower), "t_mix >= (t_rel - 1) ln(1/(2 eps))")
    elif kind == "diameter":
        lo, d = row["diameter_lower"], row["diameter"]
        need(1 <= lo <= d, "1 <= diameter_lower <= diameter")
        need(d <= min(2 * n, 2 * lo), "diameter <= min(2n, 2 diameter_lower)")
    elif kind == "routing":
        need(row["pairs"] == config["pairs"], "pairs == configured pairs")
        need(row["delivered_count"] == row["pairs"], "delivered_count == pairs")
        # Greedy routing lowers the torus distance (at most 2n) every hop.
        need(0 <= row["median_hops"] <= row["max_hops"] <= 2 * n, "median_hops <= max_hops <= 2n")
    return errs


def reference_errors(row, ref) -> list:
    """Columns where row differs from the reference row beyond tolerance."""
    errs = []
    for column, want in ref.items():
        got = row[column]
        if column == "version":
            continue  # provenance, not a result
        if column == "gap":
            ok = abs(got - want) <= GAP_TOLERANCE
        elif column in RELATIVE_TOLERANCE:
            ok = math.isclose(got, want, rel_tol=RELATIVE_TOLERANCE[column])
        else:
            ok = got == want
        if not ok:
            errs.append(f"{column}: {got!r} != reference {want!r}")
    return errs


def load_reference(workload):
    """(seed bases, rows keyed by (n, r, seed)) of the stored reference records.

    The reference file holds the records of the workload's sweep at each of
    the listed seed bases, under one header, with a "# manifest
    seed_bases=..." line.
    """
    rows, manifest = read_csv(REFERENCE_DIR / f"{workload}.csv")
    bases = {int(b) for b in manifest["seed_bases"].split(",")}
    return bases, {(row["n"], row["r"], row["seed"]): row for row in rows}


def check_records(path, config, reference=None) -> tuple:
    """(attempted, failures) for one emitted file.

    attempted is the number of cells the config asks for; failures maps
    each failed cell to its violations.  A missing, duplicated or wrong
    record fails its cell; an unreadable file, a wrong manifest or a record
    for a cell the config does not ask for fails every cell.
    """
    cells = expected_cells(config)
    try:
        rows, manifest = read_csv(path)
    except (OSError, ValueError, KeyError) as exc:
        return len(cells), dict.fromkeys(cells, [f"unreadable output: {exc}"])
    file_errors = []
    if manifest.get("seed_base") != str(config["seed_base"]):
        file_errors.append(f"manifest seed_base {manifest.get('seed_base')!r}")
    columns = _COMMON + COLUMNS[config["experiment"]]
    by_cell = {}
    for row in rows:
        if tuple(row) != columns:
            file_errors.append(f"columns {tuple(row)}")
        else:
            by_cell.setdefault((row["n"], row["r"], row["seed"]), []).append(row)
    file_errors.extend(f"unexpected cell {cell}" for cell in set(by_cell) - set(cells))
    if file_errors:
        return len(cells), dict.fromkeys(cells, file_errors)
    failures = {}
    for cell in cells:
        found = by_cell.get(cell, [])
        if len(found) != 1:
            failures[cell] = [f"{len(found)} records"]
            continue
        errs = invariant_errors(found[0], config)
        if reference is not None:
            ref = reference.get(cell)
            errs += reference_errors(found[0], ref) if ref else ["no reference row"]
        if errs:
            failures[cell] = errs
    return len(cells), failures
