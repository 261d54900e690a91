"""Smoke test of the benchmark itself, on reduced workloads.

    python3 perfbench/smoke.py

Run from the root of a source checkout; takes under a minute.  Checks that
every metric of BENCHMARK.json prints with its unit in both modes, that the
correctness gate rejects tampered records, that tracing leaves the records
unchanged, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import check
import run

SEED = 7  # not the reference seed: the reduced cells have no reference rows

REDUCED = {
    "mix_transition": {"n_values": (3, 10), "r_values": (1.0, 4.0)},
    "diameter_r1": {"n_values": (10, 12)},
    "routing_w2": {"n_values": (8, 16), "r_values": (1.0, 4.0), "pairs": 20},
}

# Per experiment: a column and a value that violates an invariant.
TAMPER = {
    "mix": ("t_mix_exact", lambda row: 1 - row["t_mix_exact"]),
    "diameter": ("diameter_lower", lambda row: row["diameter"] + 1),
    "routing": ("delivered_count", lambda row: row["pairs"] - 1),
}


def need(ok, what):
    if not ok:
        raise SystemExit(f"smoke test failed: {what}")


def run_main(argv):
    """run.main() in this process; (exit code, stdout lines)."""
    buf = io.StringIO()
    saved = sys.argv
    sys.argv = ["run.py", *argv]
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main()
    finally:
        sys.argv = saved
    return code, buf.getvalue().splitlines()


def write_rows(path, rows, manifest):
    columns = list(rows[0])
    lines = [",".join(columns)]
    lines += [",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row.values())
              for row in rows]
    lines.append("# manifest " + " ".join(f"{k}={v}" for k, v in manifest.items()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_metrics(workload, trace, spec):
    code, lines = run_main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                            "--trace", str(trace)])
    need(code == 0, f"{workload} trace={trace} exited {code}")
    result = json.loads(lines[-1])
    need(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    need(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
         f"{workload} trace={trace}: {result['failed']} of {result['attempted']} cells failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    need(set(result["metrics"]) == {m["name"] for m in wanted}, f"{workload}: metric names")
    printed = "\n".join(lines[:-1])
    for m in wanted:
        need(result["metrics"][m["name"]]["unit"] == m["unit"], f"{m['name']}: unit")
        need(any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line for line in lines[:-1]),
             f"{m['name']} not printed with its unit in:\n{printed}")


def check_gate(workload):
    work = run.OUT_DIR / workload
    config = run.sweep_config(workload, run.rep_seed_base(SEED, 0))
    untraced, traced = work / "rep0.csv", work / "rep0-traced.csv"
    need(untraced.read_bytes() == traced.read_bytes(), f"{workload}: tracing changed the records")
    _, failures = check.check_records(untraced, config)
    need(not failures, f"{workload}: clean records rejected: {failures}")

    rows, manifest = check.read_csv(untraced)
    reference = {(r["n"], r["r"], r["seed"]): dict(r) for r in rows}
    column, bad = TAMPER[config["experiment"]]
    tampered = [dict(r) for r in rows]
    tampered[0][column] = bad(tampered[0])
    path = work / "tampered.csv"
    write_rows(path, tampered, manifest)
    _, failures = check.check_records(path, config)
    need(len(failures) == 1, f"{workload}: tampered {column} gave {len(failures)} failed cells")
    _, failures = check.check_records(path, config, reference)
    need(len(failures) == 1, f"{workload}: tampered {column} passed the reference comparison")

    write_rows(path, rows[1:], manifest)
    _, failures = check.check_records(path, config)
    need(len(failures) == 1, f"{workload}: a missing record was not counted")

    if config["experiment"] == "mix":
        for shift, ok in ((1e-8, True), (1e-5, False)):
            moved = [dict(r) for r in rows]
            moved[0]["gap"] += shift
            write_rows(path, moved, manifest)
            _, failures = check.check_records(path, config, reference)
            need(not failures if ok else len(failures) == 1, f"gap moved by {shift}: {failures}")


def check_bare_directory(spec):
    """Without src/, the benchmark exits non-zero and prints no result."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "diameter_r1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    need(proc.returncode != 0, "benchmark ran without the sources")
    need('"correct"' not in proc.stdout, "benchmark printed a result without the sources")
    shutil.rmtree(bare)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    need([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    for workload, reduced in REDUCED.items():
        run.WORKLOADS[workload] = dict(run.WORKLOADS[workload], **reduced)
        check_metrics(workload, 0, spec)
        check_metrics(workload, 1, spec)
        check_gate(workload)
        print(f"{workload}: ok")
    check_bare_directory(spec)
    print("smoke test passed")


if __name__ == "__main__":
    main()
