"""Benchmark `swmix sweep` on fixed workloads, with an optional layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
src/, and outputs go to .perfbench_out/.  A run first times the import of
swmix.cli in fresh processes (set-up), then repeats the workload's sweep
until S seconds are used.  Each repetition runs `swmix sweep` in a fresh
process (perfbench/child.py) with one BLAS thread and checks the records it
emits (perfbench/check.py).  Repetition k sweeps seed base 1000 N + k, so a
run averages over several inputs and the same N always gives the same ones.

--trace 0 reports the end-to-end metrics: medians over the repetitions.
Times are scaled to a fixed reference machine speed, which a speed probe
measures between repetitions (perfbench/speed.py); the measured medians and
the probe's median are in the run manifest.
--trace 1 runs each seed base twice, untraced and then traced, checks that
both emit the same bytes, and reports the per-layer metrics of the traced
runs (perfbench/spantrace.py) and the tracing overhead.  Metric names and
units come from BENCHMARK.json.

Progress and the run manifest go to stdout first; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import itertools
import subprocess
import sys
import time
from pathlib import Path

import check
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Why each workload exists: see perfbench/README.md.
WORKLOADS = {
    "mix_transition": {
        "experiment": "mix", "n_values": (8, 16, 24), "r_values": (1.0, 2.0, 4.0),
        "num_seeds": 1, "workers": 1,
    },
    "diameter_r1": {
        "experiment": "diameter", "n_values": (40, 48), "r_values": (1.0,),
        "num_seeds": 1, "workers": 1,
    },
    "routing_w2": {
        "experiment": "routing", "n_values": (32, 64, 128), "r_values": (1.0, 2.0, 4.0),
        "num_seeds": 1, "pairs": 300, "workers": 2,
    },
}

# Spans each workload must record at least once in a traced run, so that a
# refactor cannot route the work around a wrapper unnoticed.
EXPECTED_SPANS = {
    "mix_transition": ("cli.main", "harness.cell", "generate.sample_graph", "walk.mixing_time",
                       "walk.second_eigenpair", "expansion.diameter", "bfs.exact_diameter"),
    "diameter_r1": ("cli.main", "harness.cell", "generate.sample_graph", "expansion.diameter",
                    "bfs.exact_diameter", "bfs.double_sweep", "bfs.eccentricities"),
    "routing_w2": ("cli.main", "harness.cell", "generate.sample_graph", "harness.greedy_route"),
}

MODULES = ("cli", "harness", "generate", "walk", "bfs", "expansion", "torus")

# One BLAS thread per process, so threads never exceed the CPU count.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

IMPORT_SAMPLES = 3  # import-only processes per run, besides each repetition's own import
TIME_LIMIT_S = 170.0  # a run must end within 180 s


def rep_seed_base(seed: int, k: int) -> int:
    """Seed base of repetition k in a run with --seed seed."""
    return 1000 * seed + k


def write_config(path: Path, config: dict) -> None:
    lines = []
    for key, value in config.items():
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SWMIX_WORKERS", None)  # would override the workload's worker count
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, deadline):
    """Run child.py once; its JSON result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"child timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return "unknown"


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics of one traced repetition, from spantrace.summarize."""

    def field(span, key):
        return layers.get(span, {}).get(key, 0)

    def count(span, key):
        return layers.get(span, {}).get("counts", {}).get(key, 0)

    m = {}
    for span, fields in (
        ("walk.second_eigenpair", ("calls", "busy_s")),
        ("walk.mixing_time", ("calls", "busy_s")),
        ("bfs.exact_diameter", ("calls", "busy_s")),
        ("bfs.double_sweep", ("calls", "busy_s")),
        ("bfs.bfs_distances", ("calls", "busy_s")),
        ("bfs.eccentricities", ("calls", "busy_s")),
        ("expansion.diameter", ("calls", "self_s")),
        ("harness.greedy_route", ("calls", "busy_s")),
        ("torus.index_to_coord", ("calls", "busy_s")),
        ("torus.torus_distance", ("calls", "busy_s")),
        ("harness.cell", ("calls", "wall_s")),
        ("generate.sample_graph", ("calls", "busy_s")),
        ("harness.emit", ("busy_s",)),
    ):
        for key in fields:
            m[f"{span}.{key}"] = field(span, key)
    m["walk.second_eigenpair.residual_max"] = count("walk.second_eigenpair", "residual")
    m["walk.mixing_time.tv_evals"] = count("walk.mixing_time", "tv_evals")
    m["walk.mixing_time.start_columns"] = count("walk.mixing_time", "start_columns")
    m["walk.mixing_time.t_mix_sum"] = count("walk.mixing_time", "t_mix")
    sources = count("bfs.eccentricities", "sources")
    diameter_vertices = count("bfs.exact_diameter", "num_vertices")
    m["bfs.eccentricities.sources"] = sources
    m["bfs.eccentricities.source_fraction"] = sources / diameter_vertices if diameter_vertices else 0.0
    hops = count("harness.greedy_route", "hops")
    m["harness.greedy_route.hops"] = hops
    m["harness.greedy_route.us_per_hop"] = 1e6 * field("harness.greedy_route", "busy_s") / hops if hops else 0.0
    m["harness.cell.wait_s"] = field("harness.cell", "wall_s") - field("harness.cell", "busy_s")
    m["generate.long_range_edges"] = count("generate.sample_graph", "long_range_edges")
    for module in MODULES:
        m[f"{module}.self_s"] = sum(agg["self_s"] for name, agg in layers.items()
                                    if name.split(".")[0] == module)
    return m


def median_metrics(samples: list) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def sweep_config(workload: str, seed_base: int) -> dict:
    return dict(WORKLOADS[workload], seed_base=seed_base)


def measure(workload, seed, seconds, tracing, deadline, reference, speed_log):
    """Repeat the sweep for about `seconds`; (untraced, traced, attempted, failed).

    untraced and traced are the child results of the finished repetitions;
    a sweep that does not finish fails its cells and ends the loop.
    With tracing set, each seed base runs untraced and then traced, and the
    traced records must equal the untraced bytes.
    """
    work = OUT_DIR / workload
    untraced, traced = [], []
    attempted = failed = 0
    walls = []
    start = time.monotonic()
    for k in itertools.count():
        config = sweep_config(workload, rep_seed_base(seed, k))
        config_path = work / f"sweep{k}.cfg"
        write_config(config_path, config)
        outputs = []
        for with_trace in (False, True) if tracing else (False,):
            out = work / f"rep{k}{'-traced' if with_trace else ''}.csv"
            out.unlink(missing_ok=True)
            args = ["--config", str(config_path), "--out", str(out)]
            if with_trace:
                args += ["--spans", str(work / "spans.jsonl")]
            speed_log.sample()
            t0 = time.monotonic()
            result = run_child(args, deadline)
            walls.append(time.monotonic() - t0)
            covered = reference is not None and config["seed_base"] in reference[0]
            cells, failures = check.check_records(out, config, reference[1] if covered else None)
            finished = result is not None and result["exit_code"] == 0
            if not finished:
                failures = dict.fromkeys(check.expected_cells(config), ["sweep did not finish"])
            elif outputs and out.read_bytes() != outputs[0]:
                failures = dict.fromkeys(check.expected_cells(config), ["traced records differ from untraced"])
            for cell, errs in list(failures.items())[:5]:
                print(f"FAIL seed base {config['seed_base']} cell {cell}: {'; '.join(errs)}", file=sys.stderr)
            attempted += cells
            failed += len(failures)
            if not finished:
                return untraced, traced, attempted, failed
            print(f"seed base {config['seed_base']}{' traced' if with_trace else ''}: "
                  f"sweep_s {result['sweep_s']:.4f} cpu_s {result['cpu_s']:.4f}")
            outputs.append(out.read_bytes() if out.exists() else b"")
            (traced if with_trace else untraced).append(result)
        per_rep = statistics.median(walls) * len(outputs)
        if time.monotonic() - start + 0.5 * per_rep >= seconds or time.monotonic() + 1.5 * per_rep > deadline:
            return untraced, traced, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark swmix sweep on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED, help="seed of the sweep inputs, >= 0")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    if not (ROOT / "src" / "swmix" / "cli.py").is_file():
        print(f"no swmix sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(OUT_DIR / args.workload, ignore_errors=True)
    (OUT_DIR / args.workload).mkdir(parents=True)
    reference = check.load_reference(args.workload) if args.seed == check.DEFAULT_SEED else None

    # Warm-up: the first import in a checkout writes the bytecode caches.
    if run_child([], deadline) is None:
        print("swmix.cli does not import", file=sys.stderr)
        return 1
    speed_log = speed.SpeedLog()
    setups = []
    for _ in range(IMPORT_SAMPLES):
        speed_log.sample()
        sample = run_child([], deadline)
        if sample is None:
            return 1
        setups.append(sample["setup_s"])

    untraced, traced, attempted, failed = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), deadline, reference, speed_log)
    if not untraced or (args.trace and not traced):
        print("no repetition finished", file=sys.stderr)
        return 1
    setups += [r["setup_s"] for r in untraced + traced]

    config = sweep_config(args.workload, rep_seed_base(args.seed, 0))
    seed_bases = [rep_seed_base(args.seed, k) for k in range(len(untraced))]
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_bases": seed_bases,
        "reference_checked": sorted(reference[0] & set(seed_bases)) if reference else [],
        "config": config,
        "workers": config["workers"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **untraced[0]["versions"],
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "repetitions": {"untraced": len(untraced), "traced": len(traced), "imports": len(setups)},
        "run_s": time.monotonic() - started,
    }
    measured = median_metrics([
        {"sweep_s": r["sweep_s"], "cpu_s": r["cpu_s"], "peak_rss_mb": r["peak_rss_mb"]} for r in untraced
    ])
    measured["setup_s"] = statistics.median(setups)
    factor = speed_log.factor()
    end_to_end = {key: value if key == "peak_rss_mb" else value * factor for key, value in measured.items()}
    manifest["measured"] = measured
    manifest["speed_probe"] = {"median_s": speed_log.median(), "reference_s": speed.REFERENCE_S,
                               "samples": len(speed_log.times), "factor": factor}
    print("manifest " + json.dumps(manifest, sort_keys=True))

    samples = dict.fromkeys(end_to_end, len(untraced))
    samples["setup_s"] = len(setups)
    if args.trace:
        for r in traced:
            missing = [s for s in EXPECTED_SPANS[args.workload] if r["layers"].get(s, {}).get("calls", 0) == 0]
            if missing:
                print(f"traced run recorded no calls to {missing}; a wrapper was bypassed", file=sys.stderr)
                return 1
        values = median_metrics([layer_metrics(r["layers"]) for r in traced])
        values["trace.sweep_s"] = statistics.median(r["sweep_s"] for r in traced)
        values["trace.overhead_s"] = statistics.median(
            t["sweep_s"] - u["sweep_s"] for u, t in zip(untraced, traced))  # same seed base
        wanted = spec["per_layer"]
    else:
        values = end_to_end
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if names != set(values):
        print(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(values))}", file=sys.stderr)
        return 1

    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value:14.6g} {m['unit']:6s} median of {samples.get(m['name'], len(traced))}")
    print(f"cells attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
