"""Regenerate the stored reference records in perfbench/reference/.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  For each workload, sweeps the seed
bases of the first REFERENCE_REPS repetitions of a run with the default
seed, and stores their records under one header.  Regenerate only when a
change is meant to move the records, and say which columns moved and why.
"""

from __future__ import annotations

import time

import check
import run

REFERENCE_REPS = 12


def main() -> None:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        work = run.OUT_DIR / "reference" / workload
        work.mkdir(parents=True, exist_ok=True)
        header, rows, bases = None, [], []
        for k in range(REFERENCE_REPS):
            base = run.rep_seed_base(check.DEFAULT_SEED, k)
            config = run.sweep_config(workload, base)
            config_path, out = work / f"sweep{k}.cfg", work / f"rep{k}.csv"
            run.write_config(config_path, config)
            result = run.run_child(["--config", str(config_path), "--out", str(out)], time.monotonic() + 600)
            if result is None or result["exit_code"] != 0:
                raise SystemExit(f"{workload}: sweep at seed base {base} failed")
            _, failures = check.check_records(out, config)
            if failures:
                raise SystemExit(f"{workload}: seed base {base} fails the invariants: {failures}")
            lines = out.read_text(encoding="utf-8").splitlines()
            header = header or lines[0]
            if lines[0] != header:
                raise SystemExit(f"{workload}: column set changed between seed bases")
            rows += lines[1:-1]
            bases.append(str(base))
        text = "\n".join([header, *rows, "# manifest seed_bases=" + ",".join(bases)]) + "\n"
        (check.REFERENCE_DIR / f"{workload}.csv").write_text(text, encoding="utf-8")
        print(f"{workload}: {len(rows)} records at seed bases {bases[0]}..{bases[-1]}")


if __name__ == "__main__":
    main()
