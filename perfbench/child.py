"""Run one `swmix sweep` in a fresh process and print its costs as JSON.

    python3 perfbench/child.py [--config CFG --out OUT [--spans SPANS.jsonl]]

Times the import of swmix.cli (set-up), then the `swmix sweep` call through
`swmix.cli.main`, including emit.  With --spans the call runs under the span
tracer, which writes its spans to SPANS.jsonl and adds per-name totals to
the printed result.  Without --config only the import is timed.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def _blas_version(module):
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()

    start = time.perf_counter()
    import swmix.cli

    result = {"setup_s": time.perf_counter() - start}
    if args.config:
        import numpy
        import scipy

        tracer = None
        if args.spans:
            import spantrace

            tracer = spantrace.Tracer()
            spantrace.instrument(tracer)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        exit_code = swmix.cli.main(["sweep", "--config", args.config, "--out", args.out])
        sweep_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            exit_code=exit_code,
            sweep_s=sweep_s,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
            versions={
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "numpy_blas": _blas_version(numpy),
                "scipy_blas": _blas_version(scipy),
            },
        )
        if tracer is not None:
            tracer.write_jsonl(args.spans)
            result["layers"] = spantrace.summarize(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
