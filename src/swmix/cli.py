"""Command line for sampling graphs and running seeded experiments.

``generate`` samples one graph and writes it to a text file; ``sweep`` runs
the (n, r) grid that a config file describes and writes its records to the
path given by ``--out``, in JSON if it ends in ``.json`` and CSV otherwise
(:func:`swmix.harness.emit`).  The config keys and their defaults are those
of :func:`swmix.harness.load_sweep_config`; a one-cell experiment is a
config with one n and one r.

Exit codes: 0 success, 2 usage or argument error, 3 a documented capacity
cap was exceeded, 4 I/O error, 5 an iterative solver (the mixing search or
the eigen solve) hit its iteration cap.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from ._version import __version__
from .errors import CapacityError, ConvergenceError
from .generate import ModelParams, sample_graph, save_graph

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_IO = 4
EXIT_CONVERGENCE = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swmix",
        description="Small-world torus graphs: sampling, mixing, conductance, routing experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample one graph and save it to a text file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--r", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    swp = sub.add_parser("sweep", help="run an (n, r) grid described by a config file")
    swp.add_argument("--config", required=True, help="flat key = value config file")
    swp.add_argument("--out", required=True, help="records file: JSON if it ends in .json, CSV otherwise")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        graph = sample_graph(ModelParams(n=args.n, r=args.r, seed=args.seed))
        save_graph(graph, args.out)
        print(
            f"wrote {args.out}: N={graph.num_vertices}, |E|={graph.edge_count}, "
            f"long-range={len(graph.long_range_edges)}"
        )
        return EXIT_OK
    cfg = harness.load_sweep_config(args.config)
    records = harness.run_sweep(cfg)
    harness.emit(records, args.out, cfg)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CapacityError as exc:
        print(f"swmix: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConvergenceError as exc:
        print(f"swmix: convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"swmix: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"swmix: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
