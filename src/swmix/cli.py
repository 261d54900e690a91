"""Command line for sampling graphs and running seeded experiments.

Single-cell experiments (one n, one r) have their own subcommands; full
(n, r) grids run through ``sweep --config``.  Output format follows the
file extension: ``.json`` emits JSON, anything else CSV.

Exit codes: 0 success, 2 usage or argument error, 3 a documented capacity
cap was exceeded, 4 I/O error, 5 an iterative solver (the mixing search or
the eigen solve) hit its iteration cap.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _cell_parser(sub, name: str, experiment: str, summary: str) -> argparse.ArgumentParser:
    # An omitted flag stays out of the namespace, so SweepConfig supplies its default;
    # only --seeds has one here, since num_seeds has no usable default.
    parser = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    parser.set_defaults(experiment=experiment)
    parser.add_argument("--n", type=int, required=True, help="torus parameter (N = (2n+1)^2 vertices)")
    parser.add_argument("--r", type=float, required=True, help="long-range distance exponent")
    parser.add_argument("--seeds", type=int, default=10, dest="num_seeds", metavar="SEEDS",
                        help="number of derived replicate seeds")
    parser.add_argument("--seed-base", type=int, help="base for per-replicate seed derivation")
    parser.add_argument("--workers", type=int, help="thread budget (default: cpu count, max 8)")
    parser.add_argument("--out", required=True, dest="output", metavar="OUT",
                        help="output file (.json for JSON, else CSV)")
    return parser


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

    mix = _cell_parser(sub, "mix", "mix", "mixing time, spectral gap, and diameter per seed")
    mix.add_argument("--starts", choices=("auto", "all", "heuristic"), help="mixing start policy")

    con = _cell_parser(sub, "conductance", "conductance", "ball-cut conductance report per seed")
    con.add_argument("--ball-frac", type=float, help="ball radius fraction of n")
    con.add_argument("--no-sweep-min", action="store_false", dest="include_sweep_min",
                     help="skip the spectral sweep-cut minimum column")

    wq = _cell_parser(sub, "wq", "wq", "connected box-set counts per seed")
    wq.add_argument("--ell", type=int, dest="box_side", metavar="ELL",
                    help="nominal box side of the partition")
    wq.add_argument("--qmax", type=int, dest="q_max", metavar="QMAX", help="largest box-set size counted")

    route = _cell_parser(sub, "route", "routing", "greedy routing hop statistics per seed")
    route.add_argument("--pairs", type=int, help="random source/target pairs per seed")

    swp = sub.add_parser("sweep", help="run a full (n, r) grid described by a config file")
    swp.add_argument("--config", required=True, help="flat key = value config file")
    swp.add_argument("--out", default=None, help="override the config output path")
    return parser


def _config_from_args(args: argparse.Namespace) -> harness.SweepConfig:
    # every flag of a cell subcommand but --n and --r is stored under its SweepConfig field name
    fields = {f.name for f in dataclasses.fields(harness.SweepConfig)}
    kwargs = {k: v for k, v in vars(args).items() if k in fields}
    return harness.SweepConfig(n_values=(args.n,), r_values=(args.r,), **kwargs)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        graph = sample_graph(ModelParams(n=args.n, r=args.r, seed=args.seed))
        save_graph(graph, args.out)
        print(
            f"wrote {args.out}: N={graph.num_vertices}, |E|={graph.edge_count}, "
            f"long-range={len(graph.long_range_edges)}"
        )
        return EXIT_OK
    if args.command == "sweep":
        cfg = harness.load_sweep_config(args.config)
        out = args.out or cfg.output
        if not out:
            raise ValueError("no output path: set 'output' in the config or pass --out")
    else:
        cfg = _config_from_args(args)
        out = cfg.output
    records = harness.run_sweep(cfg)
    fmt = "json" if str(out).endswith(".json") else "csv"
    harness.emit(records, fmt, out, cfg)
    print(f"wrote {len(records)} records to {out}")
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
