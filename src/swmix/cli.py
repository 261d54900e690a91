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


def _add_cell_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="torus parameter (N = (2n+1)^2 vertices)")
    parser.add_argument("--r", type=float, required=True, help="long-range distance exponent")
    parser.add_argument("--seeds", type=int, default=10, help="number of derived replicate seeds")
    parser.add_argument("--seed-base", type=int, default=0, help="base for per-replicate seed derivation")
    parser.add_argument("--workers", type=int, default=None, help="thread budget (default: cpu count, max 8)")
    parser.add_argument("--out", required=True, help="output file (.json for JSON, else CSV)")


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

    mix = sub.add_parser("mix", help="mixing time, spectral gap, and diameter per seed")
    _add_cell_args(mix)
    mix.add_argument("--starts", choices=("auto", "all", "heuristic"), default="auto",
                     help="mixing start policy")

    con = sub.add_parser("conductance", help="ball-cut conductance report per seed")
    _add_cell_args(con)
    con.add_argument("--ball-frac", type=float, default=0.9, help="ball radius fraction of n")
    con.add_argument("--no-sweep-min", action="store_true",
                     help="skip the spectral sweep-cut minimum column")

    wq = sub.add_parser("wq", help="connected box-set counts per seed")
    _add_cell_args(wq)
    wq.add_argument("--ell", type=int, default=2, help="nominal box side of the partition")
    wq.add_argument("--qmax", type=int, default=3, help="largest box-set size counted")

    route = sub.add_parser("route", help="greedy routing hop statistics per seed")
    _add_cell_args(route)
    route.add_argument("--pairs", type=int, default=100, help="random source/target pairs per seed")

    swp = sub.add_parser("sweep", help="run a full (n, r) grid described by a config file")
    swp.add_argument("--config", required=True, help="flat key = value config file")
    swp.add_argument("--out", default=None, help="override the config output path")
    return parser


def _config_from_args(args: argparse.Namespace) -> harness.SweepConfig:
    experiment = {"mix": "mix", "conductance": "conductance", "wq": "wq", "route": "routing"}[args.command]
    kwargs = dict(
        experiment=experiment,
        n_values=(args.n,),
        r_values=(args.r,),
        num_seeds=args.seeds,
        seed_base=args.seed_base,
        workers=args.workers,
        output=args.out,
    )
    if experiment == "mix":
        kwargs["starts"] = args.starts
    elif experiment == "conductance":
        kwargs["ball_frac"] = args.ball_frac
        kwargs["include_sweep_min"] = not args.no_sweep_min
    elif experiment == "wq":
        kwargs["box_side"] = args.ell
        kwargs["q_max"] = args.qmax
    elif experiment == "routing":
        kwargs["pairs"] = args.pairs
    return harness.SweepConfig(**kwargs)


def _emit(records, out, cfg) -> None:
    fmt = "json" if str(out).endswith(".json") else "csv"
    harness.emit(records, fmt, out, cfg)
    print(f"wrote {len(records)} records to {out}")


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
        _emit(harness.run_sweep(cfg), out, cfg)
        return EXIT_OK
    cfg = _config_from_args(args)
    _emit(harness.run_sweep(cfg), args.out, cfg)
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
