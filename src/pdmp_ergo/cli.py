"""Command line entry point.

Usage: pdmp-ergo <simulate|certify|verify|inequality> --config PATH
       [--seed N] [--workers N] [--out DIR]

The worker count resolves as: --workers flag, then the PDMP_ERGO_WORKERS
environment variable, then the config file.  Exit status is zero exactly
when every assertion in the run report passed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (EXPERIMENTS, ConfigError, number_parser, parse_config,
                     with_overrides)
from .experiments import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmp-ergo",
        description="simulate and certify piecewise deterministic Markov processes",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--workers", type=int, default=None, help="override the worker count")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def _env_workers() -> int | None:
    raw = os.environ.get("PDMP_ERGO_WORKERS")
    return None if raw is None else number_parser("PDMP_ERGO_WORKERS", int, "be positive")(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the subcommand's experiment is in place before the config's
        # rules run, so a rule never sees the file's default experiment
        config = parse_config(args.config, experiment=args.experiment)
        workers = args.workers if args.workers is not None else _env_workers()
        config = with_overrides(
            config,
            seed=args.seed,
            workers=workers,
            out_dir=args.out,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(config)


if __name__ == "__main__":
    sys.exit(main())
