"""Command-line experiment runner.

Subcommands:
  train-adam  --config C --out DIR [--seed N] [--replicates N]
  retrofit    --config C --from-run ADAM_DIR --out DIR [--seed N] [--replicates N]
  simmer      --config C --out DIR [--seed N] [--replicates N]
  evaluate    --from-run RUN_DIR --out DIR [--grid-resolution N] [--at "x1,x2"]...
  spectrum    --from-run RUN_DIR --out DIR

Exit code 0 on success.  On failure, one machine-parsable JSON line goes
to stderr: {"error": "<exception type>", "message": "<detail>"} and the
exit code is 1 (argparse usage errors keep their conventional code 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# one BLAS thread per process: the stages fork one worker per core, and a
# BLAS pool in every worker would oversubscribe the cores.  Set before the
# first import that loads numpy; a value the user exported still wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from . import runner
from .config import ConfigError, ExperimentConfig, from_dict, load_config, to_dict
from .net import NonFiniteError


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """``cfg`` with the flags' seed and replicates, checked as a config file's are."""
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.replicates is not None:
        updates["replicates"] = args.replicates
    return from_dict({**to_dict(cfg), **updates}) if updates else cfg


def _parse_point(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--at expects comma-separated numbers, got {text!r}")


def _add_config_flags(sub, with_from_run: bool):
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--out", required=True, help="run directory to create (must be empty)")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument(
        "--replicates", type=int, default=None, help="override the config replicate count"
    )
    if with_from_run:
        sub.add_argument("--from-run", required=True, help="finished adam run directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simmering",
        description="Finite-temperature neural network training experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_flags(sub.add_parser("train-adam", help="train the Adam baseline"), False)
    _add_config_flags(
        sub.add_parser("retrofit", help="simmer from an Adam run's endpoint"), True
    )
    _add_config_flags(
        sub.add_parser("simmer", help="ab initio constant-temperature run"), False
    )

    ev = sub.add_parser("evaluate", help="turn a finished run into CSV artifacts")
    ev.add_argument("--from-run", required=True, help="finished simmer/retrofit run directory")
    ev.add_argument("--out", required=True, help="output directory (must be empty)")
    ev.add_argument("--grid-resolution", type=int, default=100)
    ev.add_argument(
        "--at",
        action="append",
        default=None,
        metavar="X1[,X2,...]",
        help="input point for a prediction distribution (repeatable)",
    )

    sp = sub.add_parser("spectrum", help="Hessian eigenvalue spectrum at a run endpoint")
    sp.add_argument("--from-run", required=True, help="finished run directory")
    sp.add_argument("--out", required=True, help="output directory (must be empty)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("train-adam", "retrofit", "simmer"):
            cfg = _apply_overrides(load_config(args.config), args)
            if args.command == "train-adam":
                out = runner.run_train_adam(cfg, args.out)
            elif args.command == "retrofit":
                out = runner.run_retrofit(cfg, args.from_run, args.out)
            else:
                out = runner.run_simmer(cfg, args.out)
        elif args.command == "evaluate":
            points = [_parse_point(p) for p in args.at] if args.at else None
            out = runner.run_evaluate(
                args.from_run, args.out, grid_resolution=args.grid_resolution, at_points=points
            )
        else:
            out = runner.run_spectrum(args.from_run, args.out)
    except (ConfigError, NonFiniteError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
