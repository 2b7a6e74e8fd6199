"""Command-line interface.

    leojadce run --config cfg.txt --sweep snr=0,10,20,30 --out results/ [--workers W]
    leojadce validate --config cfg.txt

The config file and the sweep define the whole run: its trial count, master
seed and algorithms are config keys, and no option overrides them. VBI's
per-iteration trace goes to trace_<axis>_<value>.csv for every swept value
whose trials ran VBI.

Exit codes: 0 success, 1 usage or configuration error (a --workers below 1
among them) or an --out that cannot be a directory, 2 a trial failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import SWEEP_AXES, ConfigError, apply_axis, load_config, parse_sweep
from .harness import run_sweep, write_outputs


class _Parser(argparse.ArgumentParser):
    """Rejects an unknown option with the usage of the command it follows,
    which lists the options that command has."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leojadce",
                     description="Tensor-Bayesian grant-free access experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a Monte-Carlo sweep")
    run_p.add_argument("--config", required=True, help="scenario config file")
    run_p.add_argument("--sweep", required=True,
                       help=f"axis=v1,v2,... (axes: {','.join(SWEEP_AXES)})")
    run_p.add_argument("--out", required=True, help="output directory for CSV files")
    run_p.add_argument("--workers", type=int, default=1, help="parallel trial workers")

    val_p = sub.add_parser("validate", help="check a config file and exit")
    val_p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a failed trial here
        return 1 if exc.code else 0
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"config OK: K={cfg.K} M={cfg.M} L={cfg.L} dims={cfg.dims} "
              f"p_a={cfg.p_a} snr_db={cfg.snr_db} trials={cfg.trials}")
        return 0

    try:
        sweep = parse_sweep(args.sweep)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        # validate every axis value against the base config up front
        for value in sweep.values:
            apply_axis(cfg, sweep.axis, value)
        # an --out that cannot be a directory fails before the first trial
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    records, traces = run_sweep(cfg, sweep, workers=args.workers)
    write_outputs(args.out, sweep, records, traces)
    n_failed = sum(1 for r in records if r.failed)
    print(f"wrote {len(records)} trial records to {args.out} "
          f"({n_failed} failed)")
    return 2 if n_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
