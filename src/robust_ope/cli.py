"""Command-line entry point for the experiment harness.

Exit codes: 0 success, 1 config error, 2 runtime/training fault (including
a report that cannot be written) or usage error (argparse).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import estimators, harness
from .harness import ConfigError, emit_report, parse_config, run_experiment
from .nets import TrainingFault


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-ope",
        description="Off-policy evaluation benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None,
                     help="output path (default: stdout)")
    run.add_argument("--format", choices=("csv", "markdown"), default="csv")
    run.add_argument("--jobs", type=positive_int, default=1)
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's master seed")

    val = sub.add_parser("validate-config", help="parse and echo a config")
    val.add_argument("--config", required=True)

    sub.add_parser("list-estimators", help="list available estimator kinds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-estimators":
        for kind in estimators.ESTIMATOR_KINDS:
            print(kind)
        return 0

    try:
        config = parse_config(args.config)
        if args.command == "run" and args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate-config":
        for key, value in dataclasses.asdict(config).items():
            print(f"{key} = {value}")
        return 0

    # the run is this process's own, so its BLAS may leave the CPUs to the
    # fit helpers and pool workers it forks, which inherit the one thread
    harness._one_blas_thread()
    try:
        report = run_experiment(config, jobs=args.jobs)
        text = emit_report(report, fmt=args.format)
    except TrainingFault as exc:
        print(f"training fault: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # report on stderr, write no report, exit 2
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"runtime fault: cannot write report: {exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
