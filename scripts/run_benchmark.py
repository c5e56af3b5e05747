#!/usr/bin/env python3
"""Run the full benchmark grid and print one markdown table per cell.

Covers both CSV datasets under data/ and all three logging modes. Pass
--quick for a 3-trial smoke version of the same grid.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from robust_ope.cli import positive_int
from robust_ope.harness import ExperimentConfig, emit_report, run_experiment

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "data"
DATASETS = ("vehicle", "optdigits")
MODES = ("uniform", "biased_known", "estimated")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="3 trials instead of 20")
    parser.add_argument("--jobs", type=positive_int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    trials = 3 if args.quick else 20
    for name in DATASETS:
        path = DATA_DIR / f"{name}.csv"
        if not path.exists():
            print(f"skipping {name}: {path} missing "
                  f"(run scripts/make_datasets.py)", file=sys.stderr)
            continue
        for mode in MODES:
            config = ExperimentConfig(dataset=str(path), logging_mode=mode,
                                      trials=trials, seed=args.seed)
            report = run_experiment(config, jobs=args.jobs)
            print(f"\n## {name} / {mode} ({trials} trials, "
                  f"mean truth {sum(report.true_values) / trials:.3f})\n")
            print(emit_report(report, fmt="markdown"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
