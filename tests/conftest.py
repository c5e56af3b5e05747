"""Shared fixtures: repository paths and benchmark CSV materialization."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "data"

# the CLI tests run `python -m robust_ope.cli` in a subprocess; it imports the
# same `src` that the `pythonpath` setting in pyproject.toml puts on sys.path
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    """Ensure the benchmark CSVs exist, regenerating them if needed."""
    needed = [DATA_DIR / "vehicle.csv", DATA_DIR / "optdigits.csv"]
    if not all(p.exists() for p in needed):
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "make_datasets.py")],
            check=True)
    for p in needed:
        if not p.exists():
            pytest.skip(f"could not materialize {p.name}")
    return DATA_DIR
