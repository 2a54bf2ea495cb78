"""Fixtures shared by the lint tests."""

from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint

REPRO_ROOT = Path(repro.__file__).resolve().parent
BASELINE = Path(__file__).resolve().parents[2] / "lint-baseline.json"


@pytest.fixture(scope="session")
def tree_lint():
    """One lint of ``src/repro`` — every rule, the checked-in baseline —
    for every test that reads the real tree (each ran its own, ~5 s)."""
    return run_lint(REPRO_ROOT,
                    baseline_path=BASELINE if BASELINE.exists() else None)
