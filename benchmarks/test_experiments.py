"""The figure/table regeneration benchmarks: one case per registry row.

Each case regenerates one experiment of
:data:`repro.bench.experiments.ALL_EXPERIMENTS`, prints the rows/series
the paper reports, and asserts its *shape checks* (see DESIGN.md's
experiment index — who wins, by roughly what factor).  The parameter id
is the experiment id, so ``pytest benchmarks -k fig9`` runs one figure.
Set ``REPRO_BENCH_SCALE`` (default 0.3) to trade wall time for fidelity;
EXPERIMENTS.md records a scale-1.0 run.
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.report import render, summarize

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
REPORT = Path(__file__).resolve().parent.parent / "BENCH_report.json"


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_experiment(benchmark, exp_id):
    experiment = ALL_EXPERIMENTS[exp_id]
    scale = max(SCALE, experiment.smoke_floor)
    result = benchmark.pedantic(
        lambda: experiment(scale=scale), rounds=1, iterations=1)
    print()
    print(render(result))
    assert result.passed, render(result)


@pytest.mark.parametrize("exp_id", ["fig14", "table1", "ablation-parallel"])
def test_checked_in_report_is_reproducible(exp_id):
    """Entries of BENCH_report.json regenerate to themselves (~8 s in
    all): the report is a pure function of the tree.  ``table1`` and
    ``ablation-parallel`` run the two ``already_logged`` callers of the
    leader write pipeline (takeover re-proposal, the serialized
    ablation), so their event order is pinned here."""
    report = json.loads(REPORT.read_text())
    if report["scale"] != 1.0:
        pytest.skip(f"BENCH_report.json is at scale {report['scale']}")
    fresh = summarize(ALL_EXPERIMENTS[exp_id](scale=1.0))
    assert fresh == report["experiments"][exp_id]
