"""Tiny-scale smoke tests of the experiment registry and the report
renderer (the benchmark suite runs every entry at full size)."""

from repro.bench.experiments import ALL_EXPERIMENTS, ExperimentResult
from repro.bench.harness import LoadPoint
from repro.bench.report import render


def test_fig9_tiny_scale_runs_and_checks():
    result = ALL_EXPERIMENTS["fig9"](scale=0.12, seed=5, n_nodes=5)
    assert isinstance(result, ExperimentResult)
    assert set(result.series) == {"spinnaker-writes",
                                  "cassandra-quorum-writes"}
    for points in result.series.values():
        assert all(isinstance(p, LoadPoint) for p in points)
        assert all(p.ops > 0 for p in points)
    assert "mean_gap_roughly_5_to_10pct" in result.checks


def test_fig16_tiny_scale():
    result = ALL_EXPERIMENTS["fig16"](scale=0.1, seed=5, n_nodes=5)
    points = result.series["spinnaker-writes-memlog"]
    assert points[0].mean_ms < 5.0  # memory log is milliseconds
    assert result.passed


def test_table1_tiny_scale_is_linear_enough():
    result = ALL_EXPERIMENTS["table1"](scale=0.4, seed=5)
    rows = result.series["recovery"]
    assert len(rows) >= 2
    assert rows[0]["recovery_time_s"] < rows[-1]["recovery_time_s"]
    assert result.checks["subsecond_at_1s_period"]


def test_fig11_elastic_tiny_scale():
    result = ALL_EXPERIMENTS["fig11-elastic"](scale=0.05, seed=5)
    rows = result.series["elastic"]
    assert [r["phase"] for r in rows] == ["before", "during-move",
                                          "after"]
    assert rows[0]["throughput"] > 0 and rows[-1]["throughput"] > 0
    # The throughput-ratio check is gated on full scale; everything
    # else (convergence, routing, strong reads, chaos audit) must hold
    # even at smoke scale.
    assert "peak_ratio_geq_1_4" not in result.checks
    assert result.checks["converged"]
    assert result.checks["zero_failed_strong_reads"]
    assert result.checks["chaos_joiner_crash_clean"]
    assert result.checks["chaos_leader_crash_clean"]
    assert result.passed


def test_render_formats_points_and_rows():
    result = ExperimentResult("figX", "Demo")
    result.series["curve"] = [LoadPoint(
        threads=4, throughput=123.0, mean_ms=5.5, p50_ms=5.0,
        p95_ms=9.0, p99_ms=11.0, ops=100, errors=0)]
    result.series["table"] = [{"a": 1, "b": 2.5}]
    result.checks["looks_good"] = True
    text = render(result)
    assert "figX" in text and "Demo" in text
    assert "123" in text and "5.50" in text
    assert "PASS" in text and "SHAPE OK" in text


def test_render_flags_failures():
    result = ExperimentResult("figY", "Bad demo")
    result.checks["broken"] = False
    text = render(result)
    assert "FAIL" in text and "SHAPE MISMATCH" in text
    assert not result.passed
