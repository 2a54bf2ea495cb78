"""Tests for metrics collection and deterministic RNG streams."""

import math

from repro.sim.metrics import Histogram, LatencyRecorder, summarize
from repro.sim.rng import RngRegistry


def test_histogram_basic_stats():
    hist = Histogram()
    for x in [1.0, 2.0, 3.0, 4.0]:
        hist.add(x)
    assert hist.mean() == 2.5
    assert hist.min() == 1.0
    assert hist.max() == 4.0
    assert hist.percentile(50) == 2.5
    assert hist.percentile(0) == 1.0
    assert hist.percentile(100) == 4.0


def test_histogram_empty_is_nan():
    hist = Histogram()
    assert math.isnan(hist.mean())
    assert math.isnan(hist.percentile(50))


def test_recorder_warmup_exclusion():
    rec = LatencyRecorder(warmup=10.0)
    rec.record("read", 0.001, completed_at=5.0)   # dropped
    rec.record("read", 0.002, completed_at=15.0)  # kept
    assert rec.count("read") == 1
    assert rec.dropped_warmup == 1
    assert rec.histogram("read").mean() == 0.002


def test_recorder_throughput_over_window():
    rec = LatencyRecorder()
    for i in range(11):
        rec.record("op", 0.001, completed_at=float(i))
    assert rec.throughput() == 11 / 10.0


def test_summarize_shapes():
    rec = LatencyRecorder()
    rec.record("read", 0.002, completed_at=1.0)
    out = summarize(rec)
    assert out["read"]["count"] == 1
    assert out["read"]["mean_ms"] == 2.0


def test_rng_streams_are_deterministic():
    a = RngRegistry(42).stream("network")
    b = RngRegistry(42).stream("network")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_are_independent_by_name():
    reg = RngRegistry(42)
    net = reg.stream("network")
    first_disk_draw = reg.stream("disk").random()
    # Drawing from "network" must not change "disk"'s sequence.
    reg2 = RngRegistry(42)
    reg2.stream("network").random()
    assert reg2.stream("disk").random() == first_disk_draw


def test_rng_same_stream_object_returned():
    reg = RngRegistry(1)
    assert reg.stream("x") is reg.stream("x")


def test_rng_fork_changes_streams():
    reg = RngRegistry(1)
    forked = reg.fork("replica")
    assert reg.stream("x").random() != forked.stream("x").random()


def test_rng_fork_salt_does_not_collide_with_stream_names():
    # fork("x") must not derive the same seed as a stream literally
    # named "fork:x" — the digest inputs are namespaced differently.
    reg = RngRegistry(7)
    forked_seed = reg.fork("x").seed
    stream_draw = RngRegistry(7).stream("fork:x").random()
    import random as _random  # lint: allow(nondet-import) — seeded below
    assert _random.Random(forked_seed).random() != stream_draw


def test_rng_fork_is_deterministic():
    assert RngRegistry(3).fork("a").seed == RngRegistry(3).fork("a").seed
    assert RngRegistry(3).fork("a").seed != RngRegistry(3).fork("b").seed
