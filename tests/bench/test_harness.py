"""Tests for the benchmark harness and workload definitions."""

import pytest

from repro.bench.harness import (CassandraTarget, LoadPoint,
                                 SpinnakerTarget, curves, run_load,
                                 scaled_ladder, traced_point)
from repro.bench.workload import (Workload, conditional_put_workload,
                                  mixed_workload, read_workload,
                                  write_workload)
from repro.core.datamodel import DatastoreError
from repro.core.partition import key_of


def test_workload_validation():
    with pytest.raises(ValueError):
        Workload(name="bad", write_fraction=1.5).validate()
    with pytest.raises(ValueError):
        Workload(name="bad", value_size=-1).validate()


def test_workload_constructors():
    r = read_workload("strong")
    assert r.write_fraction == 0.0 and r.preload_rows > 0
    w = write_workload()
    assert w.write_fraction == 1.0 and w.preload_rows == 0
    m = mixed_workload(0.3, "timeline")
    assert m.write_fraction == 0.3
    c = conditional_put_workload()
    assert c.write_mode == "conditional"


def test_run_load_produces_sane_point_spinnaker():
    target = SpinnakerTarget(n_nodes=5, seed=3)
    point = run_load(target, write_workload(), threads=4,
                     ops_per_thread=10, warmup_ops=2)
    assert isinstance(point, LoadPoint)
    assert point.ops == 4 * 10
    assert point.errors == 0
    assert point.throughput > 0
    assert 0 < point.mean_ms < 1000
    assert point.p50_ms <= point.p95_ms <= point.p99_ms


def test_run_load_produces_sane_point_cassandra():
    target = CassandraTarget(n_nodes=5, seed=3)
    point = run_load(target, write_workload("weak"), threads=4,
                     ops_per_thread=10, warmup_ops=2)
    assert point.ops == 40
    assert point.errors == 0


def test_preload_makes_reads_hit():
    target = SpinnakerTarget(n_nodes=5, seed=3)
    point = run_load(target, read_workload("strong", preload_rows=50),
                     threads=2, ops_per_thread=15, warmup_ops=2)
    assert point.ops == 30
    assert point.errors == 0
    # Every read found a value: latency then reflects real service time.
    assert point.mean_ms > 1.0


def test_preload_seeds_all_replicas():
    target = SpinnakerTarget(n_nodes=5, seed=3)
    keys = [b"row-%06d" % i for i in range(20)]
    target.preload(keys, value_size=64)
    target.start()
    part = target.cluster.partitioner
    for key in keys:
        cohort = part.cohort_for_key(key_of(key))
        for member in cohort.members:
            replica = target.cluster.nodes[member].replicas[
                cohort.cohort_id]
            cell = replica.engine.get(key, b"v")
            assert cell is not None, (key, member)
            assert cell.version == 1


def test_conditional_workload_runs_clean():
    target = SpinnakerTarget(n_nodes=5, seed=3)
    point = run_load(target, conditional_put_workload(), threads=3,
                     ops_per_thread=12, warmup_ops=2)
    assert point.errors == 0
    assert point.version_conflicts == 0  # thread-private keys: no races
    assert point.ops == 36


def test_mixed_workload_latency_between_pure_modes():
    reads = run_load(SpinnakerTarget(5, seed=3),
                     read_workload("strong", preload_rows=100),
                     threads=2, ops_per_thread=20, warmup_ops=3)
    writes = run_load(SpinnakerTarget(5, seed=3), write_workload(),
                      threads=2, ops_per_thread=20, warmup_ops=3)
    mixed = run_load(SpinnakerTarget(5, seed=3),
                     mixed_workload(0.5, "strong"),
                     threads=2, ops_per_thread=20, warmup_ops=3)
    assert reads.mean_ms < mixed.mean_ms < writes.mean_ms


def test_run_load_reraises_the_error_that_killed_a_thread():
    """Regression: an error run_load does not count (anything but a
    timeout or a version conflict) used to kill the thread silently; the
    run then spun to its 36,000 s limit and blamed a timeout."""
    class BrokenTarget(SpinnakerTarget):
        def make_thread(self, *args):
            def op():
                raise DatastoreError("no such table")
                yield
            return op, op

    with pytest.raises(DatastoreError, match="no such table"):
        run_load(BrokenTarget(n_nodes=3, seed=3), write_workload(),
                 threads=2, ops_per_thread=3, warmup_ops=0)


def test_curves_sweeps_every_arm_over_the_same_ladder():
    ladder = scaled_ladder([4, 8, 40, 80], 0.05)
    assert ladder == [2, 4]     # floored at 2; collapsed rungs dropped
    series = curves(
        {"spinnaker": (lambda: SpinnakerTarget(3, seed=3),
                       write_workload()),
         "cassandra": (lambda: CassandraTarget(3, seed=3),
                       write_workload("quorum"))},
        ladder, ops_per_thread=5, warmup_ops=1)
    assert list(series) == ["spinnaker", "cassandra"]
    for points in series.values():
        assert [p.threads for p in points] == ladder
        assert all(p.ops == p.threads * 5 for p in points)


def test_traced_point_traces_every_request():
    from repro.obs import phase_summary
    point, tracer = traced_point(write_workload(), threads=2,
                                 ops_per_thread=5, warmup_ops=1,
                                 n_nodes=3, seed=3)
    assert point.ops == 10
    assert tracer.skipped == 0
    assert phase_summary(tracer)["write"]["count"] >= point.ops
