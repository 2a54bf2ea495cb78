"""Open-loop load generation: arrival processes, user multiplexing,
and the determinism guarantees the scale experiments lean on."""

import math

import pytest

from repro.bench.harness import SpinnakerTarget
from repro.bench.openloop import MuxedUsers, PoissonArrivals, run_open_load
from repro.bench.workload import mixed_workload
from repro.core import SpinnakerConfig
from repro.sim.disk import DiskProfile
from repro.sim.rng import RngRegistry


def _gaps(arrival, seed, n=200):
    rng = RngRegistry(seed).stream("arrivals")
    return [arrival.next_gap(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

def test_arrival_sequences_deterministic_per_seed():
    arrivals = PoissonArrivals(50.0)
    assert _gaps(arrivals, seed=7) == _gaps(arrivals, seed=7)
    assert _gaps(arrivals, seed=7) != _gaps(arrivals, seed=8)


def test_poisson_interarrival_mean_within_tolerance():
    rate = 200.0
    gaps = _gaps(PoissonArrivals(rate), seed=3, n=20_000)
    mean = sum(gaps) / len(gaps)
    assert abs(mean - 1.0 / rate) < 0.05 / rate  # within 5%


def test_arrival_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)


# ---------------------------------------------------------------------------
# Multiplexed users
# ---------------------------------------------------------------------------

def test_muxed_user_state_is_bounded():
    """Per-user state is a flat 8 bytes regardless of operation count."""
    users = MuxedUsers(10_000, shards=8)
    before = users.state_bytes()
    assert before == 8 * 10_000
    rng = RngRegistry(1).stream("pick")
    for _ in range(50_000):
        uid = users.pick(3, rng)
        users.complete(uid)
    assert users.state_bytes() == before  # ops never grow the state
    assert sum(users.completed) == 50_000


def test_muxed_shards_partition_the_population():
    users = MuxedUsers(1000, shards=7)
    seen = []
    for s in range(7):
        bounds = users.shard_bounds(s)
        assert len(bounds) > 0
        seen.extend(bounds)
    assert seen == list(range(1000))  # disjoint, complete, ordered
    rng = RngRegistry(2).stream("pick")
    for _ in range(200):
        uid = users.pick(2, rng)
        assert uid in users.shard_bounds(2)


def test_muxed_users_validation():
    with pytest.raises(ValueError):
        MuxedUsers(0, shards=1)
    with pytest.raises(ValueError):
        MuxedUsers(4, shards=8)


# ---------------------------------------------------------------------------
# run_open_load end to end
# ---------------------------------------------------------------------------

def _small_open_run(seed=1, request_tracer=None):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log())
    target = SpinnakerTarget(5, config=cfg, seed=seed,
                             request_tracer=request_tracer)
    point = run_open_load(
        target, mixed_workload(0.2, "strong"), n_users=512,
        rate=100.0, duration=2.0, warmup=0.5, shards=4, seed=seed)
    return target, point


def test_open_load_reports_throughput_and_latency():
    _, point = _small_open_run()
    assert point.ops > 100
    assert point.errors == 0
    assert point.shed == 0
    # open loop at a fixed offered rate: completions track arrivals
    assert math.isclose(point.throughput, point.observed_offered,
                        rel_tol=0.15)
    assert 0.0 < point.p50_ms <= point.p95_ms <= point.p99_ms
    assert 0 < point.active_users <= point.n_users
    assert point.user_state_bytes == 8 * 512


def test_open_load_deterministic_per_seed():
    _, a = _small_open_run(seed=9)
    _, b = _small_open_run(seed=9)
    _, c = _small_open_run(seed=10)
    assert (a.ops, a.throughput, a.p99_ms) == (b.ops, b.throughput,
                                               b.p99_ms)
    assert (a.ops, a.p99_ms) != (c.ops, c.p99_ms)


def test_open_load_sim_time_identical_with_tracing_on():
    """Request tracing must not perturb the open loop: bit-identical
    simulated time and operation counts with the tracer on and off."""
    from repro.obs import RequestTracer
    target_off, off = _small_open_run(seed=4)
    target_on, on = _small_open_run(
        seed=4, request_tracer=RequestTracer(sample_every=1))
    assert target_on.sim.now == target_off.sim.now
    assert (on.ops, on.errors, on.shed) == (off.ops, off.errors, off.shed)
    assert on.throughput == off.throughput
    assert on.p99_ms == off.p99_ms


def test_open_load_sheds_at_the_inflight_cap():
    """Overload the cluster with a tiny in-flight cap: the generator
    must shed (bounded queue) rather than buffer arrivals forever."""
    cfg = SpinnakerConfig(log_profile=DiskProfile.sata_log())
    target = SpinnakerTarget(3, config=cfg, seed=2)
    point = run_open_load(
        target, mixed_workload(0.5, "strong"), n_users=64,
        rate=4000.0, duration=1.0, warmup=0.2, shards=2,
        max_inflight_per_shard=4, seed=2)
    assert point.shed > 0
    assert point.throughput < point.observed_offered
