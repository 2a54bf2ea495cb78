"""Tests for the network faults and their scheduled repairs."""

from repro.sim import failure
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry


def _net_pair(seed=4):
    sim = Simulator()
    net = Network(sim, RngRegistry(seed))
    got = {"a": [], "b": []}
    for name in ("a", "b"):
        net.endpoint(name).on_request(
            lambda req, _n=name: got[_n].append(req.payload))
    return sim, net, got


def _at(sim, t, fault, *args):
    """Fire ``fault(*args, note)`` at ``t``; return the (time, line) log."""
    log = []
    sim.call_at(t, lambda: fault(*args, lambda text: log.append(
        (sim.now, text))))
    return log


def test_partition_and_heal_via_schedule():
    sim, net, _got = _net_pair()
    log = _at(sim, 1.0, failure.partition, net, "a", "b", 2.0)
    sim.run(until=2.0)
    assert net.is_blocked("a", "b") and net.is_blocked("b", "a")
    sim.run(until=4.0)
    assert not net.is_blocked("a", "b") and not net.is_blocked("b", "a")
    assert log == [(1.0, "partition a|b for 2.00s"), (3.0, "healed a|b")]


def test_one_way_partition_via_schedule():
    sim, net, _got = _net_pair()
    log = []
    sim.call_at(1.0, lambda: failure.partition(
        net, "a", "b", 2.0, log.append, symmetric=False))
    net.block("b", "a", symmetric=False)   # an overlapping reverse block
    sim.run(until=2.0)
    assert net.is_blocked("a", "b")
    sim.run(until=4.0)
    # The one-way heal undoes only its own direction.
    assert not net.is_blocked("a", "b")
    assert net.is_blocked("b", "a")
    assert log == ["partition a>b for 2.00s", "healed a>b"]


def test_partition_for_heals_just_that_pair():
    sim, net, _got = _net_pair()
    net.endpoint("c")
    _at(sim, 1.0, failure.partition, net, "a", "b", 2.0)
    sim.call_at(1.0, lambda: net.block("a", "c"))
    sim.run(until=2.0)
    assert net.is_blocked("a", "b") and net.is_blocked("a", "c")
    sim.run(until=4.0)
    assert not net.is_blocked("a", "b")
    assert net.is_blocked("a", "c")


def test_drop_burst_window():
    sim, net, got = _net_pair()
    log = _at(sim, 1.0, failure.drop_burst, net, "a", "b", 1.0, 1.0)
    a = net.get("a")
    sim.call_at(1.5, lambda: a.send("b", "during"))
    sim.call_at(2.5, lambda: a.send("b", "after"))
    sim.run()
    assert got["b"] == ["after"]
    assert net.messages_dropped == 1
    assert log == [(1.0, "drop-burst a~b p=1.00 for 1.00s"),
                   (2.0, "drop-burst a~b ended")]


def test_latency_spikes_compose_and_unwind():
    sim, net, got = _net_pair()
    _at(sim, 1.0, failure.latency_spike, net, 0.010, 2.0)
    _at(sim, 2.0, failure.latency_spike, net, 0.005, 2.0)
    checks = []
    for t, expect in [(1.5, 0.010), (2.5, 0.015), (3.5, 0.005),
                      (4.5, 0.0)]:
        sim.call_at(t, lambda e=expect: checks.append(
            abs(net.extra_delay - e) < 1e-12))
    sim.run()
    assert all(checks)
    a = net.get("a")
    # A message sent with no spike active arrives fast again.
    a.send("b", "calm")
    sim.run()
    assert got["b"] == ["calm"]
