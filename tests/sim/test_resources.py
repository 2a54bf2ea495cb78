"""Tests for Resource (CPU model) and Store (queues)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import SimulationError, Simulator
from repro.sim.resources import Resource, Store, charge, serve
from repro.sim.process import Supervisor, spawn, timeout


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    res.release()
    assert r3.triggered


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    waiters = [res.request() for _ in range(3)]
    res.release()
    assert waiters[0].triggered and not waiters[1].triggered
    res.release()
    assert waiters[1].triggered and not waiters[2].triggered


def test_release_without_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_serve_charges_service_time_and_queues():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    done = []

    def job(name):
        yield from serve(cpu, 1.0)
        done.append((name, sim.now))

    spawn(sim, job("a"))
    spawn(sim, job("b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_serve_parallel_with_multiple_cores():
    sim = Simulator()
    cpu = Resource(sim, capacity=4)
    done = []

    def job(name):
        yield from serve(cpu, 1.0)
        done.append((name, sim.now))

    for i in range(4):
        spawn(sim, job(i))
    sim.run()
    assert [t for _, t in done] == [1.0] * 4


def test_serve_releases_even_if_interrupted():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)

    def job():
        yield from serve(cpu, 10.0)

    proc = spawn(sim, job())
    sim.schedule(1.0, lambda: proc.interrupt())
    sim.run()
    assert not proc.ok  # unhandled interrupt
    assert cpu.in_use == 0  # but the core was released


def test_a_killed_waiter_does_not_leak_the_unit():
    """One holder, one queued waiter, and the owner dies: the holder's
    release used to hand the unit to the dead waiter's request, which
    nobody gave back — ``in_use`` stayed 1 with no process alive."""
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    owner = Supervisor(sim, "node")

    def job():
        yield from serve(cpu, 1.0)

    owner.spawn(job(), "holder")
    owner.spawn(job(), "waiter")
    sim.run(until=0.5)
    assert (cpu.in_use, cpu.queue_length) == (1, 1)
    owner.kill_all()
    sim.run()
    assert not owner.failures
    assert (cpu.in_use, cpu.queue_length) == (0, 0)
    done = []
    charge(cpu, 1.0, done.append, "next")      # and the unit is usable
    sim.run()
    assert done == ["next"] and cpu.in_use == 0


def test_a_waiter_killed_alone_leaves_the_queue():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    done = []

    def job(name):
        yield from serve(cpu, 1.0)
        done.append((name, sim.now))

    spawn(sim, job("a"))
    victim = spawn(sim, job("b"))
    spawn(sim, job("c"))
    sim.schedule(0.5, victim.interrupt)
    sim.run()
    assert done == [("a", 1.0), ("c", 2.0)]     # c did not wait behind b
    assert (cpu.in_use, cpu.queue_length) == (0, 0)


# -- charge: serve for a plain function -------------------------------------

def test_charge_holds_then_continues_and_queues_fifo():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    done = []
    charge(cpu, 1.0, lambda *a: done.append((a, sim.now, cpu.in_use)), "a")
    charge(cpu, 0.5, lambda *a: done.append((a, sim.now, cpu.in_use)), "b", 2)
    assert (cpu.in_use, cpu.queue_length) == (1, 1)
    sim.run()
    # released — and b granted, holding — before a's continuation ran
    assert done == [(("a",), 1.0, 1), (("b", 2), 1.5, 0)]


def test_charge_and_serve_share_one_fifo_queue():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    done = []

    def job(name):
        yield from serve(cpu, 1.0)
        done.append(name)

    charge(cpu, 1.0, done.append, "f1")
    spawn(sim, job("p1"))
    sim.run(until=0.1)
    charge(cpu, 1.0, done.append, "f2")
    spawn(sim, job("p2"))
    sim.run()
    assert done == ["f1", "p1", "f2", "p2"]
    assert sim.now == 4.0 and cpu.in_use == 0


def test_charge_rejects_negative_service_time():
    sim = Simulator()
    with pytest.raises(SimulationError):
        charge(Resource(sim), -1.0, lambda: None)


def _observed(sim, cpu, log, who):
    """What a job sees the moment it resumes after its hold."""
    log.append((who, sim.now, sim._seq, cpu.in_use, cpu.queue_length,
                sorted(entry[:3] for entry in sim._heap)))


@given(capacity=st.integers(min_value=1, max_value=3),
       jobs=st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                               st.integers(min_value=0, max_value=4)),
                     min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_charge_is_serve_event_for_event(capacity, jobs):
    """Any arrival / service-time schedule (on a coarse grid, so that
    ties are the rule): a job charged with ``charge`` resumes at the
    instant, under the kernel sequence count, with the units and queue
    and with exactly the pending heap entries — times, priorities and
    sequence numbers — that it does as an inline-started ``serve``
    process: same grant order, same numbers drawn at the same points,
    the unit released and the next hold pushed before it runs on."""
    logs = []
    for use_charge in (False, True):
        sim = Simulator()
        cpu = Resource(sim, capacity=capacity)
        owner = Supervisor(sim, "node")
        log = []

        def job(who, service):
            yield from serve(cpu, service)
            _observed(sim, cpu, log, who)

        def arrive(who, service):
            if use_charge:
                charge(cpu, service, _observed, sim, cpu, log, who)
            else:
                owner.spawn(job(who, service), str(who), inline=True)

        for who, (at, service) in enumerate(jobs):
            sim.call_at(at * 0.5, lambda w=who, s=service * 0.25:
                        arrive(w, s))
        sim.run()
        assert len(log) == len(jobs) and cpu.in_use == 0
        assert not owner.failures
        logs.append(log)
    assert logs[0] == logs[1]


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    ev = store.get()
    assert ev.triggered and ev.result() == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    spawn(sim, consumer())

    def producer():
        yield timeout(sim, 2.0)
        store.put("y")

    spawn(sim, producer())
    sim.run()
    assert got == [("y", 2.0)]


def test_store_fifo_and_drain():
    sim = Simulator()
    store = Store(sim)
    for i in range(3):
        store.put(i)
    assert len(store) == 3
    assert store.drain() == [0, 1, 2]
    assert len(store) == 0
