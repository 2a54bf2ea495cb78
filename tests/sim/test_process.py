"""Tests for generator-based processes and composite events."""

import pytest

from repro.sim.events import Event, SimulationError, Simulator
from repro.sim.process import (Interrupt, ProcessKilled, SimHost,
                               Supervisor, all_of, drive, spawn, timeout)


def test_process_sleeps_and_returns_value():
    sim = Simulator()

    def worker():
        yield timeout(sim, 1.5)
        return "done"

    proc = spawn(sim, worker())
    sim.run()
    assert proc.ok
    assert proc.result() == "done"
    assert sim.now == 1.5


def test_a_timeout_fires_from_the_heap_only():
    sim = Simulator()
    sleep = timeout(sim, 1.0, "woke")
    with pytest.raises(SimulationError):
        sleep.succeed()
    with pytest.raises(SimulationError):
        sleep.fail(RuntimeError("early"))
    assert not sleep.triggered
    sim.run()
    assert sleep.result() == "woke" and sim.now == 1.0


def test_yield_delivers_event_value():
    sim = Simulator()
    ev = Event(sim)
    got = []

    def worker():
        value = yield ev
        got.append(value)

    spawn(sim, worker())
    sim.schedule(1.0, lambda: ev.succeed(99))
    sim.run()
    assert got == [99]


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = Event(sim)
    caught = []

    def worker():
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))

    spawn(sim, worker())
    sim.schedule(1.0, lambda: ev.fail(ValueError("bad")))
    sim.run()
    assert caught == ["bad"]


def test_process_exception_fails_the_process_event():
    sim = Simulator()

    def worker():
        yield timeout(sim, 1.0)
        raise RuntimeError("exploded")

    proc = spawn(sim, worker())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, RuntimeError)


def test_processes_compose():
    sim = Simulator()

    def inner():
        yield timeout(sim, 2.0)
        return 7

    def outer():
        value = yield spawn(sim, inner())
        return value * 2

    proc = spawn(sim, outer())
    sim.run()
    assert proc.result() == 14


def test_interrupt_wakes_process_early():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield timeout(sim, 100.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, sim.now))

    proc = spawn(sim, sleeper())
    sim.schedule(1.0, lambda: proc.interrupt("wake"))
    sim.run()
    assert log == [("interrupted", "wake", 1.0)]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def fast():
        yield timeout(sim, 0.1)

    proc = spawn(sim, fast())
    sim.run()
    proc.interrupt("late")  # must not raise
    sim.run()
    assert proc.ok


def test_unhandled_interrupt_fails_process():
    sim = Simulator()

    def sleeper():
        yield timeout(sim, 100.0)

    proc = spawn(sim, sleeper())
    sim.schedule(1.0, lambda: proc.interrupt())
    sim.run()
    assert proc.triggered and not proc.ok


def test_stale_event_after_interrupt_is_ignored():
    sim = Simulator()
    resumed = []

    def sleeper():
        try:
            yield timeout(sim, 5.0)
            resumed.append("timer")
        except Interrupt:
            yield timeout(sim, 10.0)
            resumed.append("post-interrupt")

    spawn(sim, sleeper())
    sim.schedule(1.0, lambda: None)  # noop marker

    def interrupter():
        yield timeout(sim, 1.0)
        # interrupt while the 5s timeout is pending; the timeout still
        # fires at t=5 but must not resume the process a second time.
        proc.interrupt()

    proc = None
    proc = spawn(sim, sleeper())
    spawn(sim, interrupter())
    sim.run()
    assert resumed.count("post-interrupt") == 1


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = spawn(sim, bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, SimulationError)


def test_all_of_collects_every_value():
    sim = Simulator()
    cond = all_of(sim, [timeout(sim, 1.0, "a"), timeout(sim, 3.0, "b"),
                        timeout(sim, 2.0, "c")])
    sim.run()
    assert cond.result() == ["a", "b", "c"]
    assert sim.now == 3.0


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    cond = all_of(sim, [])
    assert cond.ok


class _Host(SimHost):
    def __init__(self):
        self.sim = Simulator()


def test_drive_returns_the_generators_value():
    host = _Host()

    def work():
        yield timeout(host.sim, 0.12)
        return 42

    assert drive(host, work(), limit=1.0) == 42
    assert host.sim.now == pytest.approx(0.15)    # a whole number of steps


def test_drive_reraises_a_failure_instead_of_timing_out():
    host = _Host()

    def work():
        yield timeout(host.sim, 0.1)
        raise KeyError("boom")

    with pytest.raises(KeyError):
        drive(host, work(), limit=10.0)
    assert host.sim.now < 1.0


def test_drive_waits_on_an_event_already_under_way():
    host = _Host()

    def work(delay, fail=False):
        yield timeout(host.sim, delay)
        if fail:
            raise ValueError("second worker")
        return delay

    procs = [spawn(host.sim, work(0.1)), spawn(host.sim, work(0.2))]
    assert drive(host, all_of(host.sim, procs), limit=1.0) == [0.1, 0.2]
    procs = [spawn(host.sim, work(5.0)), spawn(host.sim, work(0.1, True))]
    with pytest.raises(ValueError, match="second worker"):
        drive(host, all_of(host.sim, procs), limit=10.0)


def test_drive_times_out_when_the_work_never_finishes():
    host = _Host()
    with pytest.raises(SimulationError, match="stuck thing"):
        drive(host, Event(host.sim), limit=0.5, what="stuck thing")


def test_supervisor_kills_in_spawn_order_and_keeps_only_real_failures():
    sim = Simulator()
    sup = Supervisor(sim, "node7")
    order = []

    def handler(tag):
        try:
            yield timeout(sim, 10.0)
        except Interrupt:
            order.append(tag)
            raise

    def buggy():
        yield timeout(sim, 0.1)
        raise RuntimeError("protocol bug")

    procs = [sup.spawn(handler(tag), tag) for tag in "abc"]
    bug = sup.spawn(buggy(), "bug")
    assert procs[0].name == "node7:a"
    sim.run(until=1.0)
    assert [type(f) for f in sup.failures] == [RuntimeError]
    assert bug.triggered and not bug.ok
    sup.kill_all()
    sim.run(until=2.0)
    assert order == ["a", "b", "c"]
    assert all(isinstance(p.exception, ProcessKilled) for p in procs)
    assert len(sup.failures) == 1       # deliberate kills are not failures


def test_inline_spawn_takes_its_first_step_now_without_a_heap_entry():
    sim = Simulator()
    sup = Supervisor(sim, "node7")
    steps = []

    def handler():
        steps.append("first")
        yield timeout(sim, 1.0)
        steps.append("second")
        return "done"

    proc = sup.spawn(handler(), "h", inline=True)
    assert steps == ["first"]           # ran before spawn returned
    assert len(sim._heap) == 1          # its timeout; no start entry
    assert proc.name == "node7:h" and proc.is_alive
    sim.run()
    assert steps == ["first", "second"] and proc.result() == "done"
    assert not sup._procs


def test_inline_and_heap_spawns_are_killed_in_spawn_order():
    sim = Simulator()
    sup = Supervisor(sim, "node7")
    order = []

    def handler(tag):
        try:
            yield timeout(sim, 10.0)
        except Interrupt:
            order.append(tag)
            raise

    def parent():
        # A handler that spawns a child in its first step is still
        # registered — and killed — ahead of that child.
        sup.spawn(handler("child"), "child")
        yield from handler("parent")

    procs = [sup.spawn(handler("a"), "a"),
             sup.spawn(parent(), "p", inline=True),
             sup.spawn(handler("b"), "b", inline=True)]
    sim.run(until=1.0)
    sup.kill_all()
    sim.run(until=2.0)
    assert order == ["a", "parent", "child", "b"]
    assert all(isinstance(p.exception, ProcessKilled) for p in procs)
    assert sup.failures == []


def test_inline_handler_finishing_or_raising_on_its_first_step():
    sim = Simulator()
    sup = Supervisor(sim, "node7")

    def stale():
        return "not-leader"
        yield

    def buggy():
        raise RuntimeError("protocol bug")
        yield

    done = sup.spawn(stale(), "stale", inline=True)
    assert done.result() == "not-leader"
    bug = sup.spawn(buggy(), "bug", inline=True)
    assert bug.triggered and not bug.ok
    assert [type(f) for f in sup.failures] == [RuntimeError]
    assert not sup._procs and not sim._heap     # nothing left behind
