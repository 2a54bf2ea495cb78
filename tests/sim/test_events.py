"""Tests for the event-loop kernel."""

import pytest

from repro.sim.events import Event, SimulationError, Simulator


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_limit_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(True))
    sim.run(until=5.0)
    assert not fired
    assert sim.now == 5.0
    sim.run()
    assert fired


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    entry = sim.schedule(1.0, lambda: fired.append(True))
    sim.cancel(entry)
    sim.run()
    assert not fired


def test_nested_scheduling_from_callback():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(0.5, lambda: times.append(sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert times == [1.0, 1.5]


def test_event_succeed_delivers_value_to_callbacks():
    sim = Simulator()
    ev = Event(sim)
    got = []
    ev.add_callback(lambda e: got.append(e.result()))
    ev.succeed(42)
    assert got == [42]
    assert ev.ok


def test_event_callback_added_after_trigger_runs_immediately():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed("x")
    got = []
    ev.add_callback(lambda e: got.append(e.result()))
    assert got == ["x"]


def test_event_fail_reraises_on_result():
    sim = Simulator()
    ev = Event(sim)
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError):
        ev.result()
    assert isinstance(ev.exception, ValueError)


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_result_before_trigger_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        ev.result()
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        ev.fail("not an exception")
