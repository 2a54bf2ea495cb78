"""Tests for the coordination service over the simulated network."""

import pytest

from repro.coord.client import CoordClient
from repro.coord.service import CoordinationService
from repro.coord.znode import CoordError, NoNodeError, NodeExistsError
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import spawn
from repro.sim.rng import RngRegistry


def setup_world(n_clients=2, session_timeout=2.0):
    sim = Simulator()
    net = Network(sim, RngRegistry(11))
    service = CoordinationService(sim, net)
    clients = []
    for i in range(n_clients):
        ep = net.endpoint(f"node{i}")
        clients.append(CoordClient(sim, ep, session_timeout=session_timeout))
    return sim, net, service, clients


def run(sim, gen, limit=60.0):
    proc = spawn(sim, gen)
    sim.run(until=sim.now + limit)
    assert proc.triggered, "process did not finish"
    return proc.result()


def test_session_start_and_create_get():
    sim, net, service, (c0, _) = setup_world()

    def scenario():
        yield from c0.start()
        yield from c0.create("/a", b"hello")
        data, version = yield from c0.get("/a")
        return data, version

    assert run(sim, scenario()) == (b"hello", 0)


def test_errors_propagate_to_client():
    sim, net, service, (c0, _) = setup_world()

    def scenario():
        yield from c0.start()
        yield from c0.create("/a")
        try:
            yield from c0.create("/a")
        except NodeExistsError:
            pass
        else:
            raise AssertionError("expected NodeExistsError")
        try:
            yield from c0.get("/missing")
        except NoNodeError:
            return "ok"

    assert run(sim, scenario()) == "ok"


def test_watch_notification_crosses_the_network():
    sim, net, service, (c0, c1) = setup_world()
    fired = []

    def watcher_side():
        yield from c0.start()
        yield from c0.create("/a", b"x")
        yield from c0.get("/a", watcher=lambda ev: fired.append(
            (ev.kind, ev.path, sim.now)))

    def mutator_side():
        yield from c1.start()
        yield from c1.set_data("/a", b"y")

    p0 = spawn(sim, watcher_side())
    sim.run(until=sim.now + 30.0)
    assert p0.ok
    spawn(sim, mutator_side())
    sim.run(until=sim.now + 30.0)
    assert len(fired) == 1
    assert fired[0][0] == "changed" and fired[0][1] == "/a"


def test_session_expires_when_heartbeats_stop():
    sim, net, service, (c0, c1) = setup_world(session_timeout=2.0)
    deleted = []

    def ephemeral_owner():
        yield from c0.start()
        yield from c0.create("/grp")
        yield from c0.create("/grp/me", ephemeral=True)

    def observer():
        yield from c1.start()
        yield from c1.get(
            "/grp/me", watcher=lambda ev: deleted.append(sim.now))

    run(sim, ephemeral_owner())
    run(sim, observer())
    # Crash node0: endpoint dies, heartbeats stop.
    crash_time = sim.now
    net.get("node0").crash()
    c0.stop()
    sim.run(until=sim.now + 10.0)
    assert service.expired_sessions == 1
    assert len(deleted) == 1
    # Expiry lands within [timeout - heartbeat interval, timeout + sweep].
    assert 1.0 <= deleted[0] - crash_time <= 5.0


def test_ephemerals_survive_while_heartbeating():
    sim, net, service, (c0, _) = setup_world(session_timeout=2.0)

    def scenario():
        yield from c0.start()
        yield from c0.create("/grp")
        yield from c0.create("/grp/me", ephemeral=True)

    run(sim, scenario())
    sim.run(until=sim.now + 30.0)  # many timeouts worth of quiet time
    assert service.tree.children("/grp") == ["me"]
    assert service.expired_sessions == 0


def test_operations_after_expiry_fail():
    sim, net, service, (c0, _) = setup_world(session_timeout=1.0)
    outcome = []

    def scenario():
        yield from c0.start()
        session = c0.session
        service.expire_session_now(session)
        try:
            yield from c0.create("/x")
        except Exception as err:  # a session-expired reply: CoordError
            outcome.append(type(err).__name__)

    run(sim, scenario())
    assert outcome == ["CoordError"]


def test_stop_fails_a_pending_call_and_every_later_one():
    """No call waits on an ended session: its get is lost, the session
    is stopped before any heartbeat could notice, and the waiter gets
    ``CoordError`` at once (it used to wait forever); so does a call
    made afterwards."""
    sim, net, service, (c0, _) = setup_world()
    outcome = []

    def scenario():
        yield from c0.start()
        net.block("node0", "coord")
        sim.schedule(0.1, c0.stop)
        for path in ("/", "/"):
            try:
                yield from c0.get(path)
            except CoordError as err:
                outcome.append((str(err), sim.now))

    start = sim.now
    run(sim, scenario())
    assert [msg for msg, _ in outcome] == ["session ended"] * 2
    assert outcome[0][1] == outcome[1][1] < start + 0.2


def test_a_reply_queued_behind_a_deep_backlog_ends_no_session():
    """A slow reply is not a lost one: a get queued behind 3,000 creates
    waits more than three heartbeat intervals, each ack in between shows
    it received but not yet answered, and the session lives on."""
    sim, net, service, (c0, _) = setup_world()
    losses = []
    c0.on_session_loss = losses.append
    run(sim, c0.start())
    run(sim, c0.create("/q"))
    for i in range(3000):
        spawn(sim, c0.create(f"/q/n{i}"))

    def timed_get():
        began = sim.now
        yield from c0.get("/q")
        return sim.now - began

    waited = run(sim, timed_get())
    assert waited > 3 * (c0.session_timeout / 3)
    assert len(service.tree.children("/q")) == 3000
    assert losses == [] and service.expired_sessions == 0
    assert c0.session is not None


def test_sequential_create_over_rpc():
    sim, net, service, (c0, _) = setup_world()

    def scenario():
        yield from c0.start()
        yield from c0.create("/q")
        p1 = yield from c0.create("/q/c-", sequential=True, ephemeral=True)
        p2 = yield from c0.create("/q/c-", sequential=True, ephemeral=True)
        return p1, p2

    p1, p2 = run(sim, scenario())
    assert p1 < p2


def test_ensure_path_creates_ancestors():
    sim, net, service, (c0, _) = setup_world()

    def scenario():
        yield from c0.start()
        yield from c0.ensure_path("/a/b/c")
        yield from c0.ensure_path("/a/b/c")  # idempotent
        return (yield from c0.get_children("/a/b"))

    assert run(sim, scenario()) == ["c"]


def test_service_ops_take_time():
    sim, net, service, (c0, _) = setup_world()

    def scenario():
        yield from c0.start()
        yield from c0.create("/a")

    run(sim, scenario())
    assert sim.now > 1e-3  # at least the update latency + network
