"""Edge cases of watch and session semantics over the network."""

from repro.coord.client import CoordClient
from repro.coord.service import CoordinationService
from repro.coord.znode import NoNodeError
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import spawn
from repro.sim.rng import RngRegistry


def setup_world(n_clients=2):
    sim = Simulator()
    net = Network(sim, RngRegistry(31))
    service = CoordinationService(sim, net)
    clients = [CoordClient(sim, net.endpoint(f"node{i}"))
               for i in range(n_clients)]
    return sim, net, service, clients


def run(sim, gen, limit=30.0):
    proc = spawn(sim, gen)
    sim.run(until=sim.now + limit)
    assert proc.triggered
    return proc.result()


def test_watches_are_one_shot():
    sim, net, service, (c0, c1) = setup_world()
    fired = []

    def watcher():
        yield from c0.start()
        yield from c0.create("/a", b"0")
        yield from c0.get("/a", watcher=lambda ev: fired.append(ev.kind))

    def mutate_twice():
        yield from c1.start()
        yield from c1.set_data("/a", b"1")
        yield from c1.set_data("/a", b"2")

    run(sim, watcher())
    run(sim, mutate_twice())
    sim.run(until=sim.now + 5.0)
    assert fired == ["changed"]  # second change: no registered watch


def test_failed_get_leaves_no_watch():
    sim, net, service, (c0, c1) = setup_world()
    fired = []

    def watcher():
        yield from c0.start()
        try:
            yield from c0.get("/ghost", watcher=lambda ev: fired.append(1))
        except NoNodeError:
            pass

    def creator():
        yield from c1.start()
        yield from c1.create("/ghost", b"x")

    run(sim, watcher())
    run(sim, creator())
    sim.run(until=sim.now + 5.0)
    assert fired == []  # ZooKeeper semantics: failed get sets no watch


def test_child_watch_not_fired_by_data_change():
    sim, net, service, (c0, c1) = setup_world()
    fired = []

    def watcher():
        yield from c0.start()
        yield from c0.create("/dir")
        yield from c0.create("/dir/kid", b"0")
        yield from c0.get_children("/dir",
                                   watcher=lambda ev: fired.append(ev))

    def mutate():
        yield from c1.start()
        yield from c1.set_data("/dir/kid", b"1")   # data only

    run(sim, watcher())
    run(sim, mutate())
    sim.run(until=sim.now + 5.0)
    assert fired == []

    def delete_kid():
        yield from c1.delete("/dir/kid")

    run(sim, delete_kid())
    sim.run(until=sim.now + 5.0)
    assert [ev.kind for ev in fired] == ["children"]


def test_watch_events_not_delivered_to_crashed_client():
    sim, net, service, (c0, c1) = setup_world()
    fired = []

    def watcher():
        yield from c0.start()
        yield from c0.create("/w", b"0")
        yield from c0.get("/w", watcher=lambda ev: fired.append(ev))

    run(sim, watcher())
    net.get("node0").crash()
    c0.stop()

    def mutate():
        yield from c1.start()
        yield from c1.set_data("/w", b"1")

    run(sim, mutate())
    sim.run(until=sim.now + 5.0)
    assert fired == []  # the notification message was dropped


def test_two_sessions_from_same_restarted_node():
    """A node that restarts gets a fresh session; the old session's
    ephemerals vanish even though the node name is reused."""
    sim, net, service, (c0, c1) = setup_world()

    def first_life():
        yield from c0.start()
        yield from c0.create("/grp")
        yield from c0.create("/grp/me", ephemeral=True)
        return c0.session

    old_session = run(sim, first_life())
    net.get("node0").crash()
    c0.stop()
    net.get("node0").restart()
    c0b = CoordClient(sim, net.get("node0"))

    def second_life():
        yield from c0b.start()
        yield from c0b.create("/grp/me2", ephemeral=True)
        return c0b.session

    new_session = run(sim, second_life())
    assert new_session != old_session
    sim.run(until=sim.now + 10.0)  # old session expires
    assert service.tree.children("/grp") == ["me2"]
