"""Tests for the group-membership recipe."""

from repro.coord.client import CoordClient
from repro.coord.recipes import GroupMembership
from repro.coord.service import CoordinationService
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import spawn
from repro.sim.rng import RngRegistry


def setup_world(n_clients=3):
    sim = Simulator()
    net = Network(sim, RngRegistry(23))
    service = CoordinationService(sim, net)
    clients = [CoordClient(sim, net.endpoint(f"node{i}"))
               for i in range(n_clients)]
    return sim, net, service, clients


def test_group_membership_join_list_leave():
    sim, net, service, (c0, c1, c2) = setup_world()
    result = {}

    def member(client, name):
        yield from client.start()
        grp = GroupMembership(client, "/nodes", name)
        yield from grp.join(data=name.encode())
        return grp

    g0 = spawn(sim, member(c0, "a"))
    g1 = spawn(sim, member(c1, "b"))
    sim.run(until=sim.now + 30.0)

    def lister():
        yield from c2.start()
        result["before"] = yield from c2.get_children("/nodes")
        # A member leaves with its session: the ephemeral goes with it.
        service.expire_session_now(c1.session)
        c1.stop()
        result["after"] = yield from c2.get_children("/nodes")

    spawn(sim, lister())
    sim.run(until=sim.now + 30.0)
    assert result["before"] == ["a", "b"]
    assert result["after"] == ["a"]


def test_membership_notification_on_member_death():
    sim, net, service, (c0, c1, _) = setup_world()
    changes = []

    def member():
        yield from c0.start()
        grp = GroupMembership(c0, "/nodes", "victim")
        yield from grp.join()

    def observer():
        yield from c1.start()
        return (yield from c1.get_children(
            "/nodes", watcher=lambda ev: changes.append(sim.now)))

    spawn(sim, member())
    sim.run(until=sim.now + 30.0)
    spawn(sim, observer())
    sim.run(until=sim.now + 30.0)
    net.get("node0").crash()
    c0.stop()
    sim.run(until=sim.now + 10.0)
    assert changes, "observer was not notified of member death"


def test_join_survives_stale_ephemeral_expiring_before_its_delete():
    """A rejoining node finds its previous incarnation's ephemeral
    (create -> NodeExistsError) and goes to delete it; if that session
    expires between the two requests the delete finds nothing.  That is
    the outcome join wanted, not an error: it used to die with
    NoNodeError('/nodes/node7') in the 9-node 3-DC seed-8 storm."""
    sim, net, service, (old, new, _) = setup_world()

    def previous_incarnation():
        yield from old.start()
        yield from GroupMembership(old, "/nodes", "n").join()

    spawn(sim, previous_incarnation())
    sim.run(until=sim.now + 5.0)
    old_session = old.session
    old.stop()                      # crashed: heartbeats stop

    real_delete = new.delete
    deletes = []

    def delete_after_expiry(path, version=-1):
        # Exactly the window: the failed create has been answered, the
        # delete not yet sent, and the sweeper expires the old session.
        deletes.append(path)
        service.expire_session_now(old_session)
        return (yield from real_delete(path, version))

    new.delete = delete_after_expiry

    def rejoin():
        yield from new.start()
        grp = GroupMembership(new, "/nodes", "n")
        path = yield from grp.join()
        return path, (yield from new.get_children("/nodes"))

    proc = spawn(sim, rejoin())
    sim.run(until=sim.now + 5.0)
    assert deletes == ["/nodes/n"]          # the interleaving happened
    assert proc.result() == ("/nodes/n", ["n"])
