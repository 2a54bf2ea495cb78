"""Tests for coordination recipes (membership, locks, barriers)."""

from repro.coord.client import CoordClient
from repro.coord.recipes import Barrier, DistributedLock, GroupMembership
from repro.coord.service import CoordinationService
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import spawn, timeout
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
        grp = GroupMembership(c2, "/nodes", "c")
        result["before"] = yield from grp.members()
        yield from g1.result().leave()
        result["after"] = yield from grp.members()

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
        grp = GroupMembership(c1, "/nodes", "obs")
        members = yield from grp.members(
            watcher=lambda ev: changes.append(sim.now))
        return members

    spawn(sim, member())
    sim.run(until=sim.now + 30.0)
    spawn(sim, observer())
    sim.run(until=sim.now + 30.0)
    net.get("node0").crash()
    c0.stop()
    sim.run(until=sim.now + 10.0)
    assert changes, "observer was not notified of member death"


def test_lock_mutual_exclusion_and_fifo():
    sim, net, service, clients = setup_world(3)
    critical = []

    def contender(client, name, hold):
        yield from client.start()
        lock = DistributedLock(client, "/locks/L")
        yield from lock.acquire()
        critical.append(("enter", name, sim.now))
        yield timeout(sim, hold)
        critical.append(("exit", name, sim.now))
        yield from lock.release()

    for i, client in enumerate(clients):
        spawn(sim, contender(client, f"n{i}", hold=1.0))
    sim.run(until=sim.now + 30.0)
    # No overlapping critical sections.
    inside = 0
    for kind, _name, _t in sorted(critical, key=lambda x: x[2]):
        inside += 1 if kind == "enter" else -1
        assert inside <= 1
    assert len(critical) == 6


def test_lock_released_by_crash_of_holder():
    sim, net, service, (c0, c1, _) = setup_world()
    acquired = []

    def holder():
        yield from c0.start()
        lock = DistributedLock(c0, "/locks/L")
        yield from lock.acquire()
        acquired.append(("holder", sim.now))
        # never releases: crashes below

    def waiter():
        yield from c1.start()
        lock = DistributedLock(c1, "/locks/L")
        yield from lock.acquire()
        acquired.append(("waiter", sim.now))

    spawn(sim, holder())
    sim.run(until=sim.now + 30.0)
    spawn(sim, waiter())
    sim.run(until=sim.now + 1.0)
    assert [name for name, _ in acquired] == ["holder"]
    net.get("node0").crash()
    c0.stop()
    sim.run(until=sim.now + 20.0)
    assert [name for name, _ in acquired] == ["holder", "waiter"]


def test_barrier_waits_for_quorum():
    sim, net, service, clients = setup_world(3)
    passed = []

    def participant(client, name, delay):
        yield from client.start()
        yield timeout(sim, delay)
        barrier = Barrier(client, "/barrier", name, quorum=2)
        yield from barrier.enter()
        passed.append((name, sim.now))

    spawn(sim, participant(clients[0], "a", 0.0))
    spawn(sim, participant(clients[1], "b", 5.0))
    sim.run(until=4.0)
    assert passed == []  # first arrival blocks alone
    sim.run(until=30.0)
    assert {name for name, _ in passed} == {"a", "b"}
    assert all(t >= 5.0 for _, t in passed)


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
        return path, (yield from grp.members())

    proc = spawn(sim, rejoin())
    sim.run(until=sim.now + 5.0)
    assert deletes == ["/nodes/n"]          # the interleaving happened
    assert proc.result() == ("/nodes/n", ["n"])
