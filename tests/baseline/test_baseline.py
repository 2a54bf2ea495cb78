"""Tests for the eventually consistent baseline store."""

import pytest

from repro.baseline import (QUORUM, WEAK, CassandraCluster,
                            CassandraConfig)
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn


def fast_config(**overrides):
    cfg = CassandraConfig(log_profile=DiskProfile.ssd_log())
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def make_cluster(n=5, **overrides):
    return CassandraCluster(n_nodes=n, config=fast_config(**overrides),
                            seed=11)


def run_client(cluster, gen, limit=60.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="client op")
    return proc.result()


def test_quorum_write_then_quorum_read():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)
        return (yield from client.read(b"k", b"c", consistency=QUORUM))

    got = run_client(cluster, scenario())
    assert got.found and got.value == b"v"
    assert cluster.all_failures() == []


def test_weak_write_then_weak_read_usually_converges():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.write(b"k", b"c", b"v", consistency=WEAK)
        # All replicas still receive the write; give them a moment.
        return True

    run_client(cluster, scenario())
    cluster.run(1.0)
    members = cluster.partitioner.cohort_for_key(
        __import__("repro.core.partition", fromlist=["key_of"]
                   ).key_of(b"k")).members
    gid = cluster.partitioner.cohort_for_key(
        __import__("repro.core.partition", fromlist=["key_of"]
                   ).key_of(b"k")).cohort_id
    for member in members:
        cell = cluster.nodes[member].engines[gid].get(b"k", b"c")
        assert cell is not None and cell.value == b"v"


def test_last_write_wins_on_conflict():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.write(b"k", b"c", b"old", consistency=QUORUM)
        yield from client.write(b"k", b"c", b"new", consistency=QUORUM)
        return (yield from client.read(b"k", b"c", consistency=QUORUM))

    got = run_client(cluster, scenario())
    assert got.value == b"new"


def test_delete_with_tombstone():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)
        yield from client.delete(b"k", b"c", consistency=QUORUM)
        return (yield from client.read(b"k", b"c", consistency=QUORUM))

    got = run_client(cluster, scenario())
    assert not got.found


def test_quorum_ops_survive_one_node_down():
    cluster = make_cluster()
    client = cluster.client()
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"k"))
    cluster.crash_node(cohort.members[0])

    def scenario():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)
        return (yield from client.read(b"k", b"c", consistency=QUORUM))

    got = run_client(cluster, scenario())
    assert got.found and got.value == b"v"


def test_replica_stays_stale_until_anti_entropy():
    """The consistency gap the paper describes (§9): a replica that was
    down during a quorum write stays stale after restart — there is no
    quorum-based recovery — until hinted handoff replays the write."""
    cluster = make_cluster()
    client = cluster.client()
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"k"))
    gid = cohort.cohort_id
    lagger = cohort.members[2]
    cluster.crash_node(lagger)

    def write_it():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)

    run_client(cluster, write_it())
    cluster.restart_node(lagger)
    # Stale right after restart: local log replay knows nothing of b"k".
    assert cluster.nodes[lagger].engines[gid].get(b"k", b"c") is None
    # Hinted handoff eventually converges it.
    cluster.run(15.0)
    cell = cluster.nodes[lagger].engines[gid].get(b"k", b"c")
    assert cell is not None and cell.value == b"v"


def test_read_repair_fixes_stale_replica():
    cluster = make_cluster()
    client = cluster.client()
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"rr"))
    gid = cohort.cohort_id
    lagger = cohort.members[2]
    for member in cohort.members[:2]:
        cluster.network.block(lagger, member)

    def write_it():
        yield from client.write(b"rr", b"c", b"v", consistency=QUORUM)

    run_client(cluster, write_it())
    cluster.network.heal()
    # Quorum reads from the two up-to-date replicas never touch the
    # laggard; force many quorum reads from random coordinators until a
    # stale response triggers repair, or hinted handoff replays.
    def read_lots():
        for _ in range(30):
            yield from client.read(b"rr", b"c", consistency=QUORUM)

    run_client(cluster, read_lots())
    cluster.run(15.0)  # hint replay interval
    cell = cluster.nodes[lagger].engines[gid].get(b"rr", b"c")
    assert cell is not None and cell.value == b"v"


def test_restarted_node_replays_its_local_log():
    cluster = make_cluster()
    client = cluster.client()
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"k"))
    gid = cohort.cohort_id

    def write_it():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)

    run_client(cluster, write_it())
    cluster.run(0.5)
    victim = cohort.members[0]
    cluster.crash_node(victim)
    cluster.run(0.5)
    cluster.restart_node(victim)
    cell = cluster.nodes[victim].engines[gid].get(b"k", b"c")
    # It replays whatever was durably logged locally before the crash.
    assert cell is not None and cell.value == b"v"


def test_unavailable_when_quorum_unreachable():
    cluster = make_cluster(client_op_timeout=3.0)
    client = cluster.client()
    from repro.core.datamodel import RequestTimeout
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"k"))
    for member in cohort.members[1:]:
        cluster.crash_node(member)

    def scenario():
        try:
            yield from client.write(b"k", b"c", b"v", consistency=QUORUM)
            return "ok"
        except RequestTimeout:
            return "timeout"

    assert run_client(cluster, scenario(), limit=30.0) == "timeout"

    def weak_still_works():
        yield from client.write(b"k2", b"c", b"v", consistency=WEAK)
        return "ok"

    # Weak writes need only 1 ack: still available with 1 replica up.
    assert run_client(cluster, weak_still_works(), limit=30.0) == "ok"


class SpyRequest:
    """A request delivered by hand (``node._dispatch``): records what
    the handler answers."""

    src = "tester"

    def __init__(self, payload):
        self.payload = payload
        self.responses = []

    def respond(self, value, size=0):
        self.responses.append(value)


def test_a_crashed_coordinator_neither_replies_nor_applies(monkeypatch):
    """A coordinator crashes while its quorum write waits on acks its
    peers cannot send, inside its own replica's CPU slice, and restarts
    at once.  The write's continuations belong to the dead incarnation:
    the slice running down must not log or apply the write, the ack
    count must not reply, the hint timer must not hint — and the node
    comes back whole: it serves, and every core is free at idle."""
    from repro.baseline.config import (WRITE_COORDINATOR_SERVICE,
                                       WRITE_REPLICA_SERVICE)
    from repro.baseline.messages import CoordRead, CoordWrite
    from repro.core.partition import key_of
    cluster = make_cluster()
    cohort = cluster.partitioner.cohort_for_key(key_of(b"cg"))
    name = cohort.members[0]
    node = cluster.nodes[name]
    for other in cohort.members[1:]:
        cluster.network.block(name, other)
    engine = node.engines[cohort.cohort_id]
    applied = []
    real_apply = engine.apply

    def spy_apply(record):
        applied.append(cluster.sim.now)
        real_apply(record)

    monkeypatch.setattr(engine, "apply", spy_apply)
    cluster.run(0.1)
    write = SpyRequest(CoordWrite(key=b"cg", colname=b"c", value=b"lost",
                                  consistency=QUORUM))
    node._dispatch(write)
    cluster.run(WRITE_COORDINATOR_SERVICE + WRITE_REPLICA_SERVICE / 2)
    cluster.crash_node(name)
    cluster.restart_node(name)
    cluster.network.heal()
    cluster.run(2 * node.config.hint_timeout)
    assert write.responses == []
    assert applied == []
    assert node.hints == {}
    assert cluster.all_failures() == []

    again = SpyRequest(CoordWrite(key=b"cg", colname=b"c", value=b"kept",
                                  consistency=QUORUM))
    node._dispatch(again)
    cluster.run_until(lambda: again.responses, limit=5.0, what="write")
    assert again.responses[0]["ok"]
    read = SpyRequest(CoordRead(key=b"cg", colname=b"c",
                                consistency=QUORUM))
    node._dispatch(read)
    cluster.run_until(lambda: read.responses, limit=5.0, what="read")
    assert read.responses[0]["value"] == b"kept"
    cluster.run(1.0)
    assert node.cpu._in_use == 0
    assert cluster.all_failures() == []
