"""Message handlers are chains of plain functions, not processes: what a
crash used to do to them by ``kill_all`` the incarnation guard must do
now.  A handler parked at any of its waiting points — in its CPU hold,
in the CPU queue, on a log force, on the write gate — when the node
loses its disk (crash, wipe and boot at one instant) sends no reply,
touches no replica state and leaves every core free; one that raises is
a recorded failure of its node and the run goes on."""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.config import (CORES_PER_NODE, READ_SERVICE,
                               WRITE_FOLLOWER_SERVICE, WRITE_LEADER_SERVICE)
from repro.core.messages import ClientGet, ClientWrite, Propose, WriteOp
from repro.sim.disk import DiskProfile
from repro.sim.events import Event
from repro.sim.process import drive
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord

COHORT = 0


class SpyRequest:
    """A delivered request that records every ``respond`` — unlike a
    network Request it does not care whether the responder is alive, so
    a continuation that runs on after a crash is caught replying."""

    def __init__(self, src, payload):
        self.src = src
        self.payload = payload
        self.responses = []

    def respond(self, value, size=0):
        self.responses.append(value)


def make_cluster(**overrides):
    # SATA: a force takes milliseconds, a CPU slice a fraction of one
    cfg = SpinnakerConfig(log_profile=DiskProfile.sata_log(),
                          commit_period=0.25, **overrides)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=33)
    cluster.start()
    cluster.run(2.0)
    leader = cluster.replica(cluster.leader_of(COHORT), COHORT)
    follower = cluster.replica(leader.peers()[0], COHORT)
    key = next(b"park-%d" % i for i in range(1000)
               if cluster.partitioner.locate(b"park-%d" % i).cohort_id
               == COHORT)
    return cluster, leader, follower, key


def a_get(leader, follower, key):
    return leader, SpyRequest("spy", ClientGet(key=key, colname=b"c",
                                               consistent=True))


def a_propose(leader, follower, key):
    seq = follower.node.wal.last_lsn(COHORT).seq + 1
    record = WriteRecord(lsn=LSN(follower.epoch, seq), cohort_id=COHORT,
                         key=key, colname=b"c", value=b"v", version=1)
    return follower, SpyRequest(leader.node.name, Propose(
        cohort_id=COHORT, epoch=follower.epoch, records=(record,)))


def a_write(leader, follower, key):
    return leader, SpyRequest("spy", ClientWrite(
        ops=(WriteOp(key=key, colname=b"c", value=b"v"),)))


def fill_the_cores(replica, key):
    """One timeline get per core, all holding."""
    node = replica.node
    fillers = [SpyRequest("spy", ClientGet(key=key, colname=b"c",
                                           consistent=False))
               for _ in range(CORES_PER_NODE)]
    for req in fillers:
        node._dispatch(req)
    assert node.cpu.in_use == CORES_PER_NODE and node.cpu.queue_length == 0
    return fillers


def served(replica):
    return (replica.reads_served, replica.writes_served,
            replica.proposes_handled)


def lose_disk_and_settle(cluster, replica, requests, before):
    node = replica.node
    incarnation = node.incarnation
    node.lose_disk()
    assert node.incarnation == incarnation + 1 and node.alive
    assert node.cpu.in_use == 0          # a fresh pool: every core free
    cluster.run(10.0)                    # recovery, election, catch-up
    for req in requests:
        assert req.responses == []
    assert served(replica) == before
    assert node.cpu.in_use == 0 and node.cpu.queue_length == 0
    assert cluster.all_failures() == []


@pytest.mark.parametrize("message", [a_get, a_propose, a_write])
def test_parked_in_its_cpu_hold_a_handler_dies_with_the_incarnation(message):
    cluster, leader, follower, key = make_cluster()
    replica, req = message(leader, follower, key)
    before = served(replica)
    replica.node._dispatch(req)
    assert replica.node.cpu.in_use == 1
    lose_disk_and_settle(cluster, replica, [req], before)


@pytest.mark.parametrize("message", [a_get, a_propose, a_write])
def test_parked_in_the_cpu_queue_a_handler_dies_with_the_incarnation(message):
    cluster, leader, follower, key = make_cluster()
    replica, req = message(leader, follower, key)
    before = served(replica)
    fillers = fill_the_cores(replica, key)
    replica.node._dispatch(req)
    assert replica.node.cpu.queue_length == 1
    lose_disk_and_settle(cluster, replica, fillers + [req], before)


def test_a_propose_parked_on_its_force_dies_with_the_incarnation():
    cluster, leader, follower, key = make_cluster()
    replica, req = a_propose(leader, follower, key)
    before = served(replica)
    replica.node._dispatch(req)
    cluster.run(WRITE_FOLLOWER_SERVICE + 1e-4)
    lsn = req.payload.records[0].lsn
    assert lsn in replica.queue and req.responses == []    # forcing
    lose_disk_and_settle(cluster, replica, [req], before)
    assert lsn not in replica.queue
    assert not replica.node.wal.contains(COHORT, lsn)


@pytest.mark.parametrize("parallel", [True, False])
def test_a_write_parked_on_its_force_dies_with_the_incarnation(parallel):
    """``parallel``: parked on the commit its force and acks feed; the
    serialized ablation parks on the leader's force alone."""
    cluster, leader, follower, key = make_cluster(
        parallel_force_and_propose=parallel)
    replica, req = a_write(leader, follower, key)
    before = served(replica)
    replica.node._dispatch(req)
    cluster.run(WRITE_LEADER_SERVICE + 1e-4)
    assert replica.node.cpu.in_use == 0 and req.responses == []
    assert replica.node.device._pending or replica.node.device._busy
    lose_disk_and_settle(cluster, replica, [req], before)


def test_a_write_parked_on_the_write_gate_dies_with_the_incarnation():
    cluster, leader, follower, key = make_cluster()
    replica, req = a_write(leader, follower, key)
    before = served(replica)
    replica.block_writes()
    replica.node._dispatch(req)
    assert replica.node.cpu.in_use == 0 and req.responses == []
    # the crash itself opens the gate, while the node is already dead
    lose_disk_and_settle(cluster, replica, [req], before)
    assert replica.write_block is None


def test_a_write_held_at_the_gate_goes_on_when_it_opens():
    cluster, leader, follower, key = make_cluster()
    replica, req = a_write(leader, follower, key)
    replica.block_writes()
    replica.node._dispatch(req)
    cluster.run(0.1)
    assert req.responses == []
    replica.unblock_writes()
    cluster.run(1.0)
    assert [r["ok"] for r in req.responses] == [True]
    assert cluster.all_failures() == []


def test_a_crash_with_the_cpu_queue_full_leaks_no_core():
    """More gets in flight than cores when the node crashes: the holders'
    releases used to hand their units to the dead waiters, and the node
    came back with that many cores gone for good."""
    cluster, leader, follower, key = make_cluster()
    node = follower.node
    fillers = fill_the_cores(follower, key)
    waiters = [SpyRequest("spy", ClientGet(key=key, colname=b"c",
                                           consistent=False))
               for _ in range(4)]
    for req in waiters:
        node._dispatch(req)
    assert node.cpu.queue_length == 4
    node.crash()
    cluster.run(1.0)
    node.restart()
    cluster.run(10.0)
    assert node.cpu.in_use == 0
    again = fill_the_cores(follower, key)       # all of them, at once
    cluster.run(2 * READ_SERVICE)
    assert all(len(req.responses) == 1 for req in again)
    assert all(req.responses == [] for req in fillers + waiters)
    assert cluster.all_failures() == []


class Boom(Exception):
    pass


def explode(*_args, **_kwargs):
    raise Boom("a handler bug")


@pytest.mark.parametrize("where", ["on arrival", "after the cpu",
                                   "after the commit"])
def test_a_continuation_that_raises_is_a_failure_and_the_run_goes_on(
        where, monkeypatch):
    cluster, leader, follower, key = make_cluster()
    client = cluster.client()
    node = leader.node
    if where == "on arrival":
        replica, req = a_get(leader, follower, key)
        monkeypatch.setitem(node._cohort_handlers, ClientGet, explode)
    elif where == "after the cpu":
        replica, req = a_get(leader, follower, key)
        monkeypatch.setattr(leader.engine, "get", explode)
    else:
        replica, req = a_write(leader, follower, key)
        monkeypatch.setattr(leader, "_reply_write", explode)
    node._dispatch(req)
    cluster.run(1.0)
    assert req.responses == []
    failures = cluster.all_failures()
    assert len(failures) == 1 and isinstance(failures[0], Boom)
    assert node.cpu.in_use == 0
    monkeypatch.undo()
    node.failures.clear()

    def ops():
        yield from client.put(key, b"c", b"after")
        return (yield from client.get(key, b"c", consistent=True))

    assert drive(cluster, ops(), limit=30.0).value == b"after"
    assert cluster.all_failures() == []


def test_a_wait_that_fails_is_a_failure_not_a_go_ahead():
    """A process waiting on an event that fails has the exception thrown
    into it; a parked continuation must not run as if it had succeeded."""
    cluster, leader, follower, key = make_cluster()
    node = leader.node
    ran = []
    force = Event(cluster.sim)
    node.after(force, ran.append, "acked")
    force.fail(Boom("media error"))
    assert ran == []
    assert [type(f) for f in node.failures] == [Boom]
    node.failures.clear()
    done = Event(cluster.sim).succeed()
    node.after(done, ran.append, "already done")       # runs at once
    assert ran == ["already done"] and cluster.all_failures() == []


# Completions are continuations: a force, a commit and a propose's reply
# call the next step directly.  On a log with no device a force completes
# inside the append, so whatever must precede the continuation has to be
# done before the append, not after it.

def multi_record_propose(follower, key, shape):
    """A propose whose records the follower's empty log takes as one
    batched force, one force per record, or lacks only in part."""
    seq = follower.committed_lsn.seq + 100
    records = tuple(
        WriteRecord(lsn=LSN(follower.epoch, seq + i), cohort_id=COHORT,
                    key=key, colname=b"c", value=b"v%d" % i, version=i + 1)
        for i in range(1 if shape == "one" else 3))
    if shape == "overlap":      # the log already holds the first record
        follower.node.wal.append(records[0])
    return records


@pytest.mark.parametrize("shape", ["one", "batch", "overlap"])
def test_a_follower_acks_only_after_queueing_on_a_deviceless_log(shape):
    """The follower queues a propose's records, then acks — also where
    the force completes inside the append."""
    from repro.storage.wal import SharedLog
    cluster, leader, follower, key = make_cluster()
    follower.node.wal = SharedLog()             # durable at once
    records = multi_record_propose(follower, key, shape)
    req = SpyRequest(leader.node.name, Propose(
        cohort_id=COHORT, epoch=follower.epoch, records=records))
    queued_at_ack = []
    req.respond = lambda value, size=0: queued_at_ack.append(
        [r.lsn in follower.queue for r in records])
    follower._log_propose(req)
    assert queued_at_ack == [[True] * len(records)]
    assert follower.node.failures == []


def test_the_batcher_counts_its_force_before_it_can_complete():
    """``_inflight_forces`` goes up before the append: where the force
    completes inside it, the completion (which commits and may flush the
    buffer) sees its own force in flight, not -1."""
    from repro.storage.wal import SharedLog
    cluster, leader, follower, key = make_cluster()
    leader.node.wal = SharedLog()
    batcher = leader.batcher
    seen = []
    advance = leader._advance

    def spy():
        seen.append(batcher._inflight_forces)
        advance()

    leader._advance = spy
    record = WriteRecord(lsn=leader.alloc_lsn(), cohort_id=COHORT, key=key,
                         colname=b"c", value=b"v", version=1)
    leader._replicate([record], lambda: None)
    assert batcher.batches_sent == 1
    assert seen == [0] and batcher._inflight_forces == 0


def test_a_propose_reply_to_a_crashed_incarnation_is_stale():
    """Acks that land after the leader's endpoint crashed and restarted
    are counted as stale replies and reach no commit queue: the crash
    dropped what their replies were for."""
    cluster, leader, follower, key = make_cluster()
    node, endpoint = leader.node, leader.node.endpoint
    record = WriteRecord(lsn=leader.alloc_lsn(), cohort_id=COHORT, key=key,
                         colname=b"c", value=b"v", version=1)
    committed = []
    leader._replicate([record], lambda: committed.append(record.lsn))
    assert leader.batcher.batches_sent == 1     # both proposes in flight
    stale, dropped = endpoint.stale_replies, cluster.network.messages_dropped
    node.crash()
    node.restart()              # back before either ack lands
    # the new incarnation happens to queue the same LSN again
    entry = leader.queue.add(record)
    cluster.run(0.05)
    assert endpoint.stale_replies == stale + 2
    assert cluster.network.messages_dropped == dropped
    assert entry.acks == frozenset() and committed == []
    assert cluster.all_failures() == []
