"""Message handlers are chains of plain functions, not processes: what a
crash used to do to them by ``kill_all`` the incarnation guard must do
now.  A handler parked at any of its waiting points — in its CPU hold,
in the CPU queue, on a log force, on the write gate — when the node
loses its disk (crash, wipe and boot at one instant) sends no reply,
touches no replica state and leaves every core free; one that raises is
a recorded failure of its node and the run goes on."""

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.commitqueue import PendingWrite
from repro.core.config import (COMMIT_APPLY_SERVICE, CORES_PER_NODE,
                               PROPOSE_RECORD_SERVICE, READ_SERVICE,
                               WRITE_FOLLOWER_SERVICE, WRITE_LEADER_SERVICE)
from repro.core.messages import (ClientGet, ClientWrite, Commit, Propose,
                                 WriteOp)
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
    last = follower.node.wal.last_lsn(COHORT)
    record = WriteRecord(lsn=LSN(follower.epoch, last.seq + 1),
                         cohort_id=COHORT, key=key, colname=b"c", value=b"v",
                         version=1)
    return follower, SpyRequest(leader.node.name, Propose(
        cohort_id=COHORT, epoch=follower.epoch, records=(record,),
        prev=last))


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
    wal = replica.node.wal
    # forcing: in the log's volatile tail — its only copy — and unacked
    view = wal._view(COHORT)
    seq_of = dict(zip([record.lsn for record in view.writes], view.seqs))
    assert seq_of[lsn] > wal._durable_seq
    assert len(replica.queue) == 0 and req.responses == []
    lose_disk_and_settle(cluster, replica, [req], before)
    assert len(replica.queue) == 0
    assert not wal.contains(COHORT, lsn)


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
    """A propose, just above the follower's f.cmt, whose records its
    empty log takes as one force, as one batched force, or lacks only in
    part."""
    seq = follower.committed_lsn.seq + 1
    records = tuple(
        WriteRecord(lsn=LSN(follower.epoch, seq + i), cohort_id=COHORT,
                    key=key, colname=b"c", value=b"v%d" % i, version=i + 1)
        for i in range(1 if shape == "one" else 3))
    if shape == "overlap":      # the log already holds the first record
        follower.node.wal.append(records[0])
    return records


@pytest.mark.parametrize("shape", ["one", "batch", "overlap"])
def test_a_follower_acks_only_after_queueing_on_a_deviceless_log(shape,
                                                                 monkeypatch):
    """A follower's commit queue is its log above f.cmt: it acks a
    propose's top LSN only once every record is in the log — also where
    the force completes inside the call — and the next commit applies
    exactly those records, in LSN order, from there."""
    from repro.storage.wal import SharedLog
    cluster, leader, follower, key = make_cluster()
    wal = follower.node.wal = SharedLog()       # durable at once
    records = multi_record_propose(follower, key, shape)
    req = SpyRequest(leader.node.name, Propose(
        cohort_id=COHORT, epoch=follower.epoch, records=records,
        prev=follower.committed_lsn))
    logged_at_ack = []
    req.respond = lambda value, size=0: logged_at_ack.append(
        (value.lsn, [wal.contains(COHORT, r.lsn) for r in records]))
    follower.handle_propose(req)
    assert [wal.contains(COHORT, r.lsn) for r in records] == (
        [True] * len(records))                  # logged on arrival
    cluster.run(WRITE_FOLLOWER_SERVICE + 2 * PROPOSE_RECORD_SERVICE + 1e-4)
    assert logged_at_ack == [(records[-1].lsn, [True] * len(records))]
    assert len(follower.queue) == 0
    applied, charged = [], []
    monkeypatch.setattr(follower.engine, "apply", applied.append)
    monkeypatch.setattr(follower.node, "charge_background", charged.append)
    follower.handle_commit(leader.node.name, Commit(
        cohort_id=COHORT, epoch=follower.epoch, lsn=records[-1].lsn))
    assert applied == list(records)
    assert charged == [len(records) * COMMIT_APPLY_SERVICE]
    assert follower.committed_lsn == records[-1].lsn
    assert follower.role == Role.FOLLOWER and follower.node.failures == []


def test_a_force_that_completes_inside_the_append_marks_its_entry():
    """Where the log has no device the force completes inside the
    append, before the propose goes out: the entry is forced, nothing
    is acked yet, so nothing commits until an ack arrives."""
    from repro.storage.wal import SharedLog
    cluster, leader, follower, key = make_cluster()
    leader.node.wal = SharedLog()
    record = WriteRecord(lsn=leader.alloc_lsn(), cohort_id=COHORT, key=key,
                         colname=b"c", value=b"v", version=1)
    committed = []
    leader._replicate([record], lambda: committed.append(record.lsn))
    (entry,) = leader.queue
    assert entry.forced and entry.acks == frozenset()
    assert leader.proposes_sent == 1 and committed == []


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
    assert leader.proposes_sent == 1     # both proposes in flight
    stale, dropped = endpoint.stale_replies, cluster.network.messages_dropped
    node.crash()
    node.restart()              # back before either ack lands
    # the new incarnation happens to queue the same LSN again
    entry = leader.queue.add(PendingWrite([record]))
    cluster.run(0.05)
    assert endpoint.stale_replies == stale + 2
    assert cluster.network.messages_dropped == dropped
    assert entry.acks == frozenset() and committed == []
    assert cluster.all_failures() == []


def test_a_shorter_propose_is_not_acked_before_a_longer_one_before_it():
    """Proposes arrive in LSN order but a follower's cores finish them
    out of it: a 4-record propose's CPU slice outlasts the 1-record one
    right behind it.  The 1-record ack is cumulative — it tells the
    leader everything up to its LSN is durable here — so it may go out
    only once the 4 records are durable too: they are logged on
    arrival, and the 1-record propose's force covers them."""
    cluster, leader, follower, key = make_cluster()
    node, wal = follower.node, follower.node.wal
    last = wal.last_lsn(COHORT)
    records = [WriteRecord(lsn=LSN(follower.epoch, last.seq + 1 + i),
                           cohort_id=COHORT, key=key, colname=b"c",
                           value=b"v%d" % i, version=i + 1)
               for i in range(5)]
    four = SpyRequest(leader.node.name, Propose(
        cohort_id=COHORT, epoch=follower.epoch, records=tuple(records[:4]),
        prev=last))
    one = SpyRequest(leader.node.name, Propose(
        cohort_id=COHORT, epoch=follower.epoch, records=(records[4],),
        prev=records[3].lsn))
    durable_at_ack = []

    def durable_then(req):
        def respond(value, size=0):
            view = wal._view(COHORT)
            seq_of = dict(zip([r.lsn for r in view.writes], view.seqs))
            durable_at_ack.append((value.lsn, [
                seq_of.get(r.lsn, wal._seq + 1) <= wal._durable_seq
                for r in records]))
        req.respond = respond

    durable_then(four)
    durable_then(one)
    node._dispatch(four)
    node._dispatch(one)
    cluster.run(1.0)
    assert [lsn for lsn, _ in durable_at_ack] == [records[4].lsn,
                                                  records[3].lsn]
    for lsn, durable in durable_at_ack:
        assert durable[:lsn.seq - last.seq] == [True] * (lsn.seq - last.seq)
    assert cluster.all_failures() == []
