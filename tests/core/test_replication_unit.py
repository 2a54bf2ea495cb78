"""Unit-level tests of the replication state machine (§5, Fig. 4):
epoch fencing, commit ordering, commit messages, piggybacking."""

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.messages import Ack, Commit, Propose
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord


def make_cluster(**overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.25)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=21)
    cluster.start()
    return cluster


def leader_and_follower(cluster, cohort_id=0):
    cluster.run(2.0)  # let every monitor finish its bootstrap round
    leader_name = cluster.leader_of(cohort_id)
    leader = cluster.replica(leader_name, cohort_id)
    follower_name = next(m for m in
                         cluster.partitioner.cohort(cohort_id).members
                         if m != leader_name)
    return leader, cluster.replica(follower_name, cohort_id)


def wrec(replica, seq, key=b"k", value=b"v", epoch=None):
    return WriteRecord(lsn=LSN(epoch or replica.epoch, seq),
                       cohort_id=replica.cohort_id, key=key,
                       colname=b"c", value=value, version=seq)


class FakeRequest:
    """Stands in for a network Request in direct handler tests."""

    def __init__(self, src):
        self.src = src
        self.payload = None
        self.responses = []

    def with_payload(self, payload):
        self.payload = payload
        return self

    def respond(self, value, size=0):
        self.responses.append(value)


def deliver(cluster, replica, req):
    """Hand ``req`` to the replica's node as the network would, and let
    its handler (a chain of functions, not a process) run out."""
    replica.node._dispatch(req)
    cluster.run(5.0)
    assert not cluster.all_failures()


def test_follower_rejects_stale_epoch_propose():
    cluster = make_cluster()
    leader, follower = leader_and_follower(cluster)
    stale = Propose(cohort_id=follower.cohort_id,
                    epoch=follower.epoch - 1,
                    records=(wrec(follower, 999, epoch=1),))
    req = FakeRequest(src="impostor").with_payload(stale)
    deliver(cluster, follower, req)
    assert req.responses == []          # no ack for a stale leader
    assert not cluster.nodes[follower.node.name].wal.contains(
        follower.cohort_id, LSN(1, 999))


def test_follower_adopts_higher_epoch_from_propose():
    cluster = make_cluster()
    leader, follower = leader_and_follower(cluster)
    next_seq = follower.node.wal.last_lsn(follower.cohort_id).seq + 1
    higher = Propose(cohort_id=follower.cohort_id,
                     epoch=follower.epoch + 3,
                     records=(WriteRecord(
                         lsn=LSN(follower.epoch + 3, next_seq),
                         cohort_id=follower.cohort_id, key=b"k",
                         colname=b"c", value=b"v", version=1),))
    req = FakeRequest(src="new-leader").with_payload(higher)
    deliver(cluster, follower, req)
    assert follower.epoch == higher.epoch
    assert follower.leader == "new-leader"
    assert len(req.responses) == 1
    ack = req.responses[0]
    assert isinstance(ack, Ack) and ack.epoch == higher.epoch


def test_recovering_replica_ignores_proposes():
    cluster = make_cluster()
    leader, follower = leader_and_follower(cluster)
    follower.role = Role.RECOVERING
    msg = Propose(cohort_id=follower.cohort_id, epoch=follower.epoch,
                  records=(wrec(follower, 900),))
    req = FakeRequest(src=leader.node.name).with_payload(msg)
    deliver(cluster, follower, req)
    assert req.responses == []  # would create a log gap (§6.1)


def test_commit_message_applies_pending_and_logs_marker():
    cluster = make_cluster()
    leader, follower = leader_and_follower(cluster)
    seq = follower.node.wal.last_lsn(follower.cohort_id).seq + 1
    record = WriteRecord(lsn=LSN(follower.epoch, seq),
                         cohort_id=follower.cohort_id, key=b"cmt-key",
                         colname=b"c", value=b"v", version=1)
    msg = Propose(cohort_id=follower.cohort_id, epoch=follower.epoch,
                  records=(record,))
    req = FakeRequest(src=leader.node.name).with_payload(msg)
    deliver(cluster, follower, req)
    assert follower.engine.get(b"cmt-key", b"c") is None  # pending only
    follower.handle_commit(leader.node.name, Commit(
        cohort_id=follower.cohort_id, epoch=follower.epoch,
        lsn=record.lsn))
    assert follower.engine.get(b"cmt-key", b"c").value == b"v"
    assert follower.committed_lsn == record.lsn
    assert follower.node.wal.last_committed_lsn(
        follower.cohort_id) == record.lsn


def test_stale_commit_message_ignored():
    cluster = make_cluster()
    leader, follower = leader_and_follower(cluster)
    before = follower.committed_lsn
    follower.handle_commit("impostor", Commit(
        cohort_id=follower.cohort_id, epoch=follower.epoch - 1,
        lsn=LSN(9, 9)))
    assert follower.committed_lsn == before


def test_piggybacked_commit_info_applies_at_follower():
    cluster = make_cluster(piggyback_commits=True)
    client = cluster.client()
    cohort_id = 0
    keys, i = [], 0
    while len(keys) < 3:
        key = b"pb-%d" % i
        if cluster.partitioner.cohort_for_key(
                key_of(key)).cohort_id == cohort_id:
            keys.append(key)
        i += 1

    def writes():
        for key in keys:
            yield from client.put(key, b"c", b"v")

    proc = spawn(cluster.sim, writes())
    cluster.run_until(lambda: proc.triggered, limit=30.0, what="writes")
    # Followers learned commit state from piggybacked info on the NEXT
    # propose — well before any commit_period tick.
    leader, follower = leader_and_follower(cluster, cohort_id)
    assert follower.committed_lsn >= LSN(leader.epoch, 1)
    # At least the first two writes are applied at the follower already.
    assert follower.engine.get(keys[0], b"c") is not None


def test_leader_commit_requires_lsn_order():
    """A later write never commits before an earlier one, even if its
    quorum completes first (head-of-line rule, §5.1)."""
    cluster = make_cluster()
    leader, follower = leader_and_follower(cluster)
    seq0 = leader.node.wal.last_lsn(leader.cohort_id).seq
    r1 = wrec(leader, seq0 + 1, key=b"a")
    r2 = wrec(leader, seq0 + 2, key=b"b")
    leader.queue.add(r1)
    leader.queue.add(r2)
    leader.queue.mark_forced(r2.lsn)
    leader.queue.add_ack(r2.lsn, "someone")
    assert leader.queue.advance_leader() == []
    leader.queue.mark_forced(r1.lsn)
    leader.queue.add_ack(r1.lsn, "someone")
    committed = leader.queue.advance_leader()
    assert [r.key for r in committed] == [b"a", b"b"]


def test_broadcast_commit_skips_when_nothing_new():
    cluster = make_cluster()
    leader, follower = leader_and_follower(cluster)
    sent_before = cluster.network.messages_sent
    leader.broadcast_commit()  # nothing committed since last broadcast
    leader.broadcast_commit()
    assert cluster.network.messages_sent == sent_before
