"""The write path's two bounds on waiting for company.

* The leader: a write held in the proposal batcher flushes within
  ``propose_batch_window`` — it never rides out a slow force.
* A follower: proposes whose CPU slices end while this replica's last
  force is still queued on the log device join that force, and the
  group gets one ``Ack``, for its top LSN (``CohortReplica._log_propose``).
"""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.batching import ProposalBatcher
from repro.core.messages import Ack, Propose
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord

COHORT = 0
#: a force takes exactly this long; a follower's CPU slice far less
FORCE_S = 5e-3


class SpyRequest:
    """A delivered propose that records its replies."""

    def __init__(self, src, payload):
        self.src = src
        self.payload = payload
        self.responses = []

    def respond(self, value, size=0):
        self.responses.append(value)


def make_cluster(**overrides):
    cfg = SpinnakerConfig(
        log_profile=DiskProfile("flat", FORCE_S, FORCE_S, transfer_rate=0),
        commit_period=0.25, **overrides)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=41)
    cluster.start()
    cluster.run(2.0)
    leader = cluster.replica(cluster.leader_of(COHORT), COHORT)
    follower = cluster.replica(leader.peers()[0], COHORT)
    return cluster, leader, follower


def proposes(follower, src, count, epoch=None):
    """``count`` proposes of one record each, each on top of the last,
    continuing the follower's log."""
    epoch = follower.epoch if epoch is None else epoch
    prev = follower.node.wal.last_lsn(COHORT)
    out = []
    for i in range(count):
        lsn = LSN(epoch, prev.seq + 1)
        record = WriteRecord(lsn=lsn, cohort_id=COHORT, key=b"g-%d" % i,
                             colname=b"c", value=b"v", version=1)
        out.append(SpyRequest(src, Propose(
            cohort_id=COHORT, epoch=epoch, records=(record,), prev=prev)))
        prev = lsn
    return out


def occupy_the_device(follower):
    """Start a device operation, so the next forces queue behind it."""
    follower.node.wal.force(0, lambda: None)
    assert follower.node.device._busy


def deliver(cluster, follower, reqs):
    for req in reqs:
        follower.node._dispatch(req)
    cluster.run(1e-3)           # every CPU slice ends; the device is busy


def acks(req):
    assert all(isinstance(reply, Ack) for reply in req.responses)
    return [reply.lsn for reply in req.responses]


def test_proposes_in_one_device_operation_get_one_ack():
    cluster, leader, follower = make_cluster()
    device = follower.node.device
    occupy_the_device(follower)
    ops, handled = device.ops_performed, follower.proposes_handled
    reqs = proposes(follower, leader.node.name, 4)
    deliver(cluster, follower, reqs)
    assert [acks(req) for req in reqs] == [[]] * 4   # queued, not started
    cluster.run(3 * FORCE_S)
    top = reqs[-1].payload.records[-1].lsn
    assert [acks(req) for req in reqs] == [[], [], [], [top]]
    assert follower.proposes_handled == handled + 4
    assert device.ops_performed == ops + 2   # the occupier, then the group
    wal = follower.node.wal
    assert wal.durable(COHORT, [req.payload.records[0] for req in reqs])
    assert cluster.all_failures() == []


def test_each_propose_applies_its_commit_point():
    cluster, leader, follower = make_cluster()
    applied = []
    follower._apply_commit_info = applied.append
    occupy_the_device(follower)
    reqs = proposes(follower, leader.node.name, 3)
    points = [LSN(0, 7), None, LSN(0, 9)]
    for req, point in zip(reqs, points):
        req.payload = Propose(
            cohort_id=COHORT, epoch=req.payload.epoch,
            records=req.payload.records, prev=req.payload.prev,
            committed_lsn=point)
    deliver(cluster, follower, reqs)
    cluster.run(3 * FORCE_S)
    assert applied == [LSN(0, 7), LSN(0, 9)]
    assert [len(req.responses) for req in reqs] == [0, 0, 1]


@pytest.mark.parametrize("other", ["leader", "epoch"])
def test_a_propose_of_another_leader_or_epoch_never_joins(other):
    cluster, leader, follower = make_cluster()
    occupy_the_device(follower)
    first = proposes(follower, leader.node.name, 1)[0]
    follower.node._dispatch(first)
    third = next(m for m in follower.cohort.members
                 if m not in (leader.node.name, follower.node.name))
    top = first.payload.records[-1].lsn
    epoch = top.epoch + (other == "epoch")
    record = WriteRecord(lsn=LSN(epoch, top.seq + 1), cohort_id=COHORT,
                         key=b"other", colname=b"c", value=b"v", version=1)
    second = SpyRequest(
        third if other == "leader" else leader.node.name,
        Propose(cohort_id=COHORT, epoch=record.lsn.epoch, records=(record,),
                prev=top))
    follower.node._dispatch(second)
    cluster.run(3 * FORCE_S)
    assert acks(first) == [top]
    assert acks(second) == [record.lsn]
    assert cluster.all_failures() == []


def test_without_group_commit_every_propose_is_acked():
    cluster, leader, follower = make_cluster(group_commit=False)
    occupy_the_device(follower)
    handled = follower.proposes_handled
    reqs = proposes(follower, leader.node.name, 3)
    deliver(cluster, follower, reqs)
    cluster.run(5 * FORCE_S)
    assert [acks(req) for req in reqs] == [
        [req.payload.records[-1].lsn] for req in reqs]
    assert follower.proposes_handled == handled + 3
    assert cluster.all_failures() == []


def test_a_crash_mid_group_acks_nothing():
    cluster, leader, follower = make_cluster()
    occupy_the_device(follower)
    handled = follower.proposes_handled
    reqs = proposes(follower, leader.node.name, 3)
    deliver(cluster, follower, reqs)
    assert len(follower._force_group[3]) == 2      # two joined the first
    follower.node.lose_disk()       # crash, wipe and boot at one instant
    cluster.run(10.0)               # recovery, election, catch-up
    assert [req.responses for req in reqs] == [[], [], []]
    assert follower.proposes_handled == handled
    assert cluster.all_failures() == []


def test_a_held_write_waits_at_most_the_window(monkeypatch):
    """SATA, 24 closed-loop writers: the queue stays congested, so most
    writes are held — each flushes within ``propose_batch_window``, even
    with a seek-penalised force in flight (riding one held writes up to
    26 ms on ``write_strong``)."""
    held_since, waits = {}, []
    submit, send = ProposalBatcher.submit, ProposalBatcher._send

    def timed_submit(self, entry):
        held_since[id(entry)] = self.replica.node.sim.now
        submit(self, entry)

    def timed_send(self, entries):
        now = self.replica.node.sim.now
        waits.extend(now - held_since.pop(id(entry)) for entry in entries)
        send(self, entries)

    monkeypatch.setattr(ProposalBatcher, "submit", timed_submit)
    monkeypatch.setattr(ProposalBatcher, "_send", timed_send)
    cfg = SpinnakerConfig(log_profile=DiskProfile.sata_log())
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=43)
    cluster.start()
    cluster.run(2.0)

    def writer(w):
        client = cluster.client(f"writer{w}")
        for i in range(25):
            yield from client.put(b"w%d-%d" % (w, i), b"c", b"v" * 4096)

    procs = [spawn(cluster.sim, writer(w)) for w in range(24)]
    cluster.run_until(lambda: all(p.triggered for p in procs), limit=60.0,
                      what="the writers")
    assert len(waits) >= 24 * 25
    assert sum(wait > 0 for wait in waits) > len(waits) // 2   # held
    assert max(waits) <= cfg.propose_batch_window + 1e-12
    assert cluster.all_failures() == []
