"""Receive-side batching: a follower folds the proposes queued for its
CPU into one slice (``CohortReplica.handle_propose``).

A propose that arrives while this replica's last propose slice from the
same leader and epoch still waits for a core joins that slice for
``PROPOSE_RECORD_SERVICE`` a record, within the leader's batch limits.
When the slice runs, the proposes it carries are forced once and acked
once, for the top LSN.  With a core free every propose keeps its own
slice."""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.config import (CORES_PER_NODE, PROPOSE_RECORD_SERVICE,
                               READ_SERVICE, WRITE_FOLLOWER_SERVICE)
from repro.core.messages import ClientGet, Propose
from repro.sim.disk import DiskProfile
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord

from .test_handler_continuations import SpyRequest

COHORT = 0


def make_cluster(**overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.sata_log(),
                          commit_period=0.25, **overrides)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=33)
    cluster.start()
    cluster.run(2.0)
    leader = cluster.replica(cluster.leader_of(COHORT), COHORT)
    follower = cluster.replica(leader.peers()[0], COHORT)
    return cluster, leader, follower


def saturate(cluster, follower):
    """One timeline get per core, all holding for ``READ_SERVICE``."""
    node = follower.node
    key = cluster.keys_in_cohort(COHORT, 1, b"rb-")[0]
    for _ in range(CORES_PER_NODE):
        node._dispatch(SpyRequest("spy", ClientGet(key=key, colname=b"c",
                                                   consistent=False)))
    assert node.cpu.in_use == CORES_PER_NODE and node.cpu.queue_length == 0


def proposes(follower, src, counts, epoch=None):
    """One propose per entry of ``counts`` (its record count), each on
    top of the last: the leader's stream above the follower's tail."""
    epoch = follower.epoch if epoch is None else epoch
    prev = follower.node.wal.last_lsn(COHORT)
    reqs = []
    for count in counts:
        records = []
        for _ in range(count):
            lsn = LSN(epoch, prev.seq + 1 + len(records))
            records.append(WriteRecord(lsn=lsn, cohort_id=COHORT,
                                       key=b"rb-%d" % lsn.seq, colname=b"c",
                                       value=b"v", version=1))
        reqs.append(SpyRequest(src, Propose(
            cohort_id=COHORT, epoch=epoch, records=tuple(records),
            prev=prev)))
        prev = records[-1].lsn
    return reqs


def count_forces(node):
    forces = []
    force = node.wal.force

    def counted(size, then):
        forces.append(size)
        return force(size, then)

    node.wal.force = counted
    return forces


def acked(reqs):
    return [(i, ack.lsn) for i, req in enumerate(reqs)
            for ack in req.responses]


def test_proposes_queued_behind_busy_cores_share_one_slice_force_and_ack():
    cluster, leader, follower = make_cluster()
    node = follower.node
    saturate(cluster, follower)
    forces = count_forces(node)
    handled = follower.proposes_handled
    k = 5
    reqs = proposes(follower, leader.node.name, [1] * k)
    for req in reqs:
        node._dispatch(req)
    # every record is in the log on arrival; one slice waits for a core
    assert node.wal.last_lsn(COHORT) == reqs[-1].payload.records[-1].lsn
    assert node.cpu.queue_length == 1
    assert node.cpu._queue[0].service_time == pytest.approx(
        WRITE_FOLLOWER_SERVICE + PROPOSE_RECORD_SERVICE * (k - 1))
    cluster.run(READ_SERVICE + 0.1)
    assert len(forces) == 1
    assert acked(reqs) == [(k - 1, reqs[-1].payload.records[-1].lsn)]
    assert follower.proposes_handled == handled + k
    assert cluster.all_failures() == []


def test_the_leaders_batch_limit_splits_a_longer_run_into_two_slices():
    cluster, leader, follower = make_cluster()
    node = follower.node
    limit = cluster.config.propose_batch_max_records
    saturate(cluster, follower)
    handled = follower.proposes_handled
    # the limit's worth of records in two proposes, then one more
    reqs = proposes(follower, leader.node.name, [limit - 2, 2, 1])
    for req in reqs:
        node._dispatch(req)
    assert [charge.service_time for charge in node.cpu._queue] == [
        pytest.approx(WRITE_FOLLOWER_SERVICE
                      + PROPOSE_RECORD_SERVICE * (limit - 1)),
        pytest.approx(WRITE_FOLLOWER_SERVICE)]
    cluster.run(READ_SERVICE + 0.1)
    top = reqs[-1].payload.records[-1].lsn
    assert top in [lsn for _, lsn in acked(reqs)]
    assert follower.proposes_handled == handled + 3
    assert cluster.all_failures() == []


@pytest.mark.parametrize("other", ["leader", "epoch"])
def test_a_propose_from_another_leader_or_epoch_never_joins(other):
    cluster, leader, follower = make_cluster()
    node = follower.node
    saturate(cluster, follower)
    reqs = proposes(follower, leader.node.name, [1, 1, 1])
    for req in reqs[1:]:
        if other == "leader":
            req.src = "someone-else"
        else:
            msg = req.payload
            req.payload = Propose(cohort_id=COHORT, epoch=msg.epoch + 1,
                                  records=msg.records, prev=msg.prev)
    for req in reqs:
        node._dispatch(req)
    # the second opens a slice of its own, which the third joins
    assert node.cpu.queue_length == 2
    cluster.run(READ_SERVICE + 0.1)
    assert [i for i, _ in acked(reqs)] == [0, 2]
    assert cluster.all_failures() == []


@pytest.mark.parametrize("loss", ["crash", "step_down"])
def test_a_slice_whose_replica_is_lost_while_queued_acks_nothing(loss):
    cluster, leader, follower = make_cluster()
    node = follower.node
    saturate(cluster, follower)
    handled = follower.proposes_handled
    reqs = proposes(follower, leader.node.name, [1, 1, 1])
    for req in reqs:
        node._dispatch(req)
    assert node.cpu.queue_length == 1
    if loss == "crash":
        node.crash()
    else:
        follower.step_down()
    cluster.run(READ_SERVICE + 0.05)
    assert acked(reqs) == []
    assert follower.proposes_handled == handled
    assert follower._slices == {} and follower._cpu_slice is None
    assert cluster.all_failures() == []


def test_with_a_core_free_each_propose_keeps_its_own_slice():
    """Passes before receive-side batching too: it only batches where
    a queue has formed."""
    cluster, leader, follower = make_cluster()
    node = follower.node
    handled = follower.proposes_handled
    k = 3
    reqs = proposes(follower, leader.node.name, [1] * k)
    for req in reqs:
        node._dispatch(req)
    assert node.cpu.in_use == k and node.cpu.queue_length == 0
    cluster.run(0.1)
    assert follower.proposes_handled == handled + k
    assert acked(reqs)[-1] == (k - 1, reqs[-1].payload.records[-1].lsn)
    assert cluster.all_failures() == []
