"""Tests for proposal batching (core/batching.py): chunk packing, the
leader's one force and one propose per write group, folding at a busy
follower, and leadership-change safety.
"""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig, Transaction
from repro.core.batching import chunk_groups
from repro.core.commitqueue import PendingWrite
from repro.core.config import CORES_PER_NODE
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord


def make_cluster(n_nodes=3, seed=27, **overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cluster = SpinnakerCluster(n_nodes=n_nodes, config=cfg, seed=seed)
    cluster.start()
    return cluster


def run(cluster, gen, limit=60.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="client")
    return proc.result()


def cohort_keys(cluster, cohort_id, count, prefix=b"bat"):
    keys, i = [], 0
    while len(keys) < count:
        key = prefix + b"-%d" % i
        if cluster.partitioner.cohort_for_key(
                key_of(key)).cohort_id == cohort_id:
            keys.append(key)
        i += 1
    return keys


def grp(*sizes, nbytes=100):
    """Build record groups with the given sizes; values sized so each
    record encodes to roughly ``nbytes``."""
    groups, seq = [], 0
    for size in sizes:
        group = []
        for _ in range(size):
            seq += 1
            group.append(WriteRecord(
                lsn=LSN(1, seq), cohort_id=0, key=b"k", colname=b"c",
                value=b"x" * nbytes, version=seq))
        groups.append(tuple(group))
    return groups


# ---------------------------------------------------------------------------
# chunk_groups: pure packing logic
# ---------------------------------------------------------------------------

def test_chunk_groups_packs_up_to_record_limit():
    batches = chunk_groups(grp(1, 1, 1, 1, 1, 1, 1, 1),
                           max_records=3, max_bytes=1 << 20)
    assert [len(b) for b in batches] == [3, 3, 2]


def test_chunk_groups_never_splits_a_group():
    batches = chunk_groups(grp(2, 4, 2), max_records=5, max_bytes=1 << 20)
    # The 4-group does not fit after the 2-group (6 > 5), so it starts a
    # new batch — and is never broken apart.
    assert [len(b) for b in batches] == [2, 4, 2]


def test_chunk_groups_oversized_group_forms_own_batch():
    batches = chunk_groups(grp(1, 7, 1), max_records=4, max_bytes=1 << 20)
    assert [len(b) for b in batches] == [1, 7, 1]


def test_chunk_groups_respects_byte_limit():
    records = grp(1, 1, 1, nbytes=4096)
    one = sum(r.encoded_size() for r in records[0])
    batches = chunk_groups(records, max_records=100, max_bytes=2 * one)
    assert [len(b) for b in batches] == [2, 1]


# ---------------------------------------------------------------------------
# The leader: one force and one propose per write group, at once
# ---------------------------------------------------------------------------

def spy_replicate(leader):
    """Wrap ``leader._replicate``: per call, the proposes it sent and
    whether its records were in the log when it returned."""
    calls = []
    replicate = leader._replicate

    def spied(records, then, **kwargs):
        sent = leader.proposes_sent
        replicate(records, then, **kwargs)
        calls.append((leader.proposes_sent - sent, all(
            leader.node.wal.contains(0, r.lsn) for r in records)))

    leader._replicate = spied
    return calls


def test_concurrent_writes_coalesce_into_batches():
    """Not at the leader: it sends one propose per write.  The proposes
    that queue for a follower's busy cores fold into one CPU slice
    (receive-side batching), up to ``propose_batch_max_records``."""
    cluster = make_cluster(seed=29)
    cluster.run(2.0)
    leader = cluster.replica(cluster.leader_of(0), 0)
    follower = cluster.replica(leader.peers()[0], 0)
    node = follower.node
    slices = []
    charge = node.charge

    def counted(service_time, then, *args):
        if then == follower._log_propose:
            slices.append(args[0])
        return charge(service_time, then, *args)

    node.charge = counted
    for _ in range(CORES_PER_NODE):         # every core busy for 20 ms
        node.charge(0.02, lambda: None)
    sent, handled = leader.proposes_sent, follower.proposes_handled
    keys = cohort_keys(cluster, 0, 6)
    client = cluster.client()
    procs = [spawn(cluster.sim, client.put(k, b"c", b"v")) for k in keys]
    cluster.run_until(lambda: all(p.triggered for p in procs),
                      limit=30.0, what="concurrent puts")
    for proc in procs:
        assert proc.result().version == 1
    assert leader.proposes_sent - sent == len(keys)
    assert follower.proposes_handled - handled == len(keys)
    assert len(slices) == 1                 # all six shared one slice
    assert cluster.all_failures() == []


def test_sequential_writes_never_wait_for_company():
    cluster = make_cluster(seed=31)
    cluster.run(2.0)
    key = cohort_keys(cluster, 0, 1)[0]
    leader = cluster.replica(cluster.leader_of(0), 0)
    calls = spy_replicate(leader)
    client = cluster.client()

    def scenario():
        for i in range(10):
            result = yield from client.put(key, b"c", b"v%d" % i)
            assert result.version == i + 1

    run(cluster, scenario())
    # Each write was logged and proposed inside the call that admitted
    # it: one propose each, none deferred to a later event.
    assert calls == [(1, True)] * 10
    assert cluster.all_failures() == []


def test_a_write_is_forced_and_proposed_in_the_event_it_is_admitted():
    """Older writes pending and the leader's force in flight — where the
    batcher used to hold a write for company — the next write is still
    logged and proposed at once, and leaves no timer behind."""
    cluster = make_cluster(seed=37)
    cluster.run(2.0)
    leader = cluster.replica(cluster.leader_of(0), 0)
    node, sim = leader.node, cluster.sim
    keys = cohort_keys(cluster, 0, 3)

    def make(key):
        return WriteRecord(lsn=leader.alloc_lsn(), cohort_id=0, key=key,
                           colname=b"c", value=b"v", version=1)

    first = make(keys[0])
    leader._replicate([first], lambda: None)
    leader.queue.add(PendingWrite([make(keys[1])]))
    assert not node.wal.durable(0, [first])         # its force in flight
    sent, messages = leader.proposes_sent, cluster.network.messages_sent
    heap = len(sim._heap)
    record = make(keys[2])
    leader._replicate([record], lambda: None)
    assert node.wal.contains(0, record.lsn)
    assert leader.proposes_sent == sent + 1
    assert cluster.network.messages_sent == messages + len(leader.peers())
    # the two proposes' deliveries; the force queued behind the busy
    # device, which holds no heap entry of its own
    assert len(sim._heap) == heap + len(leader.peers())
    assert cluster.all_failures() == []


def test_transaction_group_stays_indivisible():
    cluster = make_cluster(n_nodes=5, seed=33, propose_batch_max_records=2)
    cluster.run(2.0)
    keys = cohort_keys(cluster, 0, 5)
    leader = cluster.replica(cluster.leader_of(0), 0)
    forces = []
    append_batch = leader.node.wal.append_batch

    def spied(records, then=None):
        if records[0].cohort_id == 0:
            forces.append(len(records))
        return append_batch(records, then=then)

    leader.node.wal.append_batch = spied
    sent, proposed = leader.proposes_sent, leader.records_proposed
    client = cluster.client()

    def scenario():
        txn = Transaction(client)
        for k in keys:
            txn.put(k, b"c", b"atomic")
        return (yield from txn.commit())

    result = run(cluster, scenario())
    assert result.version == 1
    # Five records, limit two: the group is one force and one propose,
    # never split across them — the limit caps folding, not a group.
    assert forces == [5]
    assert (leader.proposes_sent - sent,
            leader.records_proposed - proposed) == (1, 5)
    client2 = cluster.client("client1")
    for k in keys:
        got = run(cluster, client2.get(k, b"c", consistent=True))
        assert got.found and got.value == b"atomic"
    assert cluster.all_failures() == []


# ---------------------------------------------------------------------------
# Leadership-change safety
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss", ["step_down", "crash"])
def test_a_step_down_between_force_and_ack_commits_no_phantom(loss):
    """Leadership lost with the write's force in flight: its force
    completes against a bumped generation and marks nothing, so the
    deposed leader commits, applies and answers nothing of it — even
    as its followers' acks arrive."""
    cluster = make_cluster(seed=37)
    cluster.run(2.0)
    leader = cluster.replica(cluster.leader_of(0), 0)
    node = leader.node
    key = cohort_keys(cluster, 0, 1)[0]
    record = WriteRecord(lsn=leader.alloc_lsn(), cohort_id=0, key=key,
                         colname=b"c", value=b"phantom", version=1)
    committed = []
    leader._replicate([record], lambda: committed.append(record.lsn))
    assert node.wal.contains(0, record.lsn)
    assert not node.wal.durable(0, [record])
    if loss == "crash":
        node.crash()
    else:
        leader.step_down()
    cluster.run(0.05)           # the force and both acks are in
    assert committed == []
    assert leader.committed_lsn < record.lsn
    assert not [entry for entry in leader.queue if entry.forced]
    assert leader.engine.get(key, b"c") is None
    assert cluster.all_failures() == []


def test_takeover_reproposes_tail_in_batches():
    # A long uncommitted tail (commit messages effectively disabled)
    # must survive a leader crash; the successor re-proposes it batched.
    cluster = make_cluster(n_nodes=5, seed=39, commit_period=30.0)
    cluster.run(2.0)
    keys = cohort_keys(cluster, 0, 20)
    client = cluster.client()

    def writes():
        for k in keys:
            result = yield from client.put(k, b"c", b"keep")
            assert result.version == 1

    run(cluster, writes())
    cluster.kill_leader(0)
    cluster.run_until(lambda: cluster.leader_of(0) is not None,
                      limit=30.0, what="re-election")
    reader = cluster.client("client1")
    for k in keys:
        got = run(cluster, reader.get(k, b"c", consistent=True))
        assert got.found and got.value == b"keep"
    assert cluster.all_failures() == []


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
