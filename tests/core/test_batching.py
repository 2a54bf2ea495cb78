"""Tests for the leader-side proposal batcher (core/batching.py):
packing, coalescing, the adaptive window, and leadership-change safety.
"""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig, Transaction
from repro.core.batching import chunk_groups
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
# End-to-end coalescing
# ---------------------------------------------------------------------------

def test_concurrent_writes_coalesce_into_batches():
    cluster = make_cluster(seed=29)
    cluster.run(2.0)
    leader = cluster.replica(cluster.leader_of(0), 0)
    before = leader.batcher.batches_sent
    keys = cohort_keys(cluster, 0, 16)
    client = cluster.client()
    procs = [spawn(cluster.sim, client.put(k, b"c", b"v")) for k in keys]
    cluster.run_until(lambda: all(p.triggered for p in procs),
                      limit=30.0, what="concurrent puts")
    for proc in procs:
        assert proc.result().version == 1
    batches = leader.batcher.batches_sent - before
    assert leader.batcher.records_batched >= 16
    assert batches < 16                    # some proposes were shared
    assert leader.batcher.max_batch_records >= 2
    assert (leader.batcher.max_batch_records
            <= cluster.config.propose_batch_max_records)
    assert cluster.all_failures() == []


def test_sequential_writes_never_wait_for_company():
    cluster = make_cluster(seed=31)
    cluster.run(2.0)
    key = cohort_keys(cluster, 0, 1)[0]
    leader = cluster.replica(cluster.leader_of(0), 0)
    client = cluster.client()

    def scenario():
        for i in range(10):
            result = yield from client.put(key, b"c", b"v%d" % i)
            assert result.version == i + 1

    run(cluster, scenario())
    # An idle pipeline flushes each write immediately: no window ever
    # opened, every batch carried exactly one record.
    assert leader.batcher.windows_opened == 0
    assert leader.batcher.max_batch_records == 1
    assert cluster.all_failures() == []


def test_transaction_group_stays_indivisible():
    cluster = make_cluster(n_nodes=5, seed=33, propose_batch_max_records=2)
    cluster.run(2.0)
    keys = cohort_keys(cluster, 0, 5)
    leader = cluster.replica(cluster.leader_of(0), 0)
    client = cluster.client()

    def scenario():
        txn = Transaction(client)
        for k in keys:
            txn.put(k, b"c", b"atomic")
        return (yield from txn.commit())

    result = run(cluster, scenario())
    assert result.version == 1
    # Five records, limit two: an indivisible group travels oversized in
    # a single propose rather than being split across forces.
    assert leader.batcher.max_batch_records == 5
    client2 = cluster.client("client1")
    for k in keys:
        got = run(cluster, client2.get(k, b"c", consistent=True))
        assert got.found and got.value == b"atomic"
    assert cluster.all_failures() == []


# ---------------------------------------------------------------------------
# Leadership-change safety
# ---------------------------------------------------------------------------

def test_step_down_drops_buffered_records():
    # Real queuing pressure: two older writes sit in the commit queue
    # (never forced, so nothing is in flight to ride) — the next write
    # opens the window, letting us catch it between queue.add and flush.
    cluster = make_cluster(seed=37, propose_batch_window=5e-3)
    cluster.run(2.0)
    leader = cluster.replica(cluster.leader_of(0), 0)
    node = leader.node
    keys = cohort_keys(cluster, 0, 3)

    def make(key):
        return WriteRecord(lsn=leader.alloc_lsn(), cohort_id=0, key=key,
                           colname=b"c", value=b"phantom", version=1)

    for key in keys[:2]:
        leader.queue.add(make(key))
    record = make(keys[2])
    leader._replicate([record], lambda: None)
    assert leader.batcher.windows_opened == 1
    assert record.lsn in leader.queue     # buffered, window pending
    assert not node.wal.contains(0, record.lsn)
    leader.step_down()
    # The buffered record was never logged nor proposed; it must leave
    # the queue so no later commit message can commit a phantom.
    assert record.lsn not in leader.queue
    cluster.run(1.0)
    assert not node.wal.contains(0, record.lsn)
    assert leader.batcher.batches_sent == 0
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
