"""Integration tests for flushes, checkpoints, log rollover, and the
§6.1 SSTable-shipping catch-up path."""

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn
from repro.storage.lsn import LSN


def make_cluster(flush_threshold=6_000, seed=61):
    """Tiny flush threshold: a handful of 1 KB writes rolls the log."""
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2,
                          flush_threshold_bytes=flush_threshold)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=seed)
    cluster.start()
    return cluster


def run(cluster, gen, limit=120.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="proc")
    return proc.result()


def cohort_keys(cluster, cohort_id, count):
    keys, i = [], 0
    while len(keys) < count:
        key = b"fc-%d" % i
        if cluster.partitioner.cohort_for_key(
                key_of(key)).cohort_id == cohort_id:
            keys.append(key)
        i += 1
    return keys


def write_many(cluster, client, keys, value=b"x" * 1024):
    def _go():
        for key in keys:
            yield from client.put(key, b"c", value)
    run(cluster, _go())


def test_flush_advances_checkpoint_and_rolls_log():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    keys = cohort_keys(cluster, cohort_id, 30)
    write_many(cluster, client, keys)
    cluster.run(1.0)
    leader = cluster.leader_of(cohort_id)
    replica = cluster.replica(leader, cohort_id)
    assert replica.engine.flushes >= 1
    assert replica.engine.checkpoint_lsn > LSN.zero()
    # The log was rolled over: it can no longer serve from LSN zero.
    assert not cluster.nodes[leader].wal.can_serve_after(
        cohort_id, LSN.zero())


def test_reads_correct_across_flush_boundary():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    keys = cohort_keys(cluster, cohort_id, 25)
    write_many(cluster, client, keys)

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        return out

    results = run(cluster, read_all())
    assert all(r.found for r in results)


def test_catchup_ships_sstables_when_log_rolled():
    """A follower that was down across a log rollover must be caught up
    from SSTables (§6.1) — and end consistent."""
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    leader = cluster.leader_of(cohort_id)
    victim = next(m for m in members if m != leader)
    keys = cohort_keys(cluster, cohort_id, 40)
    write_many(cluster, client, keys[:5])
    cluster.run(0.5)
    cluster.crash_node(victim)
    # Enough writes to flush + roll the leader's log past the victim's
    # committed LSN.
    write_many(cluster, client, keys[5:])
    cluster.run(1.0)
    assert not cluster.nodes[leader].wal.can_serve_after(
        cohort_id, cluster.nodes[victim].wal.last_committed_lsn(cohort_id))
    cluster.restart_node(victim)
    replica_v = cluster.replica(victim, cohort_id)
    cluster.run_until(lambda: replica_v.role == Role.FOLLOWER, limit=60.0,
                      what="victim caught up")
    cluster.run(1.0)
    for key in keys:
        cell = replica_v.engine.get(key, b"c")
        assert cell is not None, key
    # Nothing was wrongly truncated: the victim's own committed records
    # stayed visible.
    assert cluster.all_failures() == []


def test_catchup_after_rollover_supports_future_failover():
    """After an SSTable-ship catch-up, the revived node must be a fully
    capable leader candidate (n.lst reflects the shipped state)."""
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    leader = cluster.leader_of(cohort_id)
    victim = next(m for m in members if m != leader)
    keys = cohort_keys(cluster, cohort_id, 40)
    write_many(cluster, client, keys[:5])
    cluster.crash_node(victim)
    write_many(cluster, client, keys[5:])
    cluster.run(1.0)
    cluster.restart_node(victim)
    replica_v = cluster.replica(victim, cohort_id)
    cluster.run_until(lambda: replica_v.role == Role.FOLLOWER, limit=60.0,
                      what="victim caught up")
    cluster.run(0.5)
    # Now kill the leader; the cohort must recover (possibly via the
    # revived node) and serve every committed write.
    cluster.kill_leader(cohort_id)
    cluster.run_until(
        lambda: cluster.leader_of(cohort_id) not in (None, leader),
        limit=60.0, what="post-rollover failover")

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        return out

    results = run(cluster, read_all())
    assert all(r.found for r in results)
    assert cluster.all_failures() == []


def test_flush_threshold_respected_per_replica():
    cluster = make_cluster(flush_threshold=4_000)
    client = cluster.client()
    keys = cohort_keys(cluster, 1, 20)
    write_many(cluster, client, keys)
    cluster.run(1.0)
    leader = cluster.leader_of(1)
    replica = cluster.replica(leader, 1)
    # Memtable stays under ~threshold once flushes kick in.
    assert replica.engine.memtable.bytes_used < 3 * 4_000
    assert replica.engine.flushes >= 2
