"""Tests for elastic membership: planning, live splits/replaces, crash
tolerance of the migration protocol, and stale-client map refresh."""

import pytest

from repro.chaos.invariants import InvariantAuditor
from repro.core import SpinnakerCluster, SpinnakerConfig, Transaction
from repro.core.partition import (KeyRange, MembershipChange,
                                  RangePartitioner, key_of)
from repro.core.rebalance import Rebalancer, plan_join, plan_replace
from repro.core.replication import Role
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn, timeout


def fast_config(**overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def make_cluster(n=5, seed=11, **overrides):
    cluster = SpinnakerCluster(n_nodes=n, config=fast_config(**overrides),
                               seed=seed)
    cluster.start()
    return cluster


def run_client(cluster, gen, limit=60.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="client op")
    return proc.result()


def keys_for_cohort(cluster, cohort_id, count):
    keys = []
    i = 0
    while len(keys) < count:
        key = b"rk-%d" % i
        if cluster.partitioner.cohort_for_key(
                key_of(key)).cohort_id == cohort_id:
            keys.append(key)
        i += 1
    return keys


def write_keys(cluster, client, keys, value=b"v"):
    def writer():
        for key in keys:
            yield from client.put(key, b"c", value)
    run_client(cluster, writer(), limit=120.0)


def assert_readable(cluster, client, keys, value=b"v"):
    def reader():
        out = []
        for key in keys:
            strong = yield from client.get(key, b"c", consistent=True)
            timeline = yield from client.get(key, b"c", consistent=False)
            out.append((strong.value, timeline.value))
        return out
    got = run_client(cluster, reader(), limit=240.0)
    assert got == [(value, value)] * len(keys)


def rebalance(cluster, plans, limit=120.0, **kwargs):
    reb = Rebalancer(cluster)
    proc = spawn(cluster.sim, reb.execute(plans, **kwargs))
    cluster.run_until(lambda: proc.triggered, limit=limit,
                      what="rebalance")
    proc.result()     # re-raise any driver failure
    assert reb.done
    return reb


# ---------------------------------------------------------------------------
# Planning (pure units)
# ---------------------------------------------------------------------------

def test_plan_join_splits_hottest_cohort_at_midpoint():
    part = RangePartitioner(["A", "B", "C", "D", "E"], keyspace=1000)
    heat = {0: 5.0, 1: 90.0, 2: 5.0, 3: 5.0, 4: 5.0}
    plans = plan_join(part, ["F"], heat=heat)
    assert len(plans) == 1
    change = plans[0]
    src = part.cohort(1)
    assert change.kind == "split"
    assert change.cohort_id == 1
    assert change.version == part.version + 1
    assert change.new_cohort_id == part.next_cohort_id()
    assert change.split_key == (src.key_range.lo
                                + (src.key_range.hi - src.key_range.lo) // 2)
    # Joiner first (bootstrap leader preference), then two residents.
    assert change.new_members[0] == "F"
    assert set(change.new_members[1:]) <= set(src.members)
    assert len(change.new_members) == 3


def test_plan_join_spreads_across_cohorts_and_sequences_versions():
    part = RangePartitioner(["A", "B", "C", "D", "E"], keyspace=1000)
    heat = {0: 80.0, 1: 70.0, 2: 1.0, 3: 1.0, 4: 1.0}
    plans = plan_join(part, ["F", "G"], heat=heat)
    assert [p.version for p in plans] == [2, 3]
    assert plans[0].cohort_id == 0       # hottest first
    assert plans[1].cohort_id == 1       # heat halved, next hottest
    assert plans[0].new_cohort_id != plans[1].new_cohort_id
    # Plans apply cleanly in sequence on a fresh copy of the layout.
    for change in plans:
        assert part.apply_change(change)
    assert part.version == 3


def test_plan_replace_validates_membership():
    part = RangePartitioner(["A", "B", "C", "D", "E"])
    change = plan_replace(part, 0, "B", "F")
    assert change.kind == "replace"
    assert change.version == 2
    assert change.new_members == ("A", "F", "C")
    with pytest.raises(ValueError):
        plan_replace(part, 0, "E", "F")      # E not a member of cohort 0
    with pytest.raises(ValueError):
        plan_replace(part, 0, "B", "C")      # C already a member


# ---------------------------------------------------------------------------
# Live moves
# ---------------------------------------------------------------------------

def test_live_split_moves_range_to_new_node():
    cluster = make_cluster()
    client = cluster.client()
    keys = keys_for_cohort(cluster, 0, 20)
    write_keys(cluster, client, keys)

    cluster.add_node("node5")
    plans = plan_join(cluster.partitioner, ["node5"],
                      heat={c.cohort_id: (100.0 if c.cohort_id == 0
                                          else 1.0)
                            for c in cluster.partitioner.cohorts})
    assert plans[0].cohort_id == 0
    reb = rebalance(cluster, plans)
    assert reb.moves_completed == 1

    part = cluster.partitioner
    assert part.version == 2
    new_cid = plans[0].new_cohort_id
    new_cohort = part.cohort(new_cid)
    assert "node5" in new_cohort.members
    assert cluster.leader_of(new_cid) == "node5"   # lead_new
    # The source cohort shrank to the left half.
    assert part.cohort(0).key_range.hi == plans[0].split_key
    assert new_cohort.key_range.lo == plans[0].split_key
    # Every key is still readable — strong and timeline — wherever it
    # now lives (a fresh client routes off the new map).
    fresh = cluster.client("fresh")
    assert_readable(cluster, fresh, keys)
    assert cluster.all_failures() == []


def test_live_split_under_sustained_load():
    # Generous retry budget: the moved range is briefly leaderless
    # between the map switch and the child cohort's first election, and
    # the load must ride that window out rather than fail.
    cluster = make_cluster(client_op_timeout=30.0, client_max_retries=600)
    client = cluster.client()
    keys = keys_for_cohort(cluster, 0, 30)
    write_keys(cluster, client, keys)

    stop = []
    progress = {"writes": 0}

    def background_load():
        i = 0
        while not stop:
            key = keys[i % len(keys)]
            yield from client.put(key, b"c", b"w%d" % i)
            progress["writes"] += 1
            i += 1

    load_proc = spawn(cluster.sim, background_load())
    cluster.add_node("node5")
    plans = plan_join(cluster.partitioner, ["node5"],
                      heat={c.cohort_id: (100.0 if c.cohort_id == 0
                                          else 1.0)
                            for c in cluster.partitioner.cohorts})
    rebalance(cluster, plans)
    writes_during = progress["writes"]
    stop.append(True)
    cluster.run_until(lambda: load_proc.triggered, limit=30.0,
                      what="load drain")
    load_proc.result()

    assert writes_during > 0      # writes kept flowing through the move
    fresh = cluster.client("fresh")

    def verify():
        for key in keys:
            got = yield from fresh.get(key, b"c", consistent=True)
            assert got.value.startswith(b"w")
    run_client(cluster, verify(), limit=240.0)
    assert cluster.all_failures() == []


def test_replace_move_swaps_follower_for_new_node():
    cluster = make_cluster()
    client = cluster.client()
    keys = keys_for_cohort(cluster, 0, 15)
    write_keys(cluster, client, keys)

    cluster.add_node("node5")
    leader = cluster.leader_of(0)
    victim = next(m for m in cluster.partitioner.cohort(0).members
                  if m != leader)
    change = plan_replace(cluster.partitioner, 0, victim, "node5")
    rebalance(cluster, [change])

    cohort = cluster.partitioner.cohort(0)
    assert "node5" in cohort.members and victim not in cohort.members
    # The retired member dropped its replica; the joiner serves.
    assert 0 not in cluster.nodes[victim].replicas
    joiner_replica = cluster.nodes["node5"].replicas[0]
    assert joiner_replica.role in (Role.LEADER, Role.FOLLOWER)
    assert cluster.leader_of(0) is not None
    fresh = cluster.client("fresh")
    assert_readable(cluster, fresh, keys)
    assert cluster.all_failures() == []


def test_stale_client_refreshes_map_on_wrong_node():
    cluster = make_cluster()
    stale = cluster.client()          # snapshot taken now, at version 1
    keys = keys_for_cohort(cluster, 0, 20)
    write_keys(cluster, stale, keys)

    cluster.add_node("node5")
    plans = plan_join(cluster.partitioner, ["node5"],
                      heat={c.cohort_id: (100.0 if c.cohort_id == 0
                                          else 1.0)
                            for c in cluster.partitioner.cohorts})
    change = plans[0]
    rebalance(cluster, plans)
    assert stale.map_version == 1     # nobody told the client yet

    # Point the stale client's strong routing at the one old member that
    # is NOT in the child cohort: it answers wrong-node + map_version.
    retired = next(m for m in cluster.partitioner.cohort(0).members
                   if m not in change.new_members)
    moved = next(k for k in keys
                 if cluster.partitioner.cohort_for_key(
                     key_of(k)).cohort_id == change.new_cohort_id)
    stale._leader_cache[0] = retired

    def scenario():
        return (yield from stale.get(moved, b"c", consistent=True))

    got = run_client(cluster, scenario(), limit=60.0)
    assert got.value == b"v"
    assert stale.map_refreshes >= 1
    assert stale.map_version == cluster.partitioner.version


def test_stale_client_transaction_rides_out_a_split():
    """A multi-op write held at the migration's write block while its
    range splits away is re-routed like a single-key write would be
    (``wrong-node`` + map refresh), not failed with ``cross-cohort``."""
    cluster = make_cluster()
    stale = cluster.client()          # snapshot taken now, at version 1
    keys = keys_for_cohort(cluster, 0, 30)
    write_keys(cluster, stale, keys)

    cluster.add_node("node5")
    plans = plan_join(cluster.partitioner, ["node5"],
                      heat={c.cohort_id: (100.0 if c.cohort_id == 0
                                          else 1.0)
                            for c in cluster.partitioner.cohorts})
    k1, k2 = [k for k in keys if key_of(k) >= plans[0].split_key][:2]
    leader = cluster.replica(cluster.leader_of(0), 0)

    def transaction_into_the_drain():
        while leader.write_block is None:
            yield timeout(cluster.sim, 50e-6)
        txn = Transaction(stale)
        txn.put(k1, b"c", b"moved")
        txn.put(k2, b"c", b"moved")
        yield from txn.commit()

    proc = spawn(cluster.sim, transaction_into_the_drain())
    rebalance(cluster, plans)
    cluster.run_until(lambda: proc.triggered, limit=60.0, what="txn")
    proc.result()           # a cross-cohort DatastoreError re-raises here
    assert stale.map_refreshes >= 1
    assert stale.map_version == cluster.partitioner.version
    assert_readable(cluster, cluster.client("fresh"), [k1, k2],
                    value=b"moved")
    assert cluster.all_failures() == []


def ordered_cluster_split_under_a_client():
    """An ordered cluster whose cohort 0 splits at its midpoint (node5
    joins) with 40 rows stranded on both sides; returns the cluster, the
    row keys in order and a client whose map predates the split."""
    cfg = fast_config()
    cfg.order_preserving_keys = True
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=13)
    cluster.start()
    client = cluster.client()
    stale = cluster.client("stale")         # its map: version 1, for good
    # 4-byte big-endian keys spread across cohort 0's range, straddling
    # its midpoint so the split strands rows on both sides.
    keys = [(i * 21_000_000).to_bytes(4, "big") for i in range(40)]
    write_keys(cluster, client, keys)

    cluster.add_node("node5")
    part = cluster.partitioner
    heat = {c.cohort_id: float(sum(
        1 for k in keys if part.cohort_for_key(
            part.key_mapper(k)).cohort_id == c.cohort_id))
        for c in part.cohorts}
    rebalance(cluster, plan_join(part, ["node5"], heat=heat))
    assert stale.map_version == 1 < part.version
    return cluster, keys, stale


def test_scan_after_split_returns_each_row_once():
    """Ordered cluster: after a split, the parent's leftover copies of
    moved rows must not surface in scans — each row comes back exactly
    once, from the cohort that now owns it."""
    cluster, keys, _stale = ordered_cluster_split_under_a_client()
    fresh = cluster.client("fresh")

    def scan_all():
        return (yield from fresh.scan(keys[0], limit=100,
                                      consistent=True))
    rows = run_client(cluster, scan_all(), limit=120.0)
    assert [key for key, _cols in rows] == keys
    assert cluster.all_failures() == []


@pytest.mark.parametrize("consistent", [True, False],
                         ids=["strong", "timeline"])
def test_scan_on_a_stale_map_still_returns_each_row_once(consistent):
    """The client planned its scan before the split: the parent cohort
    still exists under its old id, so nothing used to tell the client
    that half its rows now live in a cohort its map has never heard of —
    a strong scan came back 21 rows of 40, no error, no refresh.  A scan
    carries the map version it was planned on; a server on a newer
    layout says ``wrong-node`` and the client re-plans what is left."""
    cluster, keys, stale = ordered_cluster_split_under_a_client()
    part = cluster.partitioner
    cluster.run(1.0)                        # followers apply the commits

    def scan_all():
        return (yield from stale.scan(keys[0], limit=100,
                                      consistent=consistent))
    rows = run_client(cluster, scan_all(), limit=120.0)
    assert [key for key, _cols in rows] == keys
    assert stale.map_version == part.version
    assert stale.map_refreshes == 1
    assert cluster.all_failures() == []


def test_a_bounded_scan_on_a_stale_map_stops_at_its_end_and_its_limit():
    """Re-planning keeps the scan's own bounds: rows in [start, end),
    at most ``limit`` of them, from a start inside the moved half."""
    cluster, keys, stale = ordered_cluster_split_under_a_client()
    part = cluster.partitioner
    split = part.cohort(0).key_range.hi     # cohort 0 kept [0, split)
    moved = [k for k in keys if part.key_mapper(k) >= split]
    assert moved and part.locate(moved[0]).cohort_id not in range(5)

    def scans():
        bounded = yield from stale.scan(moved[1], keys[30], limit=100)
        limited = yield from stale.scan(keys[0], limit=7, consistent=False)
        return bounded, limited
    bounded, limited = run_client(cluster, scans(), limit=120.0)
    assert [key for key, _ in bounded] == keys[keys.index(moved[1]):30]
    assert [key for key, _ in limited] == keys[:7]
    assert cluster.all_failures() == []


# ---------------------------------------------------------------------------
# Crash tolerance
# ---------------------------------------------------------------------------

def run_move_with_crash(cluster, plans, crash, limit=240.0):
    """Drive ``plans``; once the driver has sent its first MigrationStart,
    run ``crash(change)`` and keep driving until convergence.  Audits
    invariants throughout."""
    auditor = InvariantAuditor(cluster)
    audit_proc = spawn(cluster.sim, auditor.run(period=0.25))
    reb = Rebalancer(cluster)
    proc = spawn(cluster.sim, reb.execute(plans, move_timeout=limit))
    cluster.run_until(lambda: reb.attempts >= 1, limit=60.0,
                      what="first migration attempt")
    cluster.run(0.05)                 # land mid-move
    crash(plans[0])
    cluster.run_until(lambda: proc.triggered, limit=limit,
                      what="rebalance after crash")
    proc.result()
    assert reb.done
    cluster.run(2.0)                  # settle before the final audit
    audit_proc.interrupt("done")
    auditor.final_audit()
    assert auditor.violations == [], [str(v) for v in auditor.violations]
    return reb


def split_plan_for_cohort0(cluster):
    return plan_join(cluster.partitioner, ["node5"],
                     heat={c.cohort_id: (100.0 if c.cohort_id == 0
                                         else 1.0)
                           for c in cluster.partitioner.cohorts})


def test_split_survives_joining_node_crash():
    cluster = make_cluster(seed=17)
    client = cluster.client()
    keys = keys_for_cohort(cluster, 0, 15)
    write_keys(cluster, client, keys)
    cluster.add_node("node5")
    plans = split_plan_for_cohort0(cluster)

    def crash(_change):
        cluster.crash_node("node5")
        cluster.expire_session_of("node5")
        cluster.run(1.0)
        cluster.restart_node("node5")

    run_move_with_crash(cluster, plans, crash)
    assert cluster.partitioner.version == 2
    assert cluster.leader_of(plans[0].new_cohort_id) is not None
    fresh = cluster.client("fresh")
    assert_readable(cluster, fresh, keys)


def test_split_survives_migration_leader_crash():
    cluster = make_cluster(seed=23)
    client = cluster.client()
    keys = keys_for_cohort(cluster, 0, 15)
    write_keys(cluster, client, keys)
    cluster.add_node("node5")
    plans = split_plan_for_cohort0(cluster)

    def crash(change):
        killed = cluster.kill_leader(change.cohort_id)
        assert killed is not None
        cluster.run(1.0)
        cluster.restart_node(killed)

    run_move_with_crash(cluster, plans, crash)
    assert cluster.partitioner.version == 2
    assert cluster.leader_of(0) is not None
    assert cluster.leader_of(plans[0].new_cohort_id) is not None
    fresh = cluster.client("fresh")
    assert_readable(cluster, fresh, keys)
