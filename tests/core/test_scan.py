"""Tests for ordered range scans (order-preserving keys extension)."""

import pytest

from repro.core import (DatastoreError, SpinnakerCluster, SpinnakerConfig)
from repro.core.messages import ClientScan
from repro.core.partition import ordered_key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn
from repro.storage.engine import StorageEngine
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord


# -- engine-level scan -------------------------------------------------------

def wrec(seq, key, col=b"c", value=b"v", tombstone=False):
    return WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=key, colname=col,
                       value=None if tombstone else value, version=seq,
                       tombstone=tombstone)


def test_engine_scan_orders_and_bounds():
    eng = StorageEngine(0)
    for i, key in enumerate([b"d", b"a", b"c", b"b", b"e"], start=1):
        eng.apply(wrec(i, key))
    rows = eng.scan(b"b", b"e")
    assert [k for k, _ in rows] == [b"b", b"c", b"d"]


def test_engine_scan_merges_memtable_and_sstables():
    eng = StorageEngine(0)
    eng.apply(wrec(1, b"a", value=b"old"))
    eng.apply(wrec(2, b"b"))
    eng.flush()
    eng.apply(wrec(3, b"a", value=b"new"))   # newer, in memtable
    eng.apply(wrec(4, b"c"))
    rows = dict(eng.scan(b"a", None, limit=10))
    assert set(rows) == {b"a", b"b", b"c"}
    assert rows[b"a"][b"c"].value == b"new"


def test_engine_scan_hides_tombstoned_rows():
    eng = StorageEngine(0)
    eng.apply(wrec(1, b"a"))
    eng.apply(wrec(2, b"b"))
    eng.apply(wrec(3, b"a", tombstone=True))
    rows = eng.scan(b"a", b"z")
    assert [k for k, _ in rows] == [b"b"]


def test_engine_scan_limit():
    eng = StorageEngine(0)
    for i in range(1, 9):
        eng.apply(wrec(i, b"k%d" % i))
    rows = eng.scan(b"k1", None, limit=3)
    assert len(rows) == 3
    assert [k for k, _ in rows] == [b"k1", b"k2", b"k3"]


# -- partitioner ordering -----------------------------------------------------

def test_ordered_key_of_preserves_prefix_order():
    keys = [b"alpha", b"beta", b"carol", b"delta", b"zz"]
    mapped = [ordered_key_of(k) for k in keys]
    assert mapped == sorted(mapped)


def test_cohorts_for_range_in_key_order():
    from repro.core.partition import RangePartitioner
    part = RangePartitioner(["A", "B", "C", "D"],
                            key_mapper=ordered_key_of)
    cohorts = part.cohorts_for_range(b"\x00", b"\xff\xff\xff\xff")
    assert [c.cohort_id for c in cohorts] == [0, 1, 2, 3]
    first = part.cohorts_for_range(b"\x00", b"\x10")
    assert [c.cohort_id for c in first] == [0]


def test_range_query_requires_ordered_mapper():
    from repro.core.partition import RangePartitioner
    part = RangePartitioner(["A", "B", "C"])
    with pytest.raises(ValueError):
        part.cohorts_for_range(b"a", b"b")


# -- end-to-end ---------------------------------------------------------------

@pytest.fixture
def ordered_cluster():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2, order_preserving_keys=True)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=91)
    cluster.start()
    yield cluster
    assert cluster.all_failures() == []


def run(cluster, gen, limit=120.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="proc")
    return proc.result()


def test_scan_within_and_across_cohorts(ordered_cluster):
    cluster = ordered_cluster
    client = cluster.client()
    # Keys spanning the whole keyspace: first byte drives placement.
    keys = [bytes([b]) + b"-row" for b in range(0, 256, 16)]

    def write_all():
        for i, key in enumerate(keys):
            yield from client.put(key, b"c", b"v%d" % i)

    run(cluster, write_all())
    # Keys land on multiple distinct cohorts.
    cohorts = {cluster.partitioner.locate(k).cohort_id for k in keys}
    assert len(cohorts) >= 3

    def scan_all():
        return (yield from client.scan(b"\x00", None, limit=100))

    rows = run(cluster, scan_all())
    assert [k for k, _ in rows] == sorted(keys)

    def scan_middle():
        return (yield from client.scan(keys[2], keys[7], limit=100))

    rows = run(cluster, scan_middle())
    assert [k for k, _ in rows] == sorted(keys)[2:7]


def test_scan_respects_limit_across_cohorts(ordered_cluster):
    cluster = ordered_cluster
    client = cluster.client()
    keys = [bytes([b]) for b in range(0, 250, 10)]

    def write_all():
        for key in keys:
            yield from client.put(key, b"c", b"v")

    run(cluster, write_all())

    def scan_limited():
        return (yield from client.scan(b"\x00", None, limit=7))

    rows = run(cluster, scan_limited())
    assert len(rows) == 7
    assert [k for k, _ in rows] == sorted(keys)[:7]


def test_scan_values_and_versions(ordered_cluster):
    cluster = ordered_cluster
    client = cluster.client()

    def scenario():
        yield from client.put(b"A-key", b"name", b"ada")
        yield from client.put(b"A-key", b"name", b"ada2")
        return (yield from client.scan(b"A", b"B"))

    rows = run(cluster, scenario())
    assert len(rows) == 1
    key, columns = rows[0]
    assert key == b"A-key"
    assert columns[b"name"].value == b"ada2"
    assert columns[b"name"].version == 2


def test_scan_rejected_on_hashed_cluster():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log())
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=1)
    cluster.start()
    client = cluster.client()

    def scenario():
        try:
            yield from client.scan(b"a", b"z")
        except DatastoreError:
            return "rejected"

    assert run(cluster, scenario()) == "rejected"


def test_timeline_scan_after_commit_period(ordered_cluster):
    cluster = ordered_cluster
    client = cluster.client()

    def write_all():
        for b in (10, 20, 30):
            yield from client.put(bytes([b]), b"c", b"v")

    run(cluster, write_all())
    cluster.run(1.0)  # commit messages propagate

    def scan_timeline():
        return (yield from client.scan(b"\x00", b"\xff",
                                       consistent=False))

    rows = run(cluster, scan_timeline())
    assert [k for k, _ in rows] == [bytes([10]), bytes([20]), bytes([30])]


def test_strong_scan_needs_an_open_leader():
    """§6.2: until takeover has re-proposed the (l.cmt, l.lst] tail a
    leader-elect's memtable can miss committed writes, so it must bounce
    strong scans exactly as it bounces strong gets; timeline scans are
    still served, and the strong scan succeeds once the cohort opens."""
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          order_preserving_keys=True)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=3)
    cluster.start()
    client = cluster.client()
    run(cluster, client.put(b"A-key", b"c", b"v"))
    cohort_id = cluster.partitioner.locate(b"A-key").cohort_id
    leader = cluster.leader_of(cohort_id)
    replica = cluster.replica(leader, cohort_id)
    probe = cluster.network.endpoint("scan-probe")

    def ask(consistent):
        return (yield probe.request(leader, ClientScan(
            cohort_id=cohort_id, start_key=b"A", end_key=b"B", limit=10,
            consistent=consistent), size=128, timeout=1.0))

    replica.open_for_writes = False         # role LEADER, takeover running
    bounced = run(cluster, ask(consistent=True))
    assert (bounced["ok"], bounced["code"]) == (False, "not-leader")
    assert run(cluster, ask(consistent=False))["ok"]

    def reopen():
        replica.open_for_writes = True      # the tail is re-proposed

    cluster.sim.schedule(0.05, reopen)      # a few client retries later
    rows = run(cluster, client.scan(b"A", b"B", consistent=True))
    assert [key for key, _ in rows] == [b"A-key"]
    assert client.retries >= 1
    assert cluster.all_failures() == []
