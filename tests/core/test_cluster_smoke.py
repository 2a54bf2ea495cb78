"""End-to-end smoke tests: boot a cluster, read and write through the API."""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig, VersionMismatch
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn


def fast_config(**overrides):
    """SSD logs keep unit tests quick; protocol behaviour is unchanged."""
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture
def cluster():
    cl = SpinnakerCluster(n_nodes=5, config=fast_config(), seed=42)
    cl.start()
    yield cl
    assert cl.all_failures() == []


def run_client(cluster, gen, limit=30.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit,
                      what="client op")
    return proc.result()


def test_cluster_elects_a_leader_per_cohort(cluster):
    for cohort in cluster.partitioner.cohorts:
        leader = cluster.leader_of(cohort.cohort_id)
        assert leader in cohort.members


def test_put_then_strong_get(cluster):
    client = cluster.client()

    def scenario():
        put = yield from client.put(b"user:1", b"name", b"ada")
        got = yield from client.get(b"user:1", b"name", consistent=True)
        return put, got

    put, got = run_client(cluster, scenario())
    assert put.version == 1
    assert got.found and got.value == b"ada" and got.version == 1


def test_get_missing_returns_not_found(cluster):
    client = cluster.client()

    def scenario():
        return (yield from client.get(b"ghost", b"c", consistent=True))

    got = run_client(cluster, scenario())
    assert not got.found
    assert got.version == 0


def test_overwrite_bumps_version(cluster):
    client = cluster.client()

    def scenario():
        yield from client.put(b"k", b"c", b"v1")
        yield from client.put(b"k", b"c", b"v2")
        return (yield from client.get(b"k", b"c", consistent=True))

    got = run_client(cluster, scenario())
    assert got.value == b"v2"
    assert got.version == 2


def test_delete_hides_value(cluster):
    client = cluster.client()

    def scenario():
        yield from client.put(b"k", b"c", b"v")
        yield from client.delete(b"k", b"c")
        return (yield from client.get(b"k", b"c", consistent=True))

    got = run_client(cluster, scenario())
    assert not got.found


def test_conditional_put_succeeds_on_current_version(cluster):
    client = cluster.client()

    def scenario():
        yield from client.put(b"cnt", b"c", b"0")
        cur = yield from client.get(b"cnt", b"c", consistent=True)
        res = yield from client.conditional_put(b"cnt", b"c", b"1",
                                                cur.version)
        final = yield from client.get(b"cnt", b"c", consistent=True)
        return res, final

    res, final = run_client(cluster, scenario())
    assert res.version == 2
    assert final.value == b"1"


def test_conditional_put_fails_on_stale_version(cluster):
    client = cluster.client()

    def scenario():
        yield from client.put(b"cnt", b"c", b"0")   # version 1
        yield from client.put(b"cnt", b"c", b"1")   # version 2
        try:
            yield from client.conditional_put(b"cnt", b"c", b"2", 1)
        except VersionMismatch as err:
            return err
        return None

    err = run_client(cluster, scenario())
    assert err is not None
    assert err.expected == 1 and err.actual == 2


def test_conditional_delete(cluster):
    client = cluster.client()

    def scenario():
        yield from client.put(b"k", b"c", b"v")
        try:
            yield from client.conditional_delete(b"k", b"c", 99)
        except VersionMismatch:
            pass
        else:
            raise AssertionError("stale conditional delete succeeded")
        yield from client.conditional_delete(b"k", b"c", 1)
        return (yield from client.get(b"k", b"c", consistent=True))

    got = run_client(cluster, scenario())
    assert not got.found


def test_multi_column_put_is_atomic_batch(cluster):
    client = cluster.client()

    def scenario():
        yield from client.put_columns(
            b"row", {b"a": b"1", b"b": b"2", b"c": b"3"})
        return (yield from client.get_row(
            b"row", [b"a", b"b", b"c"], consistent=True))

    row = run_client(cluster, scenario())
    assert {c: r.value for c, r in row.items()} == {
        b"a": b"1", b"b": b"2", b"c": b"3"}


def test_timeline_read_sees_value_after_commit_period(cluster):
    client = cluster.client()

    def write_it():
        yield from client.put(b"tl", b"c", b"v")

    run_client(cluster, write_it())
    # Give followers time to receive a commit message.
    cluster.run(1.0)

    def read_everywhere():
        results = []
        for _ in range(12):  # random replica each time
            got = yield from client.get(b"tl", b"c", consistent=False)
            results.append(got)
        return results

    results = run_client(cluster, read_everywhere())
    assert all(r.found and r.value == b"v" for r in results)


def test_writes_spread_across_cohorts(cluster):
    client = cluster.client()

    def scenario():
        for i in range(40):
            yield from client.put(b"key-%d" % i, b"c", b"v")

    run_client(cluster, scenario(), limit=120.0)
    leaders = {cluster.leader_of(c.cohort_id)
               for c in cluster.partitioner.cohorts}
    served = sum(r.writes_served for n in cluster.nodes.values()
                 for r in n.replicas.values())
    assert served == 40
    assert len(leaders) > 1  # multiple distinct leaders took writes


def test_cluster_stats_reflect_activity(cluster):
    client = cluster.client()

    def scenario():
        for i in range(6):
            yield from client.put(b"st-%d" % i, b"c", b"v")
        yield from client.get(b"st-0", b"c", consistent=True)

    run_client(cluster, scenario())
    stats = cluster.stats()
    nodes = stats["nodes"]
    assert sum(n["writes_served"] for n in nodes.values()) == 6
    assert sum(n["reads_served"] for n in nodes.values()) >= 1
    assert sum(len(n["leader_of"]) for n in nodes.values()) == 5
    assert all(n["alive"] for n in nodes.values())
    assert sum(n["log_forces"] for n in nodes.values()) >= 18  # 3x each
    assert stats["network"]["messages_sent"] > 0


def test_pending_writes_count_what_a_follower_logged_but_not_committed(
        cluster):
    """A follower queues nothing — its commit queue is its log above
    f.cmt — so ``pending_writes`` counts those records: here the puts the
    leader committed since its last commit message."""
    client = cluster.client()
    keys = cluster.keys_in_cohort(0, 4, b"pw-")

    def scenario():
        for key in keys:
            yield from client.put(key, b"c", b"v")

    run_client(cluster, scenario())
    leader = cluster.replica(cluster.leader_of(0), 0)
    pending = {}
    for name in leader.peers():
        follower = cluster.replica(name, 0)
        assert len(follower.queue) == 0
        pending[name] = len(leader.node.wal.write_records(
            0, after=follower.committed_lsn, upto=leader.committed_lsn))
    assert min(pending.values()) > 0
    nodes = cluster.stats()["nodes"]
    # (no other cohort took a write)
    assert {name: nodes[name]["pending_writes"] for name in pending} == pending
    cluster.run(1.0)                    # commit messages reach them
    assert all(n["pending_writes"] == 0
               for n in cluster.stats()["nodes"].values())
