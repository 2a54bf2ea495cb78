"""Tests for multi-operation transactions (§8.2 extension)."""

import pytest

from repro.core import (DatastoreError, SpinnakerCluster, SpinnakerConfig,
                        Transaction, VersionMismatch)
from repro.core.messages import WriteOp
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn


@pytest.fixture
def cluster():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cl = SpinnakerCluster(n_nodes=5, config=cfg, seed=13)
    cl.start()
    yield cl
    assert cl.all_failures() == []


def run(cluster, gen, limit=60.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="txn")
    return proc.result()


def cohort_keys(cluster, cohort_id, count, prefix=b"tx"):
    keys, i = [], 0
    while len(keys) < count:
        key = prefix + b"-%d" % i
        if cluster.partitioner.cohort_for_key(
                key_of(key)).cohort_id == cohort_id:
            keys.append(key)
        i += 1
    return keys


def test_multi_row_transaction_commits_atomically(cluster):
    client = cluster.client()
    k1, k2 = cohort_keys(cluster, 0, 2)

    def scenario():
        txn = Transaction(client)
        txn.put(k1, b"balance", b"90")
        txn.put(k2, b"balance", b"110")
        yield from txn.commit()
        a = yield from client.get(k1, b"balance", consistent=True)
        b = yield from client.get(k2, b"balance", consistent=True)
        return a, b

    a, b = run(cluster, scenario())
    assert a.value == b"90" and b.value == b"110"


def test_transaction_conditional_abort_leaves_no_effects(cluster):
    client = cluster.client()
    k1, k2 = cohort_keys(cluster, 1, 2)

    def scenario():
        yield from client.put(k1, b"c", b"old")   # version 1
        txn = Transaction(client)
        txn.put(k2, b"c", b"side-effect")
        txn.conditional_put(k1, b"c", b"new", version=99)  # stale
        try:
            yield from txn.commit()
        except VersionMismatch:
            pass
        else:
            raise AssertionError("stale conditional committed")
        untouched = yield from client.get(k2, b"c", consistent=True)
        original = yield from client.get(k1, b"c", consistent=True)
        return untouched, original

    untouched, original = run(cluster, scenario())
    assert not untouched.found          # nothing leaked
    assert original.value == b"old"


def test_cross_cohort_transaction_rejected_client_side(cluster):
    client = cluster.client()
    k_a = cohort_keys(cluster, 0, 1)[0]
    k_b = cohort_keys(cluster, 2, 1)[0]
    txn = Transaction(client)
    txn.put(k_a, b"c", b"x")
    with pytest.raises(DatastoreError):
        txn.put(k_b, b"c", b"y")


def test_cross_cohort_write_refused_by_the_leader(cluster):
    # Past the client-side check (as when a split separates the keys of
    # an in-flight request): the leader owns the routing key only.
    client = cluster.client()
    k_a = cohort_keys(cluster, 0, 1)[0]
    k_b = cohort_keys(cluster, 2, 1)[0]
    ops = (WriteOp(k_a, b"c", b"x"), WriteOp(k_b, b"c", b"y"))
    with pytest.raises(DatastoreError, match="cross-cohort"):
        run(cluster, client._write(ops))
    assert not run(cluster, client.get(k_a, b"c", consistent=True)).found


def test_empty_and_double_commit_rejected(cluster):
    client = cluster.client()
    k = cohort_keys(cluster, 0, 1)[0]
    empty = Transaction(client)
    with pytest.raises(DatastoreError):
        # Generators raise on first resume; drive it.
        list(empty.commit())

    def scenario():
        txn = Transaction(client)
        txn.put(k, b"c", b"v")
        yield from txn.commit()
        return txn

    txn = run(cluster, scenario())
    with pytest.raises(DatastoreError):
        txn.put(k, b"c", b"again")


def test_transaction_versions_advance_per_column(cluster):
    client = cluster.client()
    k = cohort_keys(cluster, 0, 1)[0]

    def scenario():
        txn = Transaction(client)
        txn.put(k, b"c", b"v1")
        txn.put(k, b"c", b"v2")   # same column twice: versions 1 then 2
        yield from txn.commit()
        return (yield from client.get(k, b"c", consistent=True))

    got = run(cluster, scenario())
    assert got.value == b"v2"
    assert got.version == 2


def test_transaction_survives_leader_failover(cluster):
    client = cluster.client()
    keys = cohort_keys(cluster, 0, 4)

    def write_txn():
        txn = Transaction(client)
        for i, key in enumerate(keys):
            txn.put(key, b"c", b"t%d" % i)
        yield from txn.commit()

    run(cluster, write_txn())
    cluster.kill_leader(0)
    cluster.run_until(lambda: cluster.leader_of(0) is not None,
                      limit=30.0, what="re-election")

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        return out

    results = run(cluster, read_all())
    # All or nothing: the committed transaction is fully visible.
    assert all(r.found for r in results)


def test_atomic_force_no_partial_batch_after_crash(cluster):
    """Crash every node right after the transaction is proposed; on
    recovery either the whole batch is present or none of it."""
    client = cluster.client()
    keys = cohort_keys(cluster, 0, 3)

    def write_txn():
        txn = Transaction(client)
        for i, key in enumerate(keys):
            txn.put(key, b"c", b"t%d" % i)
        yield from txn.commit()

    proc = spawn(cluster.sim, write_txn())
    cluster.run(0.0015)  # propose in flight, forces likely incomplete
    for name in list(cluster.nodes):
        cluster.crash_node(name)
    cluster.run(3.0)
    for name in list(cluster.nodes):
        cluster.restart_node(name)
    cluster.run_until(cluster.is_ready, limit=60.0, what="recovered")

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        return out

    results = run(cluster, read_all())
    presence = {r.found for r in results}
    assert len(presence) == 1, "partial transaction visible after crash"


# ---------------------------------------------------------------------------
# One write pipeline: every client write is one ClientWrite, one leader
# force, one propose — whatever the API call and whether batching is on
# ---------------------------------------------------------------------------

A, B, C = b"a", b"b", b"c"


def _txn(client, k1, k2, expect):
    txn = Transaction(client)
    txn.put(k1, A, b"n")
    txn.conditional_put(k2, A, b"n", version=expect)
    txn.delete(k1, B)
    return txn.commit()


#: kind -> (request(client, k1, k2, expect), versions afterwards as
#: {(key index, column): version, None = deleted}).  Before each request
#: k1/a, k1/b and k2/a all sit at version 1; ``expect`` is the version
#: the CONDITIONAL kinds demand of one of them.
WRITE_KINDS = {
    "put": (lambda c, k1, k2, expect: c.put(k1, A, b"n"),
            {(0, A): 2}),
    "delete": (lambda c, k1, k2, expect: c.delete(k1, A),
               {(0, A): None}),
    "conditional_put": (
        lambda c, k1, k2, expect: c.conditional_put(k1, A, b"n", expect),
        {(0, A): 2}),
    "put_columns": (
        lambda c, k1, k2, expect: c.put_columns(
            k1, {A: b"n", B: b"n", C: b"n"}),
        {(0, A): 2, (0, B): 2, (0, C): 1}),
    "conditional_put_columns": (
        lambda c, k1, k2, expect: c.conditional_put_columns(
            k1, {A: b"n", B: b"n", C: b"n"}, {A: 1, B: expect}),
        {(0, A): 2, (0, B): 2, (0, C): 1}),
    "transaction": (_txn, {(0, A): 2, (1, A): 2, (0, B): None}),
}
CONDITIONAL = ("conditional_put", "conditional_put_columns", "transaction")


def _preloaded(propose_batching):
    """Leader node of cohort 0, a client, and two of the cohort's keys
    with k1/a, k1/b, k2/a at version 1.  ``group_commit`` is off so
    every log force is its own device operation."""
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2, group_commit=False,
                          propose_batching=propose_batching)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=17)
    cluster.start()
    client = cluster.client()
    k1, k2 = cohort_keys(cluster, 0, 2)

    def preload():
        for key, col in ((k1, A), (k1, B), (k2, A)):
            yield from client.put(key, col, b"old")

    run(cluster, preload())
    return cluster, cluster.nodes[cluster.leader_of(0)], client, (k1, k2)


def _versions(cluster, client, keys, cells):
    def read():
        out = {}
        for idx, col in cells:
            got = yield from client.get(keys[idx], col, consistent=True)
            out[(idx, col)] = got.version if got.found else None
        return out
    return run(cluster, read())


@pytest.mark.parametrize("propose_batching", [True, False])
@pytest.mark.parametrize("kind", sorted(WRITE_KINDS))
def test_every_write_kind_is_one_leader_force(kind, propose_batching):
    request, expected = WRITE_KINDS[kind]
    cluster, leader, client, keys = _preloaded(propose_batching)
    forces = leader.device.forces_completed
    run(cluster, request(client, *keys, 1))
    assert leader.device.forces_completed - forces == 1
    assert _versions(cluster, client, keys, expected) == expected
    assert cluster.all_failures() == []


@pytest.mark.parametrize("propose_batching", [True, False])
@pytest.mark.parametrize("kind", CONDITIONAL)
def test_version_mismatch_writes_nothing(kind, propose_batching):
    request, expected = WRITE_KINDS[kind]
    cluster, leader, client, keys = _preloaded(propose_batching)
    before = _versions(cluster, client, keys, expected)
    forces = leader.device.forces_completed
    with pytest.raises(VersionMismatch):
        run(cluster, request(client, *keys, 99))
    assert leader.device.forces_completed == forces
    assert _versions(cluster, client, keys, expected) == before
    assert cluster.all_failures() == []
