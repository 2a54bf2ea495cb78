"""Tests for client routing, retries, and error mapping (repro.core.api)."""

import pytest

from repro.core import (RequestTimeout, SpinnakerCluster, SpinnakerConfig,
                        VersionMismatch)
from repro.core.partition import key_of
from repro.core.rebalance import Rebalancer, plan_join
from repro.sim.disk import DiskProfile
from repro.sim.process import ProcessKilled, spawn


def make_cluster(**overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=31)
    cluster.start()
    return cluster


def run(cluster, gen, limit=60.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="client op")
    return proc.result()


def test_leader_cache_learns_from_redirects():
    cluster = make_cluster()
    client = cluster.client()
    key = b"route-me"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    # Poison the cache with a follower.
    leader = cluster.leader_of(cohort.cohort_id)
    wrong = next(m for m in cohort.members if m != leader)
    client._leader_cache[cohort.cohort_id] = wrong

    def scenario():
        yield from client.put(key, b"c", b"v")

    run(cluster, scenario())
    assert client._leader_cache[cohort.cohort_id] == leader
    assert client.retries >= 1


def test_strong_read_follows_hint_not_blind_cycling():
    cluster = make_cluster()
    client = cluster.client()
    key = b"hint-key"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    leader = cluster.leader_of(cohort.cohort_id)
    followers = [m for m in cohort.members if m != leader]
    client._leader_cache[cohort.cohort_id] = followers[0]

    def scenario():
        yield from client.put(key, b"c", b"v")
        return (yield from client.get(key, b"c", consistent=True))

    got = run(cluster, scenario())
    assert got.value == b"v"


def test_timeline_reads_are_spread_across_replicas():
    cluster = make_cluster()
    client = cluster.client()
    key = b"spread"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))

    def scenario():
        yield from client.put(key, b"c", b"v")
        # Let commit messages reach followers.
        return True

    run(cluster, scenario())
    cluster.run(1.0)
    served_before = {m: sum(r.reads_served for r in
                            cluster.nodes[m].replicas.values())
                     for m in cohort.members}

    def read_many():
        for _ in range(60):
            yield from client.get(key, b"c", consistent=False)

    run(cluster, read_many())
    served = {m: sum(r.reads_served for r in
                     cluster.nodes[m].replicas.values())
              - served_before[m] for m in cohort.members}
    assert all(count > 0 for count in served.values()), served


def test_request_timeout_when_whole_cohort_down():
    cluster = make_cluster(client_op_timeout=2.0)
    client = cluster.client()
    key = b"doomed"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    for member in cohort.members:
        cluster.crash_node(member)

    def scenario():
        try:
            yield from client.put(key, b"c", b"v")
            return "ok"
        except RequestTimeout:
            return "timeout"

    assert run(cluster, scenario(), limit=30.0) == "timeout"


def test_version_mismatch_not_retried():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.put(b"vm", b"c", b"v1")
        retries_before = client.retries
        try:
            yield from client.conditional_put(b"vm", b"c", b"v2", 42)
        except VersionMismatch:
            pass
        return client.retries - retries_before

    assert run(cluster, scenario()) == 0  # a logical error, not transient


def test_multi_column_conditional_put_all_or_nothing():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.put_columns(b"row", {b"a": b"1", b"b": b"2"})
        try:
            yield from client.conditional_put_columns(
                b"row", {b"a": b"10", b"b": b"20"},
                {b"a": 1, b"b": 99})      # second guard is stale
        except VersionMismatch:
            pass
        return (yield from client.get_row(b"row", [b"a", b"b"],
                                          consistent=True))

    row = run(cluster, scenario())
    assert row[b"a"].value == b"1" and row[b"b"].value == b"2"


def test_a_multi_column_put_of_no_columns_is_refused_at_the_call():
    """An empty row write names no key to route by: ``ValueError`` when
    the call is made, and no message leaves the client."""
    cluster = make_cluster()
    client = cluster.client()
    sent = cluster.network.messages_sent
    with pytest.raises(ValueError, match="no columns"):
        client.put_columns(b"row", {})
    with pytest.raises(ValueError, match="no columns"):
        client.conditional_put_columns(b"row", {}, {b"a": 1})
    assert cluster.network.messages_sent == sent


def test_not_leader_without_hint_rotates_members():
    """A not-leader reply with no hint (the follower itself does not know
    the leader yet) must rotate to the next member instead of re-asking
    the same node until the deadline burns out."""
    cluster = make_cluster()
    client = cluster.client()
    key = b"hintless"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    leader = cluster.leader_of(cohort.cohort_id)
    follower = next(m for m in cohort.members if m != leader)
    # The follower forgets who leads: its redirects carry hint=None.
    cluster.nodes[follower].replicas[cohort.cohort_id].leader = None
    client._leader_cache[cohort.cohort_id] = follower

    def scenario():
        yield from client.put(key, b"c", b"v")
        return (yield from client.get(key, b"c", consistent=True))

    got = run(cluster, scenario())
    assert got.value == b"v"
    assert client.retries >= 1
    assert client._leader_cache[cohort.cohort_id] == leader


def test_timeline_target_excludes_timed_out_replicas():
    """Satellite fix: retry target selection must not re-pick members
    that just timed out (while still falling back to the full list if
    everything is excluded)."""
    cluster = make_cluster()
    client = cluster.client()
    cohort = cluster.partitioner.cohort(0)
    dead = set(cohort.members[:2])
    for _ in range(50):
        assert client._timeline_target(cohort, exclude=dead) \
            == cohort.members[2]
    # A single name (the just-timed-out target) works too.
    for _ in range(50):
        assert client._timeline_target(
            cohort, exclude=cohort.members[0]) != cohort.members[0]
    # Excluding everybody falls back to the full member list.
    assert client._timeline_target(
        cohort, exclude=set(cohort.members)) in cohort.members


def test_timeline_read_avoids_crashed_replica_on_retry():
    """Integration: with one member down, a timeline read that first
    times out on the corpse must finish well inside the op deadline."""
    cluster = make_cluster(client_op_timeout=6.0)
    client = cluster.client()
    key = b"corpse-dodge"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))

    run(cluster, client.put(key, b"c", b"v"))
    cluster.run(1.0)    # let commit info reach followers
    cluster.crash_node(cohort.members[0])

    def read_many():
        out = []
        for _ in range(20):
            got = yield from client.get(key, b"c", consistent=False)
            out.append(got.value)
        return out

    values = run(cluster, read_many(), limit=120.0)
    assert values == [b"v"] * 20


def test_cold_cache_strong_read_seeds_from_map_leader_hint():
    """Satellite fix: a fresh client's first strong request goes to the
    cohort map's recorded leader, not blindly to members[0]."""
    cluster = make_cluster()
    cluster.run(1.0)
    client = cluster.client("fresh-client")
    for cohort in cluster.partitioner.cohorts:
        leader = cluster.leader_of(cohort.cohort_id)
        assert client._strong_target(cohort) == leader

    key = b"cold-start"
    retries_before = client.retries

    def scenario():
        yield from client.put(key, b"c", b"v")
        return (yield from client.get(key, b"c", consistent=True))

    got = run(cluster, scenario())
    assert got.value == b"v"
    assert client.retries == retries_before   # straight to the leader


def test_ops_counted():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.put(b"n", b"c", b"v")
        yield from client.get(b"n", b"c", consistent=True)
        yield from client.delete(b"n", b"c")

    run(cluster, scenario())
    assert client.ops_completed == 3


# -- timeline reads go to the replica with the fewest reads in flight -------

def settled(key, cluster=None):
    """A cluster holding ``key`` = b"v" on every replica of its cohort."""
    cluster = cluster or make_cluster()
    client = cluster.client()
    run(cluster, client.put(key, b"c", b"v"))
    cluster.run(1.0)                # let the commit reach the followers
    return cluster, client, cluster.partitioner.cohort_for_key(key_of(key))


def served_by(cluster, cohort):
    return {m: cluster.nodes[m].replicas[cohort.cohort_id].reads_served
            for m in cohort.members}


def test_reads_in_flight_to_two_members_send_the_next_pick_to_the_third():
    cluster, client, cohort = settled(b"steer")
    for _ in range(2):
        spawn(cluster.sim, client.get(b"steer", b"c", consistent=False))
    cluster.run(1e-5)               # both sent, neither answered
    busy = client._reads_in_flight
    assert sorted(busy.values()) == [1, 1], busy
    (third,) = set(cohort.members) - set(busy)
    for _ in range(20):
        assert client._timeline_target(cohort) == third


def _ok(cluster, client, cohort, key):
    run(cluster, client.get(key, b"c", consistent=False))


def _error_reply(cluster, client, cohort, key):
    """Stale clients, their maps from before a split, read a moved key:
    the old member left out of the child cohort answers ``wrong-node``,
    and the read retries on the refreshed map."""
    stale = [cluster.client(f"stale{i}") for i in range(8)]
    cluster.add_node("node5")
    plans = plan_join(cluster.partitioner, ["node5"],
                      heat={c.cohort_id: 100.0 if c is cohort else 1.0
                            for c in cluster.partitioner.cohorts})
    proc = spawn(cluster.sim, Rebalancer(cluster).execute(plans))
    cluster.run_until(lambda: proc.triggered, limit=120.0, what="split")
    proc.result()
    moved = next(b"drain-%d" % i for i in range(1000)
                 if cluster.partitioner.cohort_for_key(
                     key_of(b"drain-%d" % i)).cohort_id
                 == plans[0].new_cohort_id)

    def read_all():
        for one in stale:
            yield from one.get(moved, b"c", consistent=False)
            assert not any(one._reads_in_flight.values())

    run(cluster, read_all())
    assert sum(one.retries for one in stale) >= 1
    assert sum(one.map_refreshes for one in stale) >= 1


def _rpc_timeout(cluster, client, cohort, key):
    cluster.crash_node(cohort.members[0])

    def read_until_timed_out():
        for _ in range(20):
            got = yield from client.get(key, b"c", consistent=False)
            assert got.value == b"v"
            if client.retries:
                return

    run(cluster, read_until_timed_out())
    assert client.retries == 1


def _target_crashes(cluster, client, cohort, key):
    proc = spawn(cluster.sim, client.get(key, b"c", consistent=False))
    cluster.run(1e-5)
    (target,) = client._reads_in_flight
    cluster.crash_node(target)
    cluster.run_until(lambda: proc.triggered, limit=60.0, what="read")
    assert proc.result().value == b"v"
    assert client.retries == 1


def _caller_interrupted(cluster, client, cohort, key):
    proc = spawn(cluster.sim, client.get(key, b"c", consistent=False))
    cluster.run(1e-5)
    assert client._reads_in_flight
    proc.interrupt("cancelled")
    cluster.run(1e-5)
    with pytest.raises(ProcessKilled):
        proc.result()


@pytest.mark.parametrize("ending", [_ok, _error_reply, _rpc_timeout,
                                    _target_crashes, _caller_interrupted],
                         ids=lambda f: f.__name__.strip("_"))
def test_a_read_leaves_nothing_in_flight_however_it_ends(ending):
    cluster, client, cohort = settled(b"drain")
    client.retries = 0
    ending(cluster, client, cohort, b"drain")
    assert not any(client._reads_in_flight.values())


def test_a_slow_replica_serves_clearly_fewer_concurrent_timeline_reads():
    """One replica with a single core (the others have eight): reads
    queue there, so this client's in-flight count steers around it."""
    cluster, client, cohort = settled(b"limp")
    slow = cohort.members[0]
    cluster.nodes[slow].cpu.capacity = 1
    before = served_by(cluster, cohort)

    def reader():
        for _ in range(10):
            got = yield from client.get(b"limp", b"c", consistent=False)
            assert got.value == b"v"

    procs = [spawn(cluster.sim, reader()) for _ in range(24)]
    cluster.run_until(lambda: all(p.triggered for p in procs), limit=30.0,
                      what="readers")
    for proc in procs:
        proc.result()               # no read failed
    served = {m: n - before[m]
              for m, n in served_by(cluster, cohort).items()}
    assert sum(served.values()) == 240
    assert served[slow] < 240 / 6, served

