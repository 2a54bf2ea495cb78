"""Failure and recovery tests: leader failover, follower catch-up,
availability guarantees (§6, §7, §8.1)."""

import pytest

from repro.core import (RequestTimeout, Role, SpinnakerCluster,
                        SpinnakerConfig)
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn


def fast_config(**overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def make_cluster(n=5, **overrides):
    cluster = SpinnakerCluster(n_nodes=n, config=fast_config(**overrides),
                               seed=7)
    cluster.start()
    return cluster


def run_client(cluster, gen, limit=60.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="client op")
    return proc.result()


def keys_for_cohort(cluster, cohort_id, count):
    """Find row keys that route to the given cohort."""
    keys = []
    i = 0
    while len(keys) < count:
        key = b"k-%d" % i
        if cluster.partitioner.cohort_for_key(
                key_of(key)).cohort_id == cohort_id:
            keys.append(key)
        i += 1
    return keys


def test_leader_failover_preserves_committed_writes():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    keys = keys_for_cohort(cluster, cohort_id, 15)

    def write_all():
        for i, key in enumerate(keys):
            yield from client.put(key, b"c", b"v%d" % i)

    run_client(cluster, write_all())
    old_leader = cluster.kill_leader(cohort_id)
    assert old_leader is not None
    cluster.run_until(
        lambda: cluster.leader_of(cohort_id) not in (None, old_leader),
        limit=30.0, what="new leader")
    new_leader = cluster.leader_of(cohort_id)
    assert new_leader != old_leader

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c", consistent=True)))
        return out

    results = run_client(cluster, read_all())
    assert all(r.found for r in results)
    assert [r.value for r in results] == [b"v%d" % i
                                          for i in range(len(keys))]
    assert cluster.all_failures() == []


def test_writes_resume_after_failover():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 1
    keys = keys_for_cohort(cluster, cohort_id, 10)

    def before():
        for key in keys[:5]:
            yield from client.put(key, b"c", b"before")

    run_client(cluster, before())
    cluster.kill_leader(cohort_id)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="new leader")

    def after():
        for key in keys[5:]:
            yield from client.put(key, b"c", b"after")
        return (yield from client.get(keys[7], b"c", consistent=True))

    got = run_client(cluster, after())
    assert got.value == b"after"
    assert cluster.all_failures() == []


def test_failover_with_detection_timeout():
    """Without skipping detection, the session timeout (2 s) is paid."""
    cluster = make_cluster()
    cohort_id = 0
    t0 = cluster.sim.now
    cluster.kill_leader(cohort_id, skip_detection=False)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=40.0, what="new leader")
    elapsed = cluster.sim.now - t0
    assert elapsed >= 1.0  # dominated by the 2s session timeout
    assert cluster.all_failures() == []


def test_new_leader_has_max_lst():
    """§7.2: the candidate with the max n.lst must win."""
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    keys = keys_for_cohort(cluster, cohort_id, 8)

    def write_all():
        for key in keys:
            yield from client.put(key, b"c", b"v")

    run_client(cluster, write_all())
    old_leader = cluster.kill_leader(cohort_id)
    members = cluster.partitioner.cohort(cohort_id).members
    survivors = [m for m in members if m != old_leader]
    lsts = {m: cluster.nodes[m].n_lst(cohort_id) for m in survivors}
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="new leader")
    winner = cluster.leader_of(cohort_id)
    assert lsts[winner] == max(lsts.values())


def test_follower_restart_catches_up():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 2
    members = cluster.partitioner.cohort(cohort_id).members
    leader = cluster.leader_of(cohort_id)
    follower = next(m for m in members if m != leader)
    keys = keys_for_cohort(cluster, cohort_id, 12)

    def phase(lo, hi):
        def _go():
            for key in keys[lo:hi]:
                yield from client.put(key, b"c", b"v")
        return _go()

    run_client(cluster, phase(0, 4))
    cluster.crash_node(follower)
    run_client(cluster, phase(4, 10))      # quorum of 2 still commits
    cluster.restart_node(follower)
    replica = cluster.replica(follower, cohort_id)
    cluster.run_until(lambda: replica.role == Role.FOLLOWER, limit=30.0,
                      what="follower recovered")
    # After a commit period, the follower's engine holds everything.
    cluster.run(2.0)
    for key in keys[:10]:
        cell = replica.engine.get(key, b"c")
        assert cell is not None and cell.value == b"v", key
    assert cluster.all_failures() == []


def test_two_nodes_down_blocks_writes_then_recovers():
    """§8.1: writes need a majority; 1-of-3 up means unavailable."""
    cluster = make_cluster(**{"client_op_timeout": 3.0})
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    keys = keys_for_cohort(cluster, cohort_id, 4)

    run_client(cluster, client.put(keys[0], b"c", b"pre"))
    # Crash two members, leaving one up.
    leader = cluster.leader_of(cohort_id)
    assert cluster.replica(leader, cohort_id).queue.acks_needed == 1
    downs = [m for m in members if m != leader][:1] + [leader]
    for name in downs:
        session = cluster.nodes[name].zk.session
        cluster.crash_node(name)
        cluster.coord.expire_session_now(session)

    def blocked_write():
        try:
            yield from client.put(keys[1], b"c", b"during")
            return "committed"
        except RequestTimeout:
            return "timeout"

    assert run_client(cluster, blocked_write(), limit=30.0) == "timeout"
    # Restart one: majority restored, writes flow again.
    cluster.restart_node(downs[0])
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="quorum back")

    def unblocked_write():
        yield from client.put(keys[2], b"c", b"post")
        return (yield from client.get(keys[2], b"c", consistent=True))

    got = run_client(cluster, unblocked_write())
    assert got.value == b"post"


@pytest.mark.parametrize("down, acked", [(3, False), (2, True)])
def test_five_way_replication_commits_on_three_of_five(down, acked):
    """§4-5: the commit quorum follows the replication factor — a put
    acknowledged by 2 of 5 could be missed by a later election's
    majority of 3."""
    cluster = make_cluster(replication_factor=5)
    leader = cluster.leader_of(0)
    followers = cluster.replica(leader, 0).peers()
    assert len(followers) == 4
    assert cluster.replica(leader, 0).queue.acks_needed == 2
    for name in followers[:down]:
        cluster.crash_node(name)
    put = spawn(cluster.sim, cluster.client().put(
        keys_for_cohort(cluster, 0, 1)[0], b"c", b"v"))
    cluster.run(1.0)
    assert put.triggered == acked
    if acked:
        assert put.result().version == 1
    assert cluster.all_failures() == []


def test_timeline_reads_available_with_one_node_up():
    """§8.1: timeline reads survive with a single live replica."""
    cluster = make_cluster(**{"client_op_timeout": 5.0})
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    key = keys_for_cohort(cluster, cohort_id, 1)[0]

    run_client(cluster, client.put(key, b"c", b"v"))
    cluster.run(1.0)  # let commit messages propagate
    survivor = members[2]
    for name in members[:2]:
        cluster.crash_node(name)

    def timeline_read():
        # May need retries until it lands on the survivor.
        return (yield from client.get(key, b"c", consistent=False))

    got = run_client(cluster, timeline_read(), limit=30.0)
    assert got.found and got.value == b"v"
    assert cluster.nodes[survivor].alive


def test_full_cluster_restart_preserves_data():
    cluster = make_cluster()
    client = cluster.client()
    keys = [b"fk-%d" % i for i in range(20)]

    def write_all():
        for key in keys:
            yield from client.put(key, b"c", b"durable")

    run_client(cluster, write_all())
    cluster.run(1.0)  # commit messages + markers ride down with forces
    for node in cluster.nodes.values():
        cluster.crash_node(node.name)
    cluster.run(3.0)  # sessions expire
    for node in cluster.nodes.values():
        cluster.restart_node(node.name)
    cluster.run_until(cluster.is_ready, limit=60.0, what="cluster ready")

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c", consistent=True)))
        return out

    results = run_client(cluster, read_all(), limit=60.0)
    assert all(r.found and r.value == b"durable" for r in results)
    assert cluster.all_failures() == []


def test_disk_loss_recovers_via_catchup():
    """§6.1: a follower that lost all data goes straight to catch-up."""
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    leader = cluster.leader_of(cohort_id)
    victim = next(m for m in members if m != leader)
    keys = keys_for_cohort(cluster, cohort_id, 8)

    def write_all():
        for key in keys:
            yield from client.put(key, b"c", b"v")

    run_client(cluster, write_all())
    cluster.run(1.0)
    cluster.nodes[victim].lose_disk()
    replica = cluster.replica(victim, cohort_id)
    cluster.run_until(lambda: replica.role == Role.FOLLOWER, limit=30.0,
                      what="victim recovered")
    cluster.run(1.0)
    for key in keys:
        cell = replica.engine.get(key, b"c")
        assert cell is not None and cell.value == b"v"


def test_partitioned_leader_blocks_writes_until_heal():
    """CAP: Spinnaker is CA — a partitioned cohort stalls writes rather
    than diverging (§1.2, §8.3)."""
    cluster = make_cluster(**{"client_op_timeout": 3.0})
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    leader = cluster.leader_of(cohort_id)
    followers = [m for m in members if m != leader]
    key = keys_for_cohort(cluster, cohort_id, 1)[0]

    for f in followers:
        cluster.network.block(leader, f)

    def stalled():
        try:
            yield from client.put(key, b"c", b"x")
            return "committed"
        except RequestTimeout:
            return "timeout"

    assert run_client(cluster, stalled(), limit=30.0) == "timeout"
    cluster.network.heal()

    def resumed():
        yield from client.put(key, b"c", b"y")
        return (yield from client.get(key, b"c", consistent=True))

    got = run_client(cluster, resumed(), limit=30.0)
    assert got.value == b"y"


def test_a_node_restarted_while_cut_off_from_coord_comes_back():
    """A boot opens its coordination session the way a rejoin does:
    bounded, retried while the service is out of reach.  It used to
    wait on an unbounded ``start-session`` RPC, so a node restarted
    inside a partition from the service never came back once it healed
    — no session, no local recovery, no leader monitors (the harsh
    3-DC 9-node storm of seed 10: node7 and node8)."""
    cluster = make_cluster()
    victim = cluster.leader_of(0)
    cluster.crash_node(victim)
    cluster.network.block(victim, "coord")
    cluster.restart_node(victim)
    cluster.run(5.0)                # start-session dropped, and retried
    node = cluster.nodes[victim]
    assert node.zk.session is None and not node._monitors
    cluster.network.heal()
    cluster.run_until(lambda: node.zk.session is not None
                      and cluster.is_ready(), limit=30.0, what="rejoin")
    cluster.run(2.0)                # monitors follow the session
    assert sorted(node._monitors) == sorted(node.replicas)
    assert all(proc.is_alive for proc in node._monitors.values())
    assert all(replica.role in (Role.LEADER, Role.FOLLOWER)
               for replica in node.replicas.values())
    assert cluster.all_failures() == []


def test_a_crash_ends_the_takeover_and_commit_loop_it_started(monkeypatch):
    # A takeover's catch-up pushes and the commit loop it starts belong
    # to the node: its crash must end them, or a push resumes against
    # the rebooted incarnation's state (or hangs on an orphaned request).
    from repro.core import CohortReplica, recovery
    running = {}

    def tracked(replica, what, gen):
        key = (replica.node.name, replica.cohort_id, what)
        running[key] = True
        try:
            return (yield from gen)
        finally:
            running[key] = False

    push = recovery.push_catchup
    monkeypatch.setattr(recovery, "push_catchup", lambda replica, peer:
                        tracked(replica, peer, push(replica, peer)))
    loop = CohortReplica.commit_loop
    monkeypatch.setattr(CohortReplica, "commit_loop", lambda replica:
                        tracked(replica, "commit-loop", loop(replica)))

    def live(node):
        return sorted(key[1:] for key, on in running.items()
                      if on and key[0] == node)

    cluster = SpinnakerCluster(n_nodes=5, seed=3)
    cluster.start()
    assert cluster.leader_of(0) == "node0"
    assert (0, "commit-loop") in live("node0")
    cluster.kill_leader(0, skip_detection=False)
    cluster.run(1e-6)
    assert live("node0") == []
    node1 = cluster.nodes["node1"]
    cluster.run_until(lambda: node1.replicas[0].is_leader, limit=10.0,
                      step=0.005, what="node1's takeover")
    assert not node1.replicas[0].open_for_writes
    assert [k for k in live("node1") if k[0] == 0] == [(0, "node0"),
                                                       (0, "node2")]
    node1.crash()
    cluster.run(1e-6)
    assert live("node1") == []
    node1.restart()
    cluster.run_until(lambda: cluster.leader_of(0) is not None, limit=30.0,
                      what="a leader again")
    assert cluster.all_failures() == []
