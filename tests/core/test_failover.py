"""Failure and recovery tests: leader failover, follower catch-up,
availability guarantees (§6, §7, §8.1)."""

from types import SimpleNamespace

import pytest

from repro.chaos.nemesis import FaultEvent, arm_schedule
from repro.core import (RequestTimeout, Role, SpinnakerCluster,
                        SpinnakerConfig)
from repro.core.messages import ClientGet
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn, timeout


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


def test_a_restarted_member_of_an_elected_cohort_announces_at_once():
    """perfbench's ``failover`` schedule at seed 1, without its load:
    cohort 0's leader, node0, crashes at 3 s and restarts at 8 s; at
    12 s cohort 3's leader crashes with its session expired at once.
    node0 is cohort 3's member in placement position 2.  The bootstrap
    stagger (0.04 s a position) is for a cohort that never had a leader,
    so the restarted node0 announces at once and the cohort opens within
    30 ms of the expiry, not after waiting 0.08 s."""
    config = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                             commit_period=0.3, client_try_timeout=0.25,
                             client_max_retries=100)
    cluster = SpinnakerCluster(n_nodes=5, config=config, seed=1)
    cluster.start()
    base = cluster.sim.now
    arm_schedule(cluster, [
        FaultEvent(at=3.0, kind="crash-leader", duration=5.0, cohort=0,
                   fast_detect=False),
        FaultEvent(at=12.0, kind="crash-leader", duration=4.0, cohort=3,
                   fast_detect=True)])
    cluster.run(12.0 + 1e-6)
    assert cluster.leader_of(3) is None
    cluster.run_until(lambda: cluster.leader_of(3) is not None,
                      limit=1.0, step=0.0005, what="cohort 3 to open")
    assert cluster.sim.now - (base + 12.0) < 0.030
    assert "node0" in cluster.partitioner.cohort(3).members
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


# -- a client that sees a dead leader before the cluster does ---------------
#
# With ``client_try_timeout`` under ``session_timeout`` a strong op that
# timed out on the dead leader asks a live replica to hold it until that
# replica learns of a new leader (core/api.py, core/replication.py).

def outage_cluster():
    """5 nodes and 0.25 s client tries, for a test to kill cohort 0's
    leader with slow detection: the coordination service notices only
    when its session times out, 2 s on.  Returns (cluster, cohort 0's
    members, its leader)."""
    cluster = make_cluster(client_try_timeout=0.25, client_max_retries=100)
    members = cluster.partitioner.cohort(0).members
    return cluster, members, cluster.leader_of(0)


def rtt(cluster):
    return cluster.network.rtt_bound(size_bytes=128)


def spy_sends(monkeypatch, client):
    """Record (time, member, key) for each of ``client``'s tries."""
    sent = []
    request = client.endpoint.request

    def spy(dst, payload, **kw):
        key = (payload.key if isinstance(payload, ClientGet)
               else payload.ops[0].key)
        sent.append((client.sim.now, dst, key))
        return request(dst, payload, **kw)

    monkeypatch.setattr(client.endpoint, "request", spy)
    return sent


def test_ops_held_when_the_cohort_opens_complete_within_a_service_time(
        monkeypatch):
    """Strong gets and puts issued through the outage: those held when
    the cohort opens are answered by the open, and those whose try to
    the dead leader is in flight then are ended by a sibling's news of
    it.  Both re-send at once, so they reach the new leader in one
    burst: its cores drain the ops pending at the open, a leader service
    time per ``CORES_PER_NODE`` of them, and two round trips on."""
    from repro.core.config import (CORES_PER_NODE, READ_SERVICE,
                                   STRONG_READ_OVERHEAD)
    from repro.core.replication import CohortReplica
    cluster, members, old = outage_cluster()
    keys = keys_for_cohort(cluster, 0, 40)
    clients = [cluster.client(f"c{i}") for i in range(4)]
    warm = keys[:4]

    def warm_up():
        for client, key in zip(clients, warm):
            yield from client.put(key, b"c", b"v0")
            yield from client.get(key, b"c", consistent=True)

    run_client(cluster, warm_up())

    def quiet(op):
        def timed():
            t0 = cluster.sim.now
            yield from op
            return cluster.sim.now - t0
        return run_client(cluster, timed())

    put_time = quiet(clients[0].put(keys[0], b"c", b"v1"))
    get_time = quiet(clients[0].get(keys[0], b"c", consistent=True))
    assert get_time < READ_SERVICE + STRONG_READ_OVERHEAD + rtt(cluster)

    sent = [spy_sends(monkeypatch, client) for client in clients]
    held_at_open = {}           # key -> the open's time
    pending_at_open = []
    done = {}
    release = CohortReplica.release_held

    def spy_release(replica):
        if (replica.cohort_id == 0 and replica.is_leader
                and replica.open_for_writes and not pending_at_open):
            now = cluster.sim.now
            for name in members:
                for req in cluster.replica(name, 0)._held:
                    held_at_open[req.payload.key] = now
            pending_at_open.append((now, {key for log in sent
                                          for _, _, key in log} - set(done)))
        release(replica)

    monkeypatch.setattr(CohortReplica, "release_held", spy_release)
    cluster.kill_leader(0, skip_detection=False)

    def one(client, key, is_write):
        if is_write:
            yield from client.put(key, b"c", b"x")
        else:
            yield from client.get(key, b"c", consistent=True)
        done[key] = cluster.sim.now

    def issue():
        for i, key in enumerate(keys[4:]):
            spawn(cluster.sim, one(clients[i % 4], key, i % 2 == 0))
            yield timeout(cluster.sim, 0.05)

    spawn(cluster.sim, issue())
    cluster.run_until(lambda: len(done) == len(keys) - 4, limit=30.0,
                      what="every op")
    (opened, pending), = pending_at_open
    # Woken: in flight to the dead leader at the open, and sent on before
    # that try's deadline.
    per_try = cluster.config.client_try_timeout
    woken = {}
    for log in sent:
        for key in pending:
            tries = [(at, dst) for at, dst, k in log if k == key]
            for (at, dst), (then, _) in zip(tries, tries[1:]):
                if dst == old and at <= opened < then < at + per_try:
                    woken[key] = opened
    # Answered together at the open, a put may queue behind the burst's
    # gets and batches: a leader service time is the slower kind's.
    service = max(put_time, get_time)
    burst = -(-len(pending) // CORES_PER_NODE)
    assert len(held_at_open) >= 4 and woken
    for key, at in {**held_at_open, **woken}.items():
        assert done[key] - at <= burst * service + 2 * rtt(cluster), key
    assert sum(c.tries_woken for c in clients) >= len(woken)
    stats = cluster.stats()["nodes"]
    assert sum(n["holds_ended_news"] for n in stats.values()) >= len(
        held_at_open)
    assert sum(n["requests_held"] for n in stats.values()) == sum(
        n["holds_ended_news"] + n["holds_ended_expiry"]
        + n["holds_ended_crash"] for n in stats.values())
    assert cluster.all_failures() == []


def test_a_write_held_at_the_leader_elect_commits_exactly_once(monkeypatch):
    """The leader-elect holds the write through its takeover, answers it
    at the open, and the client's re-send commits it: once."""
    from repro.core import recovery
    from repro.sim.events import Event
    cluster, members, old = outage_cluster()
    client = cluster.client()
    key = keys_for_cohort(cluster, 0, 1)[0]
    run_client(cluster, client.put(key, b"c", b"v1"))
    # Hold every takeover at its first catch-up push until let go.
    gate = Event(cluster.sim)
    push = recovery.try_push_catchup

    def gated(replica, peers):
        if not gate.triggered:
            yield gate
        return (yield from push(replica, peers))

    monkeypatch.setattr(recovery, "try_push_catchup", gated)
    sent = []
    request = client.endpoint.request

    def spy(dst, payload, **kw):
        sent.append((dst, payload))
        return request(dst, payload, **kw)

    monkeypatch.setattr(client.endpoint, "request", spy)
    cluster.kill_leader(0, skip_detection=False)
    put = spawn(cluster.sim, client.put(key, b"c", b"v2"))

    def elect():
        for name in members:
            replica = cluster.replica(name, 0)
            if name != old and replica.is_leader and replica._held:
                return replica
        return None

    cluster.run_until(lambda: elect() is not None, limit=30.0, step=0.001,
                      what="the write held at the leader-elect")
    winner = elect()
    assert not winner.open_for_writes
    assert [dst for dst, _ in sent][-1] == winner.node.name
    gate.succeed()
    cluster.run_until(lambda: put.triggered, limit=5.0, what="the put")
    assert put.result().version == 2
    assert winner.holds_news == 1
    assert [dst for dst, _ in sent][-2:] == [winner.node.name] * 2
    got = run_client(cluster, client.get(key, b"c", consistent=True))
    assert (got.value, got.version) == (b"v2", 2)
    assert cluster.all_failures() == []


def test_news_looping_between_stale_views_backs_off():
    """Two followers each naming the other is news to a client that
    timed out on neither: it follows news at once once per member, then
    backs off, so the loop cannot burn its retries in a few round trips
    before the election fixes the views."""
    cluster, members, old = outage_cluster()
    a, b = [m for m in members if m != old]
    client = cluster.client()
    key = keys_for_cohort(cluster, 0, 1)[0]
    run_client(cluster, client.put(key, b"c", b"v1"))
    cluster.kill_leader(0, skip_detection=False)
    cluster.replica(a, 0).leader = b
    cluster.replica(b, 0).leader = a
    assert run_client(cluster, client.put(key, b"c", b"v2")).version == 2
    assert cluster.all_failures() == []


def held_get(key, old):
    """A strong get as a client re-sends it after timing out on ``old``."""
    return ClientGet(key, b"c", True, timed_out=(old,), hold=0.125)


def test_a_hold_that_learns_nothing_gets_todays_answer_at_its_wait():
    cluster, members, old = outage_cluster()
    key = keys_for_cohort(cluster, 0, 1)[0]
    follower = next(m for m in members if m != old)
    cluster.kill_leader(0, skip_detection=False)
    probe = cluster.network.endpoint("probe")
    answers = []

    def ask(msg):
        t0 = cluster.sim.now
        reply = yield probe.request(follower, msg, size=96, timeout=0.25)
        answers.append((cluster.sim.now - t0, reply))

    run_client(cluster, ask(ClientGet(key, b"c", True)))
    run_client(cluster, ask(held_get(key, old)))
    (quick, today), (waited, held) = answers
    assert today == {"ok": False, "code": "not-leader", "hint": old}
    assert held == today
    assert 0.125 <= waited < 0.125 + quick + rtt(cluster)
    replica = cluster.replica(follower, 0)
    assert (replica.holds, replica.holds_expired) == (1, 1)
    assert cluster.all_failures() == []


def test_a_crash_of_the_holding_replica_drops_what_it_held():
    from repro.sim.network import RpcTimeout
    cluster, members, old = outage_cluster()
    key = keys_for_cohort(cluster, 0, 1)[0]
    follower = next(m for m in members if m != old)
    cluster.kill_leader(0, skip_detection=False)
    probe = cluster.network.endpoint("probe")

    def ask():
        try:
            yield probe.request(follower, held_get(key, old),
                                size=96, timeout=0.25)
        except RpcTimeout:
            return "timed out"
        return "answered"

    asking = spawn(cluster.sim, ask())
    replica = cluster.replica(follower, 0)
    cluster.run_until(lambda: replica._held, limit=1.0, step=0.001,
                      what="the hold")
    cluster.crash_node(follower)
    cluster.restart_node(follower)      # back inside the old hold's wait
    cluster.run_until(lambda: asking.triggered, limit=1.0, what="the try")
    assert asking.result() == "timed out"
    cluster.run(0.5)
    assert probe.stale_replies == 0
    assert (replica.holds, replica.holds_crashed,
            replica.holds_expired) == (1, 1, 0)
    assert cluster.stats()["nodes"][follower]["holds_ended_crash"] == 1
    assert cluster.all_failures() == []


def test_default_timeouts_resend_the_message_unchanged(monkeypatch):
    """A 2 s try spans detection, so nothing is held: the re-send after a
    timeout is the very message the first try sent."""
    cluster = make_cluster()
    assert cluster.config.client_try_timeout == cluster.config.session_timeout
    client = cluster.client()
    key = keys_for_cohort(cluster, 0, 1)[0]
    run_client(cluster, client.put(key, b"c", b"v1"))
    sent = []
    request = client.endpoint.request

    def spy(dst, payload, **kw):
        sent.append((dst, payload))
        return request(dst, payload, **kw)

    monkeypatch.setattr(client.endpoint, "request", spy)
    old = cluster.kill_leader(0, skip_detection=False)
    assert run_client(cluster, client.put(key, b"c", b"v2")).version == 2
    first, resent = sent[0][1], sent[1][1]
    assert sent[0][0] == old and resent is first
    assert (first.timed_out, first.hold) == ((), 0.0)
    assert sum(n["requests_held"]
               for n in cluster.stats()["nodes"].values()) == 0


# -- a sibling's news ends the tries to the dead leader ----------------------
#
# Holding on, a client keeps its strong tries in flight and the members
# any of its ops timed out on; news of a leader ends its other tries to
# such a member (core/api.py, ``SpinnakerClient._wake``).

def news_while_in_flight(monkeypatch):
    """Kill cohort 0's leader with slow detection; one put times out on
    it and is held at a follower.  A strong put and a strong get then
    start their try to the dead leader, and its session is expired so
    the held put gets news of the new leader while they are in flight.
    Returns the run: ``cluster``, ``client``, ``keys`` (held, put, get),
    ``news`` (its time), ``sent`` (each try), ``done`` and ``results``
    (by key)."""
    from repro.core.replication import CohortReplica
    cluster, members, old = outage_cluster()
    client = cluster.client()
    keys = keys_for_cohort(cluster, 0, 3)
    for key in keys:
        run_client(cluster, client.put(key, b"c", b"v1"))
    news = []
    answer = CohortReplica._news

    def spy(replica, req):
        news.append(cluster.sim.now)
        answer(replica, req)

    monkeypatch.setattr(CohortReplica, "_news", spy)
    sent = spy_sends(monkeypatch, client)
    session = cluster.nodes[old].zk.session
    t0 = cluster.sim.now
    cluster.kill_leader(0, skip_detection=False)
    done, results = {}, {}

    def one(key, op, delay):
        yield timeout(cluster.sim, delay)
        results[key] = yield from op()
        done[key] = cluster.sim.now

    held, put, get = keys
    spawn(cluster.sim, one(held, lambda: client.put(held, b"c", b"v2"), 0))
    spawn(cluster.sim, one(put, lambda: client.put(put, b"c", b"v2"), 0.255))
    spawn(cluster.sim, one(get, lambda: client.get(get, b"c", True), 0.255))
    cluster.run(0.26)
    assert [dst for _, dst, key in sent if key == held] == [old, members[1]]
    assert [dst for _, dst, key in sent if key != held] == [old, old]
    cluster.coord.expire_session_now(session)
    cluster.run_until(lambda: len(done) == 3, limit=10.0, what="the ops")
    assert len(news) == 1 and news[0] < t0 + 0.255 + 0.25
    return SimpleNamespace(cluster=cluster, client=client, keys=keys,
                           news=news[0], sent=sent, done=done,
                           results=results)


def quiet_service(cluster, client, key):
    """The slower of a quiet strong put's and get's latency."""
    def timed():
        t0 = cluster.sim.now
        yield from client.put(key, b"c", b"v")
        t1 = cluster.sim.now
        yield from client.get(key, b"c", consistent=True)
        return max(t1 - t0, cluster.sim.now - t1)
    return run_client(cluster, timed())


def test_tries_to_the_dead_leader_end_at_a_siblings_news(monkeypatch):
    """A strong put and get in flight to the dead leader are ended by a
    sibling's news and complete one service time and two round trips
    after it, not at their try's deadline."""
    run = news_while_in_flight(monkeypatch)
    cluster, client = run.cluster, run.client
    service = quiet_service(cluster, client, run.keys[0])
    for key in run.keys[1:]:
        assert run.done[key] - run.news <= service + 2 * rtt(cluster), key
    assert client.tries_woken == 2
    assert client.retries == 1 + 1 + 2     # timeout, news, 2 woken
    assert cluster.all_failures() == []


def test_a_woken_write_commits_exactly_once(monkeypatch):
    run = news_while_in_flight(monkeypatch)
    cluster, client, results = run.cluster, run.client, run.results
    put, get = run.keys[1:]
    # Ended before its try's deadline, and re-sent to the new leader:
    (first, old, _), (resent, leader, _) = [
        t for t in run.sent if t[2] == put]
    assert resent < first + 0.25 and leader != old
    assert results[put].version == 2
    assert (results[get].value, results[get].version) == (b"v1", 1)
    got = run_client(cluster, client.get(put, b"c", consistent=True))
    assert (got.value, got.version) == (b"v2", 2)
    assert cluster.all_failures() == []


def test_a_try_held_at_a_live_follower_is_not_ended_by_news(monkeypatch):
    """News ends only tries to members the client timed out on: one held
    at a live follower gets that follower's own answer, and a sibling's
    try to the dead leader is ended."""
    cluster, members, old = outage_cluster()
    follower, other = members[1], members[2]
    client = cluster.client()
    held, asks, woken = keys_for_cohort(cluster, 0, 3)
    for key in (held, asks, woken):
        run_client(cluster, client.put(key, b"c", b"v1"))
    sent = spy_sends(monkeypatch, client)
    t0 = cluster.sim.now
    cluster.kill_leader(0, skip_detection=False)

    def put(key, delay):
        yield timeout(cluster.sim, delay)
        return (yield from client.put(key, b"c", b"v2"))

    # ``woken`` starts its try after ``held`` timed out on the dead
    # leader: from then on the client tracks its tries to the cohort.
    ops = [spawn(cluster.sim, put(held, 0)),
           spawn(cluster.sim, put(asks, 0.02)),
           spawn(cluster.sim, put(woken, 0.255))]
    cluster.run(0.26)
    replica = cluster.replica(follower, 0)
    assert replica._held and replica.leader == old
    # The follower's view moves to ``other`` without releasing its hold:
    # ``asks``, timed out on the dead leader, is told ``other`` as news.
    replica.leader = other
    cluster.run(t0 + 0.37 - cluster.sim.now)   # the hold runs out at 0.375
    news = next(at for at, dst, key in sent
                if key == asks and dst == other)
    assert [(dst, at) for at, dst, key in sent if key == woken][:2] == [
        (old, t0 + 0.255), (other, news)]
    assert client.tries_woken == 1
    assert [dst for _, dst, key in sent if key == held] == [old, follower]
    assert replica._held and replica.holds_expired == 0
    cluster.run(0.03)                     # the hold, then a backoff
    assert replica.holds_expired == 1     # the follower's own answer:
    assert [dst for _, dst, key in sent if key == held][2:] == [other]
    cluster.run_until(lambda: all(op.triggered for op in ops), limit=10.0,
                      what="the puts")
    assert all(op.result().version == 2 for op in ops)
    assert cluster.all_failures() == []


def test_default_timeouts_track_and_end_nothing(monkeypatch):
    """With 2 s tries nothing is held, so no try is tracked or ended,
    though ops of one client overlap the dead leader's outage."""
    cluster = make_cluster()
    client = cluster.client()
    keys = keys_for_cohort(cluster, 0, 4)
    for key in keys:
        run_client(cluster, client.put(key, b"c", b"v1"))
    cluster.kill_leader(0, skip_detection=False)

    def op(i, key):
        yield timeout(cluster.sim, 0.3 * i)
        if i % 2:
            return (yield from client.get(key, b"c", consistent=True))
        return (yield from client.put(key, b"c", b"v2"))

    ops = [spawn(cluster.sim, op(i, key)) for i, key in enumerate(keys)]
    cluster.run_until(lambda: all(o.triggered for o in ops), limit=30.0,
                      what="the ops")
    assert client.retries > 0 and all(o.ok for o in ops)
    assert (client.tries_woken, client._tries, client._suspects) == (0, {},
                                                                     {})
    assert cluster.all_failures() == []
