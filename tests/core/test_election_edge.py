"""Election edge cases: safety of the max-n.lst rule, concurrent rounds,
epoch monotonicity, repeated failovers."""

import pytest

from repro.chaos.nemesis import ChaosConfig, run_chaos
from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.messages import Propose
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.network import Reply
from repro.sim.process import spawn
from repro.storage.lsn import LSN


def make_cluster(n=3, seed=51, **overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cluster = SpinnakerCluster(n_nodes=n, config=cfg, seed=seed)
    cluster.start()
    return cluster


def run(cluster, gen, limit=60.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="proc")
    return proc.result()


def cohort_keys(cluster, cohort_id, count):
    keys, i = [], 0
    while len(keys) < count:
        key = b"el-%d" % i
        if cluster.partitioner.cohort_for_key(
                key_of(key)).cohort_id == cohort_id:
            keys.append(key)
        i += 1
    return keys


def test_epoch_strictly_increases_across_failovers():
    cluster = make_cluster(n=5)
    cohort_id = 0
    epochs = []
    for _round in range(3):
        leader = cluster.leader_of(cohort_id)
        epochs.append(cluster.replica(leader, cohort_id).epoch)
        victim = leader
        cluster.kill_leader(cohort_id)
        cluster.run_until(
            lambda: cluster.leader_of(cohort_id) not in (None, victim),
            limit=30.0, what="failover")
        cluster.restart_node(victim)
        replica_v = cluster.replica(victim, cohort_id)
        cluster.run_until(
            lambda: replica_v.role in (Role.FOLLOWER, Role.LEADER),
            limit=30.0, what="victim back")
    leader = cluster.leader_of(cohort_id)
    epochs.append(cluster.replica(leader, cohort_id).epoch)
    assert epochs == sorted(set(epochs)), epochs
    assert cluster.all_failures() == []


def test_lsns_never_reused_across_epochs():
    """After each failover, new writes get LSNs above everything the
    cohort ever used (App. B's guarantee)."""
    cluster = make_cluster(n=5)
    cohort_id = 0
    keys = cohort_keys(cluster, cohort_id, 12)
    client = cluster.client()
    seen_lsns = set()

    def write_some(lo, hi):
        def _go():
            for key in keys[lo:hi]:
                yield from client.put(key, b"c", b"v")
        run(cluster, _go())

    for round_idx in range(3):
        write_some(round_idx * 4, round_idx * 4 + 4)
        leader = cluster.leader_of(cohort_id)
        wal = cluster.nodes[leader].wal
        lsns = {r.lsn for r in wal.write_records(cohort_id)}
        new = {lsn for lsn in lsns if lsn not in seen_lsns}
        assert new, "round produced no new LSNs"
        if seen_lsns:
            assert all(lsn > max(seen_lsns) for lsn in new)
        seen_lsns |= lsns
        if round_idx < 2:
            victim = leader
            cluster.kill_leader(cohort_id)
            cluster.run_until(
                lambda: cluster.leader_of(cohort_id) not in (None, victim),
                limit=30.0, what="failover")
            cluster.restart_node(victim)
            replica_v = cluster.replica(victim, cohort_id)
            cluster.run_until(
                lambda: replica_v.role in (Role.FOLLOWER, Role.LEADER),
                limit=30.0, what="victim back")


def test_simultaneous_double_failover_on_disjoint_cohorts():
    """Two leaders of disjoint cohorts die at once; both cohorts still
    have majorities and recover independently."""
    cluster = make_cluster(n=6)
    # With 6 nodes, cohorts 0 = {n0,n1,n2} and 3 = {n3,n4,n5} are
    # disjoint; each keeps 2 of 3 members after losing its leader.
    l0 = cluster.leader_of(0)
    l3 = cluster.leader_of(3)
    assert not (set(cluster.partitioner.cohort(0).members)
                & set(cluster.partitioner.cohort(3).members))
    cluster.kill_leader(0)
    cluster.kill_leader(3)
    cluster.run_until(
        lambda: cluster.leader_of(0) is not None
        and cluster.leader_of(3) is not None,
        limit=40.0, what="double failover")
    assert cluster.leader_of(0) != l0
    assert cluster.leader_of(3) != l3
    assert cluster.all_failures() == []


def test_winner_must_hold_every_committed_write():
    """Safety (§7.2): after any single-failure failover, the new leader's
    log contains every write the old leader acknowledged."""
    cluster = make_cluster(n=5)
    cohort_id = 0
    keys = cohort_keys(cluster, cohort_id, 10)
    client = cluster.client()
    acked = []

    def write_all():
        for i, key in enumerate(keys):
            yield from client.put(key, b"c", b"v%d" % i)
            acked.append(key)

    run(cluster, write_all())
    old = cluster.kill_leader(cohort_id)
    cluster.run_until(
        lambda: cluster.leader_of(cohort_id) not in (None, old),
        limit=30.0, what="failover")
    new_leader = cluster.leader_of(cohort_id)
    wal = cluster.nodes[new_leader].wal
    engine = cluster.replica(new_leader, cohort_id).engine
    for key in acked:
        assert engine.get(key, b"c") is not None, key


def test_cluster_of_four_uses_majority_two_of_three():
    """Cohorts are always 3-node groups regardless of cluster size, so
    majorities stay 2 and a single failure never blocks a cohort."""
    cluster = make_cluster(n=4)
    for cohort in cluster.partitioner.cohorts:
        assert len(cohort.members) == 3
    cohort_id = 0
    cluster.kill_leader(cohort_id)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="failover")
    assert cluster.leader_of(cohort_id) is not None


def test_follower_restart_does_not_trigger_election():
    cluster = make_cluster(n=5)
    cohort_id = 0
    leader = cluster.leader_of(cohort_id)
    epoch_before = cluster.replica(leader, cohort_id).epoch
    follower = next(m for m in
                    cluster.partitioner.cohort(cohort_id).members
                    if m != leader)
    cluster.crash_node(follower)
    cluster.run(4.0)  # session expires; leader stays up
    cluster.restart_node(follower)
    replica_f = cluster.replica(follower, cohort_id)
    cluster.run_until(lambda: replica_f.role == Role.FOLLOWER,
                      limit=30.0, what="rejoin")
    assert cluster.leader_of(cohort_id) == leader
    assert cluster.replica(leader, cohort_id).epoch == epoch_before


def test_a_gapped_replica_must_not_win_the_3dc_seed_9_storm():
    """``python -m repro chaos --dcs 3 --nodes 5 --seed 9``: a drop burst
    cost node2 the propose of 2.51 while it logged 2.52-2.56; 2.51
    committed on node3 and node1; node3 crashed; node1 and node2 tied at
    n.lst 2.56 and node2 won — a leader without a committed record
    (log-prefix violation).  A follower now logs a propose only on top
    of its ``prev``: node2 takes nothing above the hole and resyncs."""
    report = run_chaos(9, ChaosConfig(n_nodes=5, n_dcs=3))
    assert report.ok, report.format()


def test_a_follower_that_lost_a_propose_logs_and_acks_nothing_above_it():
    """One propose to a follower is lost.  The next one names the lost
    one's top as its ``prev``: the follower refuses it on arrival —
    logging nothing above the hole, so its n.lst cannot pass a replica
    that holds the lost record — and resyncs; every ack it sends covers
    the leader's whole stream up to the LSN it names, the ack premise
    ``CommitQueue.add_ack_upto`` counts on."""
    cluster = make_cluster()
    cluster.run(2.0)
    cohort_id = 0
    leader = cluster.leader_of(cohort_id)
    victim = next(m for m in cluster.partitioner.cohort(cohort_id).members
                  if m != leader)
    replica = cluster.replica(victim, cohort_id)
    wal, leader_wal = cluster.nodes[victim].wal, cluster.nodes[leader].wal
    lost, refused = [], []

    def losing(req, inner=cluster.nodes[victim]._dispatch):
        payload = req.payload
        if isinstance(payload, Propose) and payload.cohort_id == cohort_id:
            if not lost:
                lost.append(payload)
                return
            if not refused:
                inner(req)
                refused.append((payload, replica.role, replica.resyncs,
                                wal.last_lsn(cohort_id)))
                return
        inner(req)

    cluster.nodes[victim].endpoint.on_request(losing)
    uncovered = []
    ack = replica._ack_propose

    def checked_ack(req, joined=()):
        top = max(each.payload.records[-1].lsn for each in (req, *joined))
        floor = wal.min_retained_lsn(cohort_id)
        mine = {r.lsn for r in wal.write_records(cohort_id, after=floor)}
        uncovered.extend(
            (top, r.lsn) for r in leader_wal.write_records(
                cohort_id, after=floor, upto=top) if r.lsn not in mine)
        ack(req, joined)

    replica._ack_propose = checked_ack
    keys = cohort_keys(cluster, cohort_id, 12)
    client = cluster.client()

    def writes():
        for i, key in enumerate(keys):
            yield from client.put(key, b"c", b"v%d" % i)

    run(cluster, writes())
    cluster.run_until(lambda: replica.role == Role.FOLLOWER, limit=30.0,
                      what="caught up")
    (payload, role, resyncs, n_lst), = refused
    hole = lost[0].records[0].lsn
    assert payload.prev == lost[0].records[-1].lsn
    assert n_lst < hole                 # nothing above the hole logged
    assert role == Role.RECOVERING and resyncs == 1
    assert uncovered == []
    assert wal.contains(cohort_id, hole)    # the catch-up brought it
    assert cluster.all_failures() == []


def test_takeover_retries_until_a_majority_is_caught_up():
    """Takeover's line 8: with the old leader down and the two survivors
    cut off from each other, the winner's pushes all fail, so no round
    reaches a majority and the cohort stays shut (§8.1).  Each failed
    round is retried; once the survivors can talk again a round
    succeeds and the cohort opens."""
    cluster = make_cluster(n=3, seed=52)
    cohort_id = 0
    old = cluster.leader_of(cohort_id)
    survivors = [m for m in cluster.partitioner.cohort(cohort_id).members
                 if m != old]
    cluster.network.block(*survivors)
    cluster.kill_leader(cohort_id)
    cluster.run_until(
        lambda: any(cluster.replica(m, cohort_id).role == Role.LEADER
                    for m in survivors),
        limit=30.0, what="a winner")
    cluster.run(10.0)
    winner = next(m for m in survivors
                  if cluster.replica(m, cohort_id).role == Role.LEADER)
    assert not cluster.replica(winner, cohort_id).open_for_writes
    assert cluster.leader_of(cohort_id) is None
    cluster.network.heal(*survivors)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) == winner,
                      limit=30.0, what="the cohort to open")
    assert cluster.all_failures() == []


def drop_once(cluster, match):
    """Lose the first message ``match(env, src, dst)`` picks, as a
    blocked link would; returns the list its drop time is appended to."""
    net = cluster.network
    transmit = net._transmit
    dropped = []

    def lossy(env, src_ep, dst, size):
        if not dropped and match(env, src_ep.name, dst):
            dropped.append(cluster.sim.now)
            net.messages_sent += 1
            net.messages_dropped += 1
            return
        transmit(env, src_ep, dst, size)

    net._transmit = lossy
    return dropped


def _a_lost_coordination_message_ends_the_session(match_payload):
    """Kill cohort 0's leader and lose one message from the coordination
    service to the first survivor: its session ends at the next
    heartbeat (the ack's counts show the shortfall), and the cohort then
    has an open leader.  Without that, the survivor waits forever and no
    round ever reaches a majority."""
    cluster = make_cluster(n=3)
    cohort_id = 0
    old = cluster.leader_of(cohort_id)
    target = next(m for m in cluster.partitioner.cohort(cohort_id).members
                  if m != old)
    node = cluster.nodes[target]
    dropped = drop_once(
        cluster, lambda env, src, dst: src == "coord" and dst == target
        and match_payload(env))
    cluster.kill_leader(cohort_id)
    cluster.run_until(lambda: node.session_losses, limit=5.0, step=0.001,
                      what="the session to end")
    heartbeat = node.config.session_timeout / 3
    assert len(dropped) == 1 and cluster.sim.now - dropped[0] < heartbeat
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=10.0, what="an open leader")
    assert node.session_losses == 1
    assert cluster.all_failures() == []


def test_a_lost_reply_to_a_candidate_ends_its_session():
    def round_children_reply(env):
        return (type(env) is Reply
                and env.req.payload.get("op") == "children"
                and env.req.payload.get("path") == "/cohorts/0")

    _a_lost_coordination_message_ends_the_session(round_children_reply)


def test_a_lost_watch_event_to_a_leader_monitor_ends_its_session():
    def leader_watch_event(env):
        payload = env.payload
        return (isinstance(payload, dict)
                and payload.get("op") == "watch-event"
                and payload["path"] == "/cohorts/0/leader")

    _a_lost_coordination_message_ends_the_session(leader_watch_event)
