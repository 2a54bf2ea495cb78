"""Scripted outage timelines against a real cluster, through the
nemesis applier (``arm_schedule``)."""

from repro.chaos import FaultEvent, arm_schedule
from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn, timeout


def make_cluster(seed=67):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2, client_op_timeout=8.0)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=seed)
    cluster.start()
    return cluster


def test_scheduled_rolling_outage_with_continuous_writes():
    cluster = make_cluster()
    sim = cluster.sim
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    # Roll each member down for 2 s, staggered 4 s apart; its session
    # lapses on its own (slow detect).
    log = arm_schedule(cluster, [
        FaultEvent(at=1.0 + 4.0 * i, kind="crash-node", duration=2.0,
                   node=member, fast_detect=False)
        for i, member in enumerate(members)])

    client = cluster.client()
    keys = []
    i = 0
    while len(keys) < 60:
        key = b"fs-%d" % i
        if cluster.partitioner.locate(key).cohort_id == cohort_id:
            keys.append(key)
        i += 1
    acked = []
    state = {"done": False}

    def writer():
        from repro.core.datamodel import DatastoreError
        for key in keys:
            try:
                yield from client.put(key, b"c", b"v")
                acked.append(key)
            except DatastoreError:
                pass
            yield timeout(sim, 0.2)
        state["done"] = True

    spawn(sim, writer())
    cluster.run_until(lambda: state["done"], limit=240.0, what="writer")
    cluster.run(3.0)
    # The schedule ran as written.
    assert len(log) == 6
    assert [line.split("] ")[1] for line in log] == [
        text for member in members for text in (
            f"crash-node: crashed {member} for 2.00s (slow-detect)",
            f"restarted {member}")]
    # Single-node outages never block the cohort for long: the vast
    # majority of paced writes were acknowledged...
    assert len(acked) >= len(keys) - 10
    # ...and every acknowledged write is durable.

    def read_back():
        out = []
        for key in acked:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        return out

    proc = spawn(sim, read_back())
    cluster.run_until(lambda: proc.triggered, limit=120.0, what="reads")
    assert all(r.found for r in proc.result())
    assert cluster.all_failures() == []


def test_scheduled_partition_heals_cleanly():
    cluster = make_cluster(seed=68)
    sim = cluster.sim
    cohort_id = 1
    leader = cluster.leader_of(cohort_id)
    followers = [m for m in cluster.partitioner.cohort(cohort_id).members
                 if m != leader]
    healed_at = sim.now + 2.5
    log = arm_schedule(cluster, [
        FaultEvent(at=0.5, kind="partition", duration=2.0, a=leader, b=f)
        for f in followers])

    client = cluster.client()
    key = next(b"fp-%d" % i for i in range(1000)
               if cluster.partitioner.locate(
                   b"fp-%d" % i).cohort_id == cohort_id)
    outcome = {}

    def scenario():
        yield timeout(sim, 1.0)  # inside the partition window
        start = sim.now
        yield from client.put(key, b"c", b"v")  # must wait for the heal
        outcome["write_done_at"] = sim.now
        outcome["blocked_for"] = sim.now - start

    proc = spawn(sim, scenario())
    cluster.run_until(lambda: proc.triggered, limit=60.0, what="write")
    # The write could not commit before the heal.
    assert outcome["write_done_at"] >= healed_at
    assert [line.split("] ")[1] for line in log] == (
        [f"partition {leader}|{f} for 2.00s" for f in followers]
        + [f"healed {leader}|{f}" for f in followers])
    assert cluster.all_failures() == []


def test_scheduled_disk_loss_rejoins_via_catchup():
    """A lose-disk fault wipes a follower's log and SSTables; the node
    must come back through catch-up with all committed data intact."""
    cluster = make_cluster(seed=69)
    sim = cluster.sim
    client = cluster.client()
    cohort_id = 0
    leader = cluster.leader_of(cohort_id)
    victim = next(m for m in cluster.partitioner.cohort(cohort_id).members
                  if m != leader)
    keys = []
    i = 0
    while len(keys) < 30:
        key = b"dl-%d" % i
        if cluster.partitioner.locate(key).cohort_id == cohort_id:
            keys.append(key)
        i += 1
    state = {"done": False}

    def writer():
        for key in keys:
            yield from client.put(key, b"c", b"v-" + key)
            yield timeout(sim, 0.1)
        state["done"] = True

    log = arm_schedule(cluster, [FaultEvent(at=1.3 - sim.now,
                                            kind="lose-disk", node=victim)])
    spawn(sim, writer())
    cluster.run_until(lambda: state["done"], limit=120.0, what="writer")
    cluster.run(8.0)  # let catch-up finish

    assert log == [f"[t={1.3:9.4f}] lose-disk: wiped {victim}, "
                   f"rebooting empty"]
    node = cluster.nodes[victim]
    assert node.alive
    replica = node.replicas[cohort_id]
    assert replica.role in (Role.FOLLOWER, Role.LEADER)
    # The wiped node holds every committed write again — either as
    # caught-up log records or shipped SSTables below its catch-up floor.
    for key in keys:
        cell = replica.engine.get(key, b"c")
        assert cell is not None and cell.value == b"v-" + key
    assert cluster.all_failures() == []


def test_leader_cut_off_from_coord_steps_down():
    """A leader partitioned from the coordination service loses its
    session lease and must step down before a rival wins the election —
    strong reads never go stale (§7.2)."""
    cluster = make_cluster(seed=70)
    sim = cluster.sim
    cohort_id = 0
    old_leader = cluster.leader_of(cohort_id)
    assert old_leader is not None
    cluster.network.block(old_leader, "coord")
    cluster.run_until(
        lambda: (cluster.leader_of(cohort_id) not in (None, old_leader)),
        limit=60.0, what="new leader")
    node = cluster.nodes[old_leader]
    assert node.session_losses >= 1
    replica = node.replicas[cohort_id]
    assert replica.role != Role.LEADER
    assert not replica.open_for_writes

    # Heal; the deposed node rejoins as a follower and writes flow.
    cluster.network.heal()
    client = cluster.client()
    key = next(b"sl-%d" % i for i in range(1000)
               if cluster.partitioner.locate(
                   b"sl-%d" % i).cohort_id == cohort_id)
    proc = spawn(sim, client.put(key, b"c", b"v"))
    cluster.run_until(lambda: proc.triggered, limit=60.0, what="write")
    cluster.run(10.0)  # rejoin + catch-up settle
    assert cluster.nodes[old_leader].zk.session is not None
    assert cluster.all_failures() == []
