"""One catch-up path: the leader pushes, nobody pulls (§6.1, Fig. 6).

Pins the properties of the single leader-driven path: every (leader,
follower, cohort) pair gets exactly one stream at boot and on a
crash/restart rejoin, with every served chunk pushed and none paged by
the follower; a rejoining voter stays ``RECOVERING`` — acking nothing —
until the page the leader built under its write block, then takes the
pending tail as an ordinary propose; holders of the write block nest;
and the ``catchup`` trace comes from the one path.
"""

from collections import Counter

import pytest

from repro.chaos.catchup import write_burst
from repro.chaos.invariants import InvariantAuditor
from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.messages import (CatchupChunk, CatchupRequest, Propose,
                                 TakeoverState)
from repro.obs import CATCHUP_PHASES, RequestTracer, collect_traces
from repro.sim.disk import DiskProfile
from repro.sim.process import all_of, drive, spawn

COHORT = 0


def make_cluster(n=3, seed=23, start=True, **cfg):
    cfg.setdefault("log_profile", DiskProfile.ssd_log())
    cfg.setdefault("commit_period", 0.1)
    request_tracer = cfg.pop("request_tracer", None)
    cluster = SpinnakerCluster(n_nodes=n, config=SpinnakerConfig(**cfg),
                               seed=seed, request_tracer=request_tracer)
    if start:
        cluster.start()
    return cluster


def tap(cluster, sink):
    """Record every request a node dispatches as ``(src, dst, payload)``,
    handing ``sink`` the receiving node first so it can sample state."""
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]

        def tapped(req, node=node, inner=node._dispatch):
            sink(req.src, node, req.payload)
            inner(req)

        node.endpoint.on_request(tapped)


def stream_counts(cluster, deliveries, marks=None):
    """Per (leader, follower, cohort): streams opened, chunks pushed,
    chunks served (the leaders' ledgers, from ``marks`` on)."""
    opened, pushed, served = Counter(), Counter(), Counter()
    for src, dst, payload in deliveries:
        pair = (src, dst, getattr(payload, "cohort_id", None))
        if isinstance(payload, TakeoverState):
            opened[pair] += 1
        elif isinstance(payload, CatchupChunk):
            pushed[pair] += 1
    for name in sorted(cluster.nodes):
        rows = list(cluster.nodes[name].catchup_served)
        for row in rows[(marks or {}).get(name, 0):]:
            served[(name, row["follower"], row["cohort"])] += 1
    return opened, pushed, served


# ---------------------------------------------------------------------------
# One stream per pair
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_nodes", [3, 10])
def test_boot_opens_one_stream_per_pair(n_nodes):
    cluster = make_cluster(n=n_nodes, seed=1, start=False)
    deliveries = []
    tap(cluster, lambda src, node, payload:
        deliveries.append((src, node.name, payload)))
    cluster.start()
    cluster.run(3.0)
    opened, pushed, served = stream_counts(cluster, deliveries)
    expected = {(cluster.leader_of(c.cohort_id), peer, c.cohort_id)
                for c in cluster.partitioner.cohorts
                for peer in c.members
                if peer != cluster.leader_of(c.cohort_id)}
    assert len(expected) == 2 * n_nodes
    # The takeover push is the only stream: one per follower per cohort,
    # and every chunk a leader built was pushed (none paged by a pull).
    assert set(opened) == expected
    assert set(opened.values()) == {1}
    assert served == pushed
    assert set(pushed) == expected
    for node in cluster.nodes.values():
        for replica in node.replicas.values():
            assert replica.role in (Role.LEADER, Role.FOLLOWER)


def test_restart_rejoin_opens_one_stream_per_pair():
    cluster = make_cluster()
    cluster.run(2.0)
    victim = next(m for m in cluster.partitioner.cohort(COHORT).members
                  if m != cluster.leader_of(COHORT))
    cluster.crash_node(victim)
    cluster.expire_session_of(victim)
    cluster.run(3.0)        # cohorts the victim led elect a new leader
    write_burst(cluster, "sp-writer", [b"rj-%d" % i for i in range(60)],
                rounds=1, tag=b"v")
    deliveries = []
    tap(cluster, lambda src, node, payload:
        deliveries.append((src, node.name, payload)))
    marks = {name: len(node.catchup_served)
             for name, node in cluster.nodes.items()}
    cluster.restart_node(victim)
    cluster.run(4.0)
    opened, pushed, served = stream_counts(cluster, deliveries, marks)
    expected = {(cluster.leader_of(cid), victim, cid)
                for cid in cluster.nodes[victim].replicas}
    assert len(expected) == 3
    assert set(opened) == expected
    assert set(opened.values()) == {1}
    assert served == pushed
    # The victim's whole part is asking; exactly one page per stream is
    # final, and it is the last one.
    asks = [(src, dst) for src, dst, p in deliveries
            if isinstance(p, CatchupRequest)]
    assert asks and {src for src, _ in asks} == {victim}
    for pair in expected:
        finals = [p.final for src, dst, p in deliveries
                  if isinstance(p, CatchupChunk)
                  and (src, dst, p.cohort_id) == pair]
        assert finals.count(True) == 1 and finals[-1]
    for replica in cluster.nodes[victim].replicas.values():
        assert replica.role == Role.FOLLOWER
        assert replica.resyncs == 0
    assert cluster.all_failures() == []


# ---------------------------------------------------------------------------
# The voter stays out until the final delta
# ---------------------------------------------------------------------------

def test_voter_stays_recovering_until_write_blocked_final_page():
    cluster = make_cluster(seed=29, log_profile=DiskProfile.sata_log(),
                           catchup_chunk_bytes=4_096)
    cluster.run(2.0)
    sim = cluster.sim
    auditor = InvariantAuditor(cluster)
    spawn(sim, auditor.run(0.05, until=sim.now + 120.0), name="auditor")
    leader = cluster.leader_of(COHORT)
    leader_replica = cluster.replica(leader, COHORT)
    victim = next(m for m in leader_replica.cohort.members if m != leader)
    victim_replica = cluster.replica(victim, COHORT)
    keys = cluster.keys_in_cohort(COHORT, 40, b"vs-")

    cluster.crash_node(victim)
    cluster.expire_session_of(victim)
    write_burst(cluster, "sp-writer", keys, rounds=3, tag=b"v")

    # Sustained load on the cohort for the whole rejoin.
    stop = []

    def writer(i):
        client = cluster.client(f"vs-load-{i}")
        n = 0
        while not stop:
            yield from client.put(keys[(7 * i + n) % len(keys)], b"c",
                                  b"load-%d-%d" % (i, n))
            n += 1

    writers = [spawn(sim, writer(i), name=f"vs-load-{i}") for i in range(8)]
    cluster.run(0.5)

    handled_at_restart = victim_replica.proposes_handled
    chunks = []         # (final, write block held, role, proposes_handled)
    proposes = []       # (role on arrival, first LSN, f.cmt on arrival)

    def sink(src, node, payload):
        if node.name != victim or getattr(payload, "cohort_id",
                                          None) != COHORT:
            return
        if isinstance(payload, CatchupChunk):
            chunks.append((payload.final,
                           leader_replica.write_block is not None,
                           victim_replica.role,
                           victim_replica.proposes_handled))
        elif isinstance(payload, Propose):
            proposes.append((victim_replica.role, payload.records[0].lsn,
                             victim_replica.committed_lsn))

    tap(cluster, sink)
    tails = []
    propose = leader_replica.propose

    def recording_propose(records, entries, prev, to):
        if tuple(to) != tuple(leader_replica.peers()):
            tails.append((tuple(to), tuple(records)))
        propose(records, entries, prev, to)

    leader_replica.propose = recording_propose
    cluster.restart_node(victim)
    cluster.run_until(lambda: victim_replica.role == Role.FOLLOWER,
                      limit=30.0, what="victim promoted")
    cluster.run(1.0)
    stop.append(True)
    drive(cluster, all_of(sim, writers), limit=30.0, what="writers drain")
    cluster.run(1.0)

    # Bulk pages went out with writes open; the one final page was built
    # under the block.  Through all of them the voter stayed RECOVERING
    # and acked no propose.
    assert len(chunks) >= 3
    assert [c[0] for c in chunks] == [False] * (len(chunks) - 1) + [True]
    assert chunks[-1][1], "final page built without the write block"
    assert not chunks[0][1], "bulk pages must not hold the write block"
    for _final, _blocked, role, handled in chunks:
        assert role == Role.RECOVERING
        assert handled == handled_at_restart
    # The pending queue came over as one ordinary propose to the victim
    # alone; it was the first propose the promoted voter saw, it started
    # right above the final page's commit point, and the voter acked it.
    assert len(tails) == 1
    (to, tail), = tails
    assert to == (victim,) and tail
    first_role, first_lsn, cmt_then = next(
        p for p in proposes if p[0] != Role.RECOVERING)
    assert first_role == Role.FOLLOWER
    assert first_lsn == tail[0].lsn
    assert first_lsn.seq == cmt_then.seq + 1
    assert victim_replica.proposes_handled > handled_at_restart
    # Seamless: no gap resync was needed afterwards, nothing failed.
    assert victim_replica.resyncs == 0
    assert victim_replica.committed_lsn >= tail[-1].lsn
    auditor.final_audit()
    assert auditor.violations == []
    assert cluster.all_failures() == []


# ---------------------------------------------------------------------------
# The write block is re-entrant
# ---------------------------------------------------------------------------

def test_overlapping_write_block_holders_compose():
    """A catch-up's final page overlapping a handoff or rebalance drain
    must not release *their* block when it is done with its own."""
    cluster = make_cluster()
    cluster.run(2.0)
    leader = cluster.leader_of(COHORT)
    replica = cluster.replica(leader, COHORT)
    key = cluster.keys_in_cohort(COHORT, 1, b"wb-")[0]
    client = cluster.client("wb-writer")

    replica.block_writes()          # the drain
    replica.block_writes()          # the final page, overlapping it
    put = spawn(cluster.sim, client.put(key, b"c", b"gated"))
    cluster.run(0.2)
    replica.unblock_writes()        # the final page is done
    cluster.run(0.2)
    assert replica.write_block is not None
    assert not put.triggered, "write admitted under the drain's block"
    replica.unblock_writes()        # the drain is done
    assert replica.write_block is None
    cluster.run_until(lambda: put.triggered, limit=5.0, what="gated put")
    assert put.result().version == 1
    # A stray release (its holder was cut short by a step-down, which
    # releases everyone) must not go negative and eat the next block.
    replica.unblock_writes()
    replica.block_writes()
    assert replica.write_block is not None
    replica.unblock_writes()
    assert replica.write_block is None


# ---------------------------------------------------------------------------
# Tracing comes from the one path
# ---------------------------------------------------------------------------

def test_catchup_trace_emitted_by_push():
    tracer = RequestTracer()
    cluster = make_cluster(request_tracer=tracer,
                           flush_threshold_bytes=6_000,
                           catchup_chunk_bytes=2_048)
    cluster.run(2.0)
    # Takeover pushes at boot are traced too: one trace per stream,
    # rooted at the pushing leader.
    boot = [v for v in collect_traces(tracer) if v.op == "catchup"]
    assert len(boot) == 6
    for view in boot:
        assert [s.name for s in view.spans
                if s is not view.root] == ["catchup_fetch"]
        assert view.root.fields["ok"] is True

    leader = cluster.leader_of(COHORT)
    victim = next(m for m in cluster.partitioner.cohort(COHORT).members
                  if m != leader)
    cluster.crash_node(victim)
    cluster.expire_session_of(victim)
    cluster.run(3.0)
    write_burst(cluster, "sp-writer",
                cluster.keys_in_cohort(COHORT, 240, b"tr-"), rounds=1,
                tag=b"v")
    leader = cluster.leader_of(COHORT)
    before = {v.trace_id for v in collect_traces(tracer)
              if v.op == "catchup"}
    cluster.restart_node(victim)
    cluster.run_until(
        lambda: cluster.replica(victim, COHORT).role == Role.FOLLOWER,
        limit=30.0, what="victim rejoined")
    cluster.run(0.5)
    rejoin = [v for v in collect_traces(tracer)
              if v.op == "catchup" and v.trace_id not in before
              and v.root.node == leader
              and any(s.name == "snapshot_install" for s in v.spans)]
    assert len(rejoin) == 1
    view, = rejoin
    names = {s.name for s in view.spans if s is not view.root}
    assert names == set(CATCHUP_PHASES)
    # The page round-trips are the leader's; the installs the victim's.
    assert {s.node for s in view.spans
            if s.name == "catchup_fetch"} == {leader}
    assert {s.node for s in view.spans
            if s.name == "snapshot_install"} == {victim}


# ---------------------------------------------------------------------------
# A push that outlives the follower's crash
# ---------------------------------------------------------------------------

def test_restart_keeps_what_an_early_push_taught_it():
    """A leader still retrying a stream from before the follower's crash
    can reach the new incarnation ahead of its startup process; the
    epoch it brings must not be wiped by a late volatile-state reset."""
    cluster = make_cluster()
    cluster.run(2.0)
    leader = cluster.leader_of(COHORT)
    leader_replica = cluster.replica(leader, COHORT)
    victim = next(m for m in leader_replica.cohort.members if m != leader)
    replica = cluster.replica(victim, COHORT)
    cluster.crash_node(victim)
    cluster.expire_session_of(victim)
    cluster.run(0.5)
    cluster.restart_node(victim)
    # The reset is synchronous with boot, before anything is delivered.
    assert replica.role == Role.RECOVERING and replica.epoch == 0
    epoch = leader_replica.epoch + 3
    cluster.nodes[leader].endpoint.request(
        victim, TakeoverState(cohort_id=COHORT, epoch=epoch), size=64)
    seen = []
    tap(cluster, lambda src, node, payload: seen.append(replica.epoch)
        if node.name == victim else None)
    cluster.run(1.0)        # startup and local recovery are long done
    assert replica.epoch == epoch
    assert seen == sorted(seen), "epoch went backwards within one boot"
