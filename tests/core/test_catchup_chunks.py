"""The chunked, crash-resumable catch-up protocol (§6.1 + chunking).

Covers leader-side page assembly (each SSTable shipped exactly once,
monotone safe floors, paging-token generations), follower-side ingest
idempotency, the honest wire size of table-carrying chunks, and the
satellite regression: a crash landing *between* the SSTable ingest and
the forced CatchupMarker append must resume from the last durable chunk
— never re-shipping state below the re-derived floor — and converge.
"""

from dataclasses import replace

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.messages import CatchupRequest
from repro.core.partition import key_of
from repro.core.recovery import build_catchup_chunk, chunk_wire_size, \
    ingest_catchup
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord

COHORT = 0


def make_cluster(seed=11, chunk_bytes=2_048):
    """Tiny flush threshold + tiny chunk budget: a short burst rolls the
    log into many small SSTables and snapshot paging needs many pages."""
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.1,
                          flush_threshold_bytes=6_000,
                          catchup_chunk_bytes=chunk_bytes)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=seed)
    cluster.start()
    return cluster


def run(cluster, gen, limit=120.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="proc")
    return proc.result()


def cohort_keys(cluster, count):
    keys, i = [], 0
    while len(keys) < count:
        key = b"ck-%d" % i
        if cluster.partitioner.cohort_for_key(
                key_of(key)).cohort_id == COHORT:
            keys.append(key)
        i += 1
    return keys


def write_keys(cluster, keys, tag=b"w"):
    client = cluster.client("ck-writer")

    def _go():
        for key in keys:
            yield from client.put(key, b"c", tag + b"x" * 200)
    run(cluster, _go())


def rolled_leader(cluster, keys):
    """Crash one follower, write past its log, return (leader, victim).

    Afterwards the leader's log cannot serve from LSN zero and its
    engine holds several SSTables — the snapshot-paging setting.  The
    keys are distinct (not overwrites): flushed tables keep distinct
    live cells, so size-tiered compaction leaves several tiers instead
    of collapsing the whole history into one table.
    """
    leader = cluster.leader_of(COHORT)
    victim = next(m for m in cluster.partitioner.cohort(COHORT).members
                  if m != leader)
    write_keys(cluster, keys[:30])
    cluster.run(0.3)
    cluster.crash_node(victim)
    cluster.expire_session_of(victim)
    write_keys(cluster, keys[30:])
    leader = cluster.leader_of(COHORT)
    assert not cluster.nodes[leader].wal.can_serve_after(
        COHORT, LSN.zero())
    assert len(cluster.replica(leader, COHORT).engine.sstables) >= 3
    return leader, victim


def walk_pages(leader_replica, follower=b"ghost".decode()):
    """Drive the leader's paging protocol as a synthetic empty follower
    and return the served chunks (mimicking the follower's floor/cmt
    advance between requests)."""
    cmt, floor = LSN.zero(), LSN.zero()
    seen, source = LSN.zero(), None
    chunks = []
    for _ in range(200):
        req = CatchupRequest(cohort_id=COHORT, follower=follower,
                             follower_cmt=cmt, floor=floor, seen=seen,
                             source=source)
        chunk = build_catchup_chunk(leader_replica, req)
        chunks.append(chunk)
        floor = max(floor, chunk.floor)
        seen, source = chunk.snapshot_seen, chunk.source
        cmt = max(cmt, floor)
        if chunk.records:
            cmt = max(cmt, chunk.records[-1].lsn)
        if not chunk.more:
            return chunks, cmt
    raise AssertionError("paging never terminated")


class TestLeaderPaging:
    def test_each_table_ships_exactly_once(self):
        cluster = make_cluster()
        keys = cohort_keys(cluster, 360)
        leader, _ = rolled_leader(cluster, keys)
        replica = cluster.replica(leader, COHORT)
        chunks, cmt = walk_pages(replica)
        table_pages = [c for c in chunks if c.sstables]
        assert len(table_pages) >= 2, "budget never paged the snapshot"
        shipped = [t for c in chunks for t in c.sstables]
        assert len({id(t) for t in shipped}) == len(shipped)
        # Every manifest table the ghost needed went out, ascending.
        assert {id(t) for t in shipped} == {
            id(t) for t in replica.engine.manifest().sstables}
        max_lsns = [t.max_lsn for t in shipped]
        assert max_lsns == sorted(max_lsns)
        # Safe floors never regress, and the walk ends at the leader's
        # commit point with the final page announcing no more.
        floors = [c.floor for c in chunks]
        assert all(b >= a for a, b in zip(floors, floors[1:]))
        assert not chunks[-1].more
        assert cmt >= replica.committed_lsn

    def test_pages_respect_budget(self):
        cluster = make_cluster()
        keys = cohort_keys(cluster, 360)
        leader, _ = rolled_leader(cluster, keys)
        replica = cluster.replica(leader, COHORT)
        budget = cluster.config.catchup_chunk_bytes
        chunks, _ = walk_pages(replica)
        for chunk in chunks:
            tables = chunk.sstables
            if len(tables) <= 1:
                continue        # progress guarantee: one item always fits
            under = sum(t.bytes_size for t in tables[:-1])
            # Only the last item (or a max_lsn tie riding with it) may
            # push the page past the budget.
            assert under <= budget or \
                tables[-1].max_lsn == tables[-2].max_lsn

    def test_stale_generation_token_restarts_from_floor(self):
        cluster = make_cluster()
        keys = cohort_keys(cluster, 360)
        leader, _ = rolled_leader(cluster, keys)
        replica = cluster.replica(leader, COHORT)
        first = build_catchup_chunk(replica, CatchupRequest(
            cohort_id=COHORT, follower="ghost",
            follower_cmt=LSN.zero()))
        assert first.sstables and first.more
        # A token from another generation claims everything was seen;
        # the leader must ignore it and page from the durable floor.
        stale = build_catchup_chunk(replica, CatchupRequest(
            cohort_id=COHORT, follower="ghost",
            follower_cmt=LSN.zero(), floor=first.floor,
            seen=LSN(99, 0), source=("nobody", 999)))
        assert stale.sstables, "stale token skipped unshipped tables"
        assert min(t.max_lsn for t in stale.sstables) > first.floor

    def test_chunk_wire_size_counts_sstables(self):
        cluster = make_cluster()
        keys = cohort_keys(cluster, 360)
        leader, _ = rolled_leader(cluster, keys)
        replica = cluster.replica(leader, COHORT)
        chunk = build_catchup_chunk(replica, CatchupRequest(
            cohort_id=COHORT, follower="ghost",
            follower_cmt=LSN.zero()))
        assert chunk.sstables
        assert chunk_wire_size(chunk) >= sum(t.bytes_size
                                             for t in chunk.sstables)


class TestIngestIdempotency:
    def test_reingesting_same_chunk_is_a_noop(self):
        cluster = make_cluster()
        keys = cohort_keys(cluster, 120)
        write_keys(cluster, keys)
        cluster.run(0.5)
        leader = cluster.leader_of(COHORT)
        follower = next(m for m in
                        cluster.partitioner.cohort(COHORT).members
                        if m != leader)
        lead_rep = cluster.replica(leader, COHORT)
        fol_rep = cluster.replica(follower, COHORT)
        chunk = build_catchup_chunk(lead_rep, CatchupRequest(
            cohort_id=COHORT, follower=follower,
            follower_cmt=LSN.zero()))
        run(cluster, ingest_catchup(fol_rep, chunk))
        wal = cluster.nodes[follower].wal
        state = (len(fol_rep.engine.sstables), fol_rep.committed_lsn,
                 fol_rep.catchup_floor, wal.marker_count(),
                 wal.skipped_lsns(COHORT),
                 len(wal.write_records(COHORT)))
        # A retried chunk (acked reply lost) arrives again verbatim.
        run(cluster, ingest_catchup(fol_rep, chunk))
        assert (len(fol_rep.engine.sstables), fol_rep.committed_lsn,
                fol_rep.catchup_floor, wal.marker_count(),
                wal.skipped_lsns(COHORT),
                len(wal.write_records(COHORT))) == state
        assert cluster.all_failures() == []


class TestLogicalTruncation:
    def test_last_page_discards_a_deposed_leaders_tail_above_l_lst(self):
        """A follower that led an earlier epoch can hold proposes nobody
        acked past the new leader's l.lst.  The last page skip-lists
        them: left, they passed for committed once f.cmt moved beyond
        them (the harsh 3-DC 5-node storm of seed 1).  A record of the
        chunk's own epoch there is left alone — the leader logs before
        it proposes, so only a late copy of an old page can see one."""
        cluster = make_cluster()
        write_keys(cluster, cohort_keys(cluster, 20))
        cluster.run(0.5)
        leader = cluster.leader_of(COHORT)
        follower = next(m for m in
                        cluster.partitioner.cohort(COHORT).members
                        if m != leader)
        lead_rep = cluster.replica(leader, COHORT)
        fol_rep = cluster.replica(follower, COHORT)
        wal = cluster.nodes[follower].wal
        top = cluster.nodes[leader].wal.last_lsn(COHORT)
        tail = [WriteRecord(LSN(top.epoch, top.seq + i), COHORT, b"orphan",
                            b"c", b"x", 99) for i in (1, 2)]

        def log_tail():
            yield wal.append_batch(tail)
        run(cluster, log_tail())
        chunk = build_catchup_chunk(lead_rep, CatchupRequest(
            cohort_id=COHORT, follower=follower,
            follower_cmt=fol_rep.committed_lsn))
        assert not chunk.more and chunk.valid_upto == top
        run(cluster, ingest_catchup(fol_rep, chunk))
        assert not wal.skipped_lsns(COHORT)
        # the same page from the next epoch's leader, whose log ends here
        run(cluster, ingest_catchup(fol_rep,
                                    replace(chunk, epoch=chunk.epoch + 1)))
        assert wal.skipped_lsns(COHORT) == {r.lsn for r in tail}


class TestCrashMidInstall:
    def test_crash_between_table_ingest_and_marker_resumes(self):
        """Satellite regression: fail-stop the follower at the instant a
        table is ingested but the forced CatchupMarker has not landed.
        Restart must re-derive floor/cmt from durable markers only, the
        leader must not re-ship below that floor, and the cohort must
        converge with the victim's engine matching the leader's."""
        cluster = make_cluster(seed=13)
        keys = cohort_keys(cluster, 360)
        _, victim = rolled_leader(cluster, keys)
        cluster.restart_node(victim)
        replica = cluster.replica(victim, COHORT)
        # The tables counter increments after engine ingest and *before*
        # the marker force yields, so a fine-grained poll lands the
        # crash exactly inside the satellite's window.
        cluster.run_until(
            lambda: (replica.catchup_tables_ingested >= 1
                     and replica.role != Role.FOLLOWER),
            limit=60.0, step=0.0005, what="mid-install instant")
        volatile_floor = replica.catchup_floor
        cluster.crash_node(victim)
        cluster.expire_session_of(victim)
        wal = cluster.nodes[victim].wal
        durable_floor = wal.catchup_floor(COHORT)   # recomputed by crash
        durable_cmt = wal.last_committed_lsn(COHORT)
        assert durable_floor <= volatile_floor
        assert durable_cmt <= durable_floor or durable_cmt >= LSN.zero()
        marks = {name: len(cluster.nodes[name].catchup_served)
                 for name in cluster.nodes}

        cluster.run(0.3)
        cluster.restart_node(victim)
        # prepare_restart re-derived the durable floor before catch-up.
        assert replica.catchup_floor == durable_floor

        def caught_up():
            lead = cluster.leader_of(COHORT)
            if lead is None:
                return False
            return (replica.role == Role.FOLLOWER
                    and replica.committed_lsn
                    >= cluster.replica(lead, COHORT).committed_lsn)

        cluster.run_until(caught_up, limit=60.0,
                          what="victim reconverges")
        cluster.run(0.5)

        # Resume check: nothing served after the restart carries a table
        # at or below the durable resume floor.
        for name, node in cluster.nodes.items():
            for entry in list(node.catchup_served)[marks[name]:]:
                if entry["follower"] != victim:
                    continue
                assert not [lsn for lsn in entry["table_max_lsns"]
                            if lsn <= durable_floor], entry

        lead_engine = cluster.replica(cluster.leader_of(COHORT),
                                      COHORT).engine
        for key in keys:
            want = lead_engine.get(key, b"c")
            got = replica.engine.get(key, b"c")
            assert want is not None and got is not None, key
            assert got.value == want.value, key
        assert cluster.all_failures() == []

    def test_chunked_rejoin_end_to_end(self):
        """A rejoin across a rollover pages through several chunks and
        at least one snapshot slice, then survives a failover."""
        cluster = make_cluster(seed=17)
        keys = cohort_keys(cluster, 360)
        _, victim = rolled_leader(cluster, keys)
        cluster.restart_node(victim)
        replica = cluster.replica(victim, COHORT)
        cluster.run_until(lambda: replica.role == Role.FOLLOWER,
                          limit=60.0, what="victim rejoined")
        cluster.run(0.5)
        assert replica.catchup_chunks_ingested >= 2
        assert replica.catchup_tables_ingested >= 1
        assert replica.catchup_floor > LSN.zero()
        # The revived node must be a fully capable leader candidate.
        cluster.kill_leader(COHORT)
        cluster.run_until(
            lambda: cluster.leader_of(COHORT) is not None,
            limit=60.0, what="post-rejoin failover")
        client = cluster.client("ck-reader")

        def read_all():
            out = []
            for key in keys:
                out.append((yield from client.get(key, b"c",
                                                  consistent=True)))
            return out

        results = run(cluster, read_all())
        assert all(r.found for r in results)
        assert cluster.all_failures() == []
