"""Tests for the shared write-ahead log: durability, skipped LSNs, GC."""

import pytest

from repro.sim.disk import DiskProfile, LogDevice
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.lsn import LSN
from repro.storage.records import (CatchupMarker, CheckpointRecord,
                                   CommitMarker, WriteRecord)
from repro.storage.wal import DuplicateLSN, SharedLog, StaleLSN


def wrec(epoch, seq, cohort=0, value=b"v"):
    return WriteRecord(lsn=LSN(epoch, seq), cohort_id=cohort, key=b"k",
                       colname=b"c", value=value, version=seq)


def make_wal_with_device():
    sim = Simulator()
    device = LogDevice(sim, RngRegistry(5), "log",
                       profile=DiskProfile("flat", 1e-3, 1e-3,
                                           transfer_rate=0))
    return sim, SharedLog(device)


def test_append_and_query_last_lsn():
    log = SharedLog()
    log.append(wrec(1, 1))
    log.append(wrec(1, 2))
    assert log.last_lsn(0) == LSN(1, 2)
    assert log.last_lsn(99) == LSN.zero()


def test_duplicate_lsn_rejected():
    log = SharedLog()
    log.append(wrec(1, 1))
    with pytest.raises(DuplicateLSN):
        log.append(wrec(1, 1))


def test_stale_lsn_rejected():
    log = SharedLog()
    log.append(wrec(1, 5))
    with pytest.raises(StaleLSN):
        log.append(wrec(1, 3))


def test_cohorts_have_independent_lsn_streams():
    log = SharedLog()
    log.append(wrec(1, 5, cohort=0))
    log.append(wrec(1, 1, cohort=1))  # fine: different logical stream
    assert log.last_lsn(0) == LSN(1, 5)
    assert log.last_lsn(1) == LSN(1, 1)


def test_commit_marker_advances_last_committed():
    log = SharedLog()
    log.append(wrec(1, 1))
    log.append(wrec(1, 2))
    log.append(CommitMarker(lsn=LSN(1, 2), cohort_id=0,
                            committed_lsn=LSN(1, 2)), force=False)
    assert log.last_committed_lsn(0) == LSN(1, 2)


def test_checkpoint_record_advances_checkpoint():
    log = SharedLog()
    log.append(CheckpointRecord(lsn=LSN(1, 9), cohort_id=0,
                                checkpoint_lsn=LSN(1, 7)), force=False)
    assert log.checkpoint_lsn(0) == LSN(1, 7)


def test_write_records_range_query():
    log = SharedLog()
    for seq in range(1, 6):
        log.append(wrec(1, seq))
    recs = log.write_records(0, after=LSN(1, 2), upto=LSN(1, 4))
    assert [r.lsn.seq for r in recs] == [3, 4]


def test_skipped_lsns_are_invisible_by_default():
    log = SharedLog()
    for seq in range(1, 4):
        log.append(wrec(1, seq))
    log.add_skipped(0, [LSN(1, 3)])
    assert log.last_lsn(0) == LSN(1, 2)
    assert [r.lsn.seq for r in log.write_records(0)] == [1, 2]
    assert [r.lsn.seq
            for r in log.write_records(0, include_skipped=True)] == [1, 2, 3]
    assert log.is_skipped(0, LSN(1, 3))


def test_append_after_logical_truncation_uses_new_epoch():
    # Appendix B, node C: 1.22 is skipped, then epoch-2 records arrive.
    log = SharedLog()
    for seq in range(1, 23):
        log.append(wrec(1, seq))
    log.add_skipped(0, [LSN(1, 22)])
    assert log.last_lsn(0) == LSN(1, 21)
    log.append(wrec(2, 22))
    assert log.last_lsn(0) == LSN(2, 22)


def test_crash_loses_volatile_records():
    sim, log = make_wal_with_device()
    ev1 = log.append(wrec(1, 1))
    sim.run()  # first record becomes durable
    assert ev1.ok
    log.append(wrec(1, 2))  # never forced to completion
    log.device.crash()
    log.crash()
    assert log.last_lsn(0) == LSN(1, 1)
    assert not log.contains(0, LSN(1, 2))


def test_nonforced_marker_becomes_durable_with_later_force():
    sim, log = make_wal_with_device()
    log.append(wrec(1, 1))
    sim.run()
    log.append(CommitMarker(lsn=LSN(1, 1), cohort_id=0,
                            committed_lsn=LSN(1, 1)), force=False)
    log.append(wrec(1, 2))  # the force that carries the marker down
    sim.run()
    log.crash()
    assert log.last_committed_lsn(0) == LSN(1, 1)


def test_nonforced_marker_lost_without_later_force():
    sim, log = make_wal_with_device()
    log.append(wrec(1, 1))
    sim.run()
    log.append(CommitMarker(lsn=LSN(1, 1), cohort_id=0,
                            committed_lsn=LSN(1, 1)), force=False)
    log.device.crash()
    log.crash()
    assert log.last_committed_lsn(0) == LSN.zero()


def test_crash_recomputes_committed_from_durable_prefix():
    sim, log = make_wal_with_device()
    log.append(wrec(1, 1))
    log.append(CommitMarker(lsn=LSN(1, 1), cohort_id=0,
                            committed_lsn=LSN(1, 1)), force=False)
    log.append(wrec(1, 2))
    sim.run()  # everything durable now
    log.append(CommitMarker(lsn=LSN(1, 2), cohort_id=0,
                            committed_lsn=LSN(1, 2)), force=False)
    log.device.crash()
    log.crash()
    # The second marker was never carried down by a force.
    assert log.last_committed_lsn(0) == LSN(1, 1)
    assert log.last_lsn(0) == LSN(1, 2)


def test_gc_through_drops_records_and_skips():
    log = SharedLog()
    for seq in range(1, 6):
        log.append(wrec(1, seq))
    log.add_skipped(0, [LSN(1, 2), LSN(1, 5)])
    dropped = log.gc_through(0, LSN(1, 3))
    assert dropped == 3
    assert not log.can_serve_after(0, LSN(1, 2))
    assert log.can_serve_after(0, LSN(1, 3))
    assert log.skipped_lsns(0) == {LSN(1, 5)}
    assert [r.lsn.seq for r in log.write_records(0)] == [4]


def test_last_lsn_after_full_gc_is_horizon():
    log = SharedLog()
    for seq in range(1, 4):
        log.append(wrec(1, seq))
    log.gc_through(0, LSN(1, 3))
    assert log.last_lsn(0) == LSN(1, 3)


def test_wipe_clears_everything():
    log = SharedLog()
    log.append(wrec(1, 1))
    log.wipe()
    assert log.last_lsn(0) == LSN.zero()
    assert log.write_records(0) == []


def test_append_batch_all_or_nothing_durability():
    sim, log = make_wal_with_device()
    ev = log.append_batch([wrec(1, 1), wrec(1, 2), wrec(1, 3)])
    # Crash before the single batch force completes: nothing survives.
    sim.run(until=0.5e-3)
    log.device.crash()
    log.crash()
    assert not ev.triggered
    assert log.last_lsn(0) == LSN.zero()
    assert log.write_records(0) == []


def test_append_batch_durable_together():
    sim, log = make_wal_with_device()
    ev = log.append_batch([wrec(1, 1), wrec(1, 2)])
    sim.run()
    assert ev.ok
    log.crash()  # nothing volatile: both survived
    assert [r.lsn.seq for r in log.write_records(0)] == [1, 2]


def test_append_batch_validates_like_append():
    log = SharedLog()
    log.append(wrec(1, 5))
    with pytest.raises(StaleLSN):
        log.append_batch([wrec(1, 3)])
    with pytest.raises(DuplicateLSN):
        log.append_batch([wrec(1, 6), wrec(1, 6)])
    with pytest.raises(TypeError):
        log.append_batch([CommitMarker(lsn=LSN(1, 9), cohort_id=0,
                                       committed_lsn=LSN(1, 9))])


def test_append_batch_empty_is_noop():
    log = SharedLog()
    assert log.append_batch([]) is None


# ---------------------------------------------------------------------------
# Catch-up markers and marker GC (chunked catch-up, §6.1)
# ---------------------------------------------------------------------------

def test_catchup_marker_advances_floor_and_survives_crash():
    sim, log = make_wal_with_device()
    log.append(wrec(1, 3))
    log.append(CatchupMarker(lsn=LSN(1, 3), cohort_id=0,
                             floor=LSN(1, 3)), force=True)
    sim.run()
    assert log.catchup_floor(0) == LSN(1, 3)
    log.device.crash()
    log.crash()
    # The forced marker is the durable resume point.
    assert log.catchup_floor(0) == LSN(1, 3)


def test_nonforced_catchup_marker_lost_without_later_force():
    sim, log = make_wal_with_device()
    log.append(wrec(1, 1))
    sim.run()
    log.append(CatchupMarker(lsn=LSN(1, 1), cohort_id=0,
                             floor=LSN(1, 1)), force=False)
    log.device.crash()
    log.crash()
    assert log.catchup_floor(0) == LSN.zero()


def test_marker_gc_bounds_marker_count():
    # Marker growth is bounded by GC, not history: after every log roll
    # only the maximal durable marker per (cohort, kind) survives.
    log = SharedLog()
    for seq in range(1, 301):
        log.append(wrec(1, seq))
        lsn = LSN(1, seq)
        log.append(CommitMarker(lsn=lsn, cohort_id=0, committed_lsn=lsn),
                   force=False)
        log.append(CheckpointRecord(lsn=lsn, cohort_id=0,
                                    checkpoint_lsn=lsn), force=False)
        log.append(CatchupMarker(lsn=lsn, cohort_id=0, floor=lsn),
                   force=False)
        if seq % 25 == 0:
            log.gc_through(0, lsn)
    assert log.marker_count() <= 3 + 3 * 25
    log.gc_through(0, LSN(1, 300))
    assert log.marker_count() == 3      # one survivor per kind
    log.crash()                          # deviceless: all durable
    assert log.last_committed_lsn(0) == LSN(1, 300)
    assert log.checkpoint_lsn(0) == LSN(1, 300)
    assert log.catchup_floor(0) == LSN(1, 300)


def test_marker_gc_never_drops_durable_for_volatile_superseder():
    sim, log = make_wal_with_device()
    log.append(wrec(1, 1))
    log.append(CommitMarker(lsn=LSN(1, 1), cohort_id=0,
                            committed_lsn=LSN(1, 1)), force=True)
    sim.run()
    # A newer marker exists but is volatile: GC must keep the durable
    # one — dropping it would lose both states across a crash.
    log.append(CommitMarker(lsn=LSN(1, 1), cohort_id=0,
                            committed_lsn=LSN(1, 2)), force=False)
    log.gc_through(0, LSN(1, 1))
    log.device.crash()
    log.crash()
    assert log.last_committed_lsn(0) == LSN(1, 1)


def test_force_from_before_a_wipe_makes_nothing_durable():
    """Disk loss restarts the node at the instant it crashed: the force
    in flight then must not mark its pre-wipe sequence number durable,
    or every later append below it would survive a crash unforced."""
    sim, log = make_wal_with_device()
    log.append(wrec(1, 1))              # force in flight until t = 1 ms
    sim.run(until=0.5e-3)
    log.device.crash()
    log.crash()
    log.wipe()
    log.device.restart()
    sim.run(until=1.2e-3)               # the lost force's time passes
    assert (log._seq, log._durable_seq) == (0, 0)
    assert log.device.forces_completed == 0
    log.append(wrec(2, 1))              # forced, never completed
    log.device.crash()
    log.crash()
    assert log.write_records(0) == []


def test_lose_disk_under_load_then_crash_loses_every_unforced_record():
    """The same, end to end: a node loses its disk mid-force under
    write load, rejoins, and crashes again — no record whose force had
    not completed by then may be in its log."""
    from repro.core import SpinnakerCluster, SpinnakerConfig
    from repro.core.replication import Role
    from repro.sim.process import spawn

    cluster = SpinnakerCluster(
        n_nodes=3, seed=3, config=SpinnakerConfig(
            log_profile=DiskProfile("flat", 4e-3, 4e-3, transfer_rate=0)))
    cluster.start()

    def writer(w):
        client = cluster.client(f"writer{w}")
        for i in range(100_000):
            yield from client.put(b"k%d-%d" % (w, i), b"c", b"v")

    for w in range(8):
        spawn(cluster.sim, writer(w))
    cluster.run(2.0)
    victim = cluster.nodes["node1"]
    wal, device = victim.wal, victim.device
    cluster.run_until(lambda: device._busy, limit=1.0, step=1e-4,
                      what="a force in flight")
    victim.lose_disk()

    # Every force goes through the device queue: wrap what it calls on
    # completion.  A force carries each write record appended since the
    # one before it.
    issued = []         # [(cohort, lsn) a force carries, has it completed]
    carried = [wal._seq]
    real_force = device.force

    def force(nbytes, then):
        lo, carried[0] = carried[0], wal._seq
        entry = [{(cid, lsn) for cid in wal.cohorts()
                  for lsn, seq in wal._views[cid].by_lsn.items()
                  if lo < seq <= carried[0]}, False]
        issued.append(entry)

        def completed():
            entry[1] = True
            then()

        real_force(nbytes, completed)

    device.force = force

    def unforced():
        return {ident for idents, done in issued if not done
                for ident in idents}

    cluster.run_until(
        lambda: all(r.role in (Role.FOLLOWER, Role.LEADER)
                    for r in victim.replicas.values()),
        limit=30.0, step=0.01, what="the victim rejoined")
    cluster.run_until(lambda: unforced(), limit=5.0, step=1e-4,
                      what="a force in flight again")
    pending = unforced()
    victim.crash()
    survivors = {(cid, rec.lsn) for cid in wal.cohorts()
                 for rec in wal.write_records(cid, include_skipped=True)}
    assert survivors and not survivors & pending
    assert wal._durable_seq <= wal._seq
