"""Tests for the per-replica storage engine."""

import pytest

from repro.storage.engine import StorageEngine
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord
from repro.storage.memtable import Memtable
from repro.storage.sstable import SSTable


def wrec(seq, key=b"k", col=b"c", value=b"v", epoch=1, tombstone=False):
    return WriteRecord(lsn=LSN(epoch, seq), cohort_id=0, key=key,
                       colname=col, value=None if tombstone else value,
                       version=seq, tombstone=tombstone)


def test_apply_and_get():
    eng = StorageEngine(0)
    eng.apply(wrec(1, value=b"hello"))
    assert eng.get(b"k", b"c").value == b"hello"
    assert eng.applied_lsn == LSN(1, 1)


def test_wrong_cohort_rejected():
    eng = StorageEngine(0)
    bad = WriteRecord(lsn=LSN(1, 1), cohort_id=5, key=b"k", colname=b"c",
                      value=b"v", version=1)
    with pytest.raises(ValueError):
        eng.apply(bad)


def test_flush_moves_memtable_to_sstable_and_checkpoints():
    eng = StorageEngine(0)
    eng.apply(wrec(1))
    eng.apply(wrec(2, key=b"k2"))
    ckpt = eng.flush()
    assert ckpt == LSN(1, 2)
    assert eng.checkpoint_lsn == LSN(1, 2)
    assert eng.memtable.is_empty
    assert len(eng.sstables) == 1
    assert eng.get(b"k", b"c") is not None  # still readable post-flush


def test_flush_empty_returns_none():
    eng = StorageEngine(0)
    assert eng.flush() is None


def test_read_prefers_newest_across_tables_and_memtable():
    eng = StorageEngine(0)
    eng.apply(wrec(1, value=b"v1"))
    eng.flush()
    eng.apply(wrec(2, value=b"v2"))
    eng.flush()
    eng.apply(wrec(3, value=b"v3"))
    assert eng.get(b"k", b"c").value == b"v3"


def test_get_row_merges_columns():
    eng = StorageEngine(0)
    eng.apply(wrec(1, col=b"c1", value=b"a"))
    eng.flush()
    eng.apply(wrec(2, col=b"c2", value=b"b"))
    row = eng.get_row(b"k")
    assert row[b"c1"].value == b"a"
    assert row[b"c2"].value == b"b"


def test_version_of_missing_and_tombstoned_is_zero():
    eng = StorageEngine(0)
    assert eng.version_of(b"k", b"c") == 0
    eng.apply(wrec(1, value=b"x"))
    assert eng.version_of(b"k", b"c") == 1
    eng.apply(wrec(2, tombstone=True))
    assert eng.version_of(b"k", b"c") == 0


def test_needs_flush_threshold():
    eng = StorageEngine(0, flush_threshold_bytes=200)
    eng.apply(wrec(1, value=b"x" * 500))
    assert eng.needs_flush()


def test_crash_loses_memtable_keeps_sstables():
    eng = StorageEngine(0)
    eng.apply(wrec(1, value=b"flushed"))
    eng.flush()
    eng.apply(wrec(2, value=b"volatile", key=b"k2"))
    eng.crash()
    assert eng.get(b"k", b"c").value == b"flushed"
    assert eng.get(b"k2", b"c") is None
    assert eng.applied_lsn == eng.checkpoint_lsn == LSN(1, 1)


def test_wipe_loses_everything():
    eng = StorageEngine(0)
    eng.apply(wrec(1))
    eng.flush()
    eng.wipe()
    assert eng.get(b"k", b"c") is None
    assert eng.checkpoint_lsn == LSN.zero()


def test_ingest_sstable_advances_state():
    eng = StorageEngine(0)
    mt = Memtable()
    mt.apply(wrec(7, key=b"shipped"))
    eng.ingest_sstable(SSTable.from_memtable(mt))
    assert eng.get(b"shipped", b"c") is not None
    assert eng.applied_lsn == LSN(1, 7)
    assert eng.checkpoint_lsn == LSN(1, 7)


def test_compaction_triggers_with_enough_tables():
    eng = StorageEngine(0)
    for i in range(1, 6):
        eng.apply(wrec(i, key=b"key%d" % i))
        eng.flush()
    # size-tiered fanin=4 should have fired at least once
    assert eng.compactions >= 1
    assert len(eng.sstables) < 5
    for i in range(1, 6):
        assert eng.get(b"key%d" % i, b"c") is not None


def test_engine_compaction_preserves_tombstones():
    """Catch-up can ship SSTables to stale followers, so automatic
    compactions must never drop tombstones (see engine.maybe_compact)."""
    eng = StorageEngine(0)
    eng.apply(wrec(1, value=b"x"))
    eng.flush()
    eng.apply(wrec(2, tombstone=True))
    eng.flush()
    for i in range(3, 7):
        eng.apply(wrec(i, key=b"other%d" % i))
        eng.flush()
    assert eng.compactions >= 1
    cell = eng.get(b"k", b"c")
    assert cell is not None and cell.tombstone
