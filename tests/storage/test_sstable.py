"""Tests for SSTables, bloom filters, and compaction."""

from repro.storage.bloom import BloomFilter
from repro.storage.compaction import SizeTieredPolicy, compact
from repro.storage.lsn import LSN
from repro.storage.memtable import Memtable
from repro.storage.records import WriteRecord
from repro.storage.sstable import SSTable


def wrec(seq, key=b"k", col=b"c", value=b"v", tombstone=False):
    return WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=key, colname=col,
                       value=value if not tombstone else None,
                       version=seq, tombstone=tombstone)


def table_from(*records):
    mt = Memtable()
    for rec in records:
        mt.apply(rec)
    return SSTable.from_memtable(mt)


def test_from_memtable_preserves_cells_and_lsn_tags():
    table = table_from(wrec(3, key=b"a"), wrec(7, key=b"b"))
    assert table.get(b"a", b"c").version == 3
    assert table.min_lsn == LSN(1, 3)
    assert table.max_lsn == LSN(1, 7)


def test_get_missing_returns_none():
    table = table_from(wrec(1, key=b"a"))
    assert table.get(b"zzz", b"c") is None
    assert table.get(b"a", b"other") is None


def test_row_returns_all_columns():
    table = table_from(wrec(1, col=b"c1"), wrec(2, col=b"c2"))
    assert set(table.row(b"k")) == {b"c1", b"c2"}


def test_keys_sorted_unique():
    table = table_from(wrec(1, key=b"b"), wrec(2, key=b"a"),
                       wrec(3, key=b"b", col=b"c2"))
    assert table.keys() == [b"a", b"b"]


def test_bloom_filter_no_false_negatives():
    bloom = BloomFilter(expected_items=100)
    items = [f"item-{i}".encode() for i in range(100)]
    for item in items:
        bloom.add(item)
    assert all(bloom.might_contain(item) for item in items)


def test_bloom_filter_rejects_most_absent_items():
    bloom = BloomFilter(expected_items=200, false_positive_rate=0.01)
    for i in range(200):
        bloom.add(f"present-{i}".encode())
    false_positives = sum(
        bloom.might_contain(f"absent-{i}".encode()) for i in range(1000))
    assert false_positives < 50  # generous bound on 1% target


def test_compact_newest_cell_wins():
    old = table_from(wrec(1, value=b"old"))
    new = table_from(wrec(2, value=b"new"))
    merged = compact([old, new])
    assert merged.get(b"k", b"c").value == b"new"
    assert merged.min_lsn == LSN(1, 1)
    assert merged.max_lsn == LSN(1, 2)


def test_compact_keeps_tombstones_on_partial_merge():
    t1 = table_from(wrec(1, value=b"x"))
    t2 = table_from(wrec(2, tombstone=True))
    merged = compact([t1, t2])
    assert merged.get(b"k", b"c").tombstone


def test_size_tiered_policy_needs_fanin_tables():
    policy = SizeTieredPolicy(fanin=4)
    tables = [table_from(wrec(i, key=b"k%d" % i)) for i in range(1, 4)]
    assert policy.pick(tables) == []
    tables.append(table_from(wrec(4, key=b"k4")))
    assert len(policy.pick(tables)) == 4


def test_size_tiered_policy_groups_similar_sizes():
    policy = SizeTieredPolicy(fanin=2, bucket_ratio=2.0)
    small1 = table_from(wrec(1, value=b"x"))
    small2 = table_from(wrec(2, key=b"j", value=b"y"))
    huge = table_from(wrec(3, key=b"h", value=b"z" * 100_000))
    picked = policy.pick([huge, small1, small2])
    assert huge not in picked
    assert len(picked) == 2
