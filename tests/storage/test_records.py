"""Tests for log-record serialization."""

import pytest

from repro.storage.lsn import LSN
from repro.storage.records import (CheckpointRecord, CommitMarker,
                                   WriteRecord, decode_record, encode_record)


def test_write_record_round_trip():
    rec = WriteRecord(lsn=LSN(2, 30), cohort_id=7, key=b"user:42",
                      colname=b"email", value=b"x@example.com",
                      version=3, timestamp=1.25, tombstone=False)
    decoded = decode_record(encode_record(rec))
    assert decoded == rec


def test_tombstone_round_trip():
    rec = WriteRecord(lsn=LSN(1, 5), cohort_id=0, key=b"k", colname=b"c",
                      value=None, version=9, timestamp=2.0, tombstone=True)
    decoded = decode_record(encode_record(rec))
    assert decoded.tombstone
    assert decoded.value is None


def test_empty_value_distinct_from_none():
    rec = WriteRecord(lsn=LSN(1, 1), cohort_id=0, key=b"k", colname=b"c",
                      value=b"", version=1, timestamp=0.0)
    decoded = decode_record(encode_record(rec))
    assert decoded.value == b""


def test_commit_marker_round_trip():
    rec = CommitMarker(lsn=LSN(1, 40), cohort_id=3, committed_lsn=LSN(1, 37))
    assert decode_record(encode_record(rec)) == rec


def test_checkpoint_round_trip():
    rec = CheckpointRecord(lsn=LSN(2, 9), cohort_id=1,
                           checkpoint_lsn=LSN(1, 100))
    assert decode_record(encode_record(rec)) == rec


def test_encoded_size_matches_actual_bytes():
    rec = WriteRecord(lsn=LSN(1, 1), cohort_id=0, key=b"key",
                      colname=b"col", value=b"v" * 4096, version=1,
                      timestamp=0.5)
    assert rec.encoded_size() == len(encode_record(rec))


def test_stored_size_follows_a_replace_and_stays_out_of_equality():
    import dataclasses
    rec = WriteRecord(lsn=LSN(1, 1), cohort_id=0, key=b"key",
                      colname=b"col", value=b"v", version=1)
    grown = dataclasses.replace(rec, value=b"v" * 11)
    assert grown.size == rec.size + 10 == len(encode_record(grown))
    assert dataclasses.replace(grown, value=None).size == rec.size - 1
    assert "size" not in repr(rec)
    assert dataclasses.replace(grown, value=b"v") == rec


def test_marker_sizes_match():
    cm = CommitMarker(lsn=LSN(1, 2), cohort_id=0, committed_lsn=LSN(1, 1))
    cp = CheckpointRecord(lsn=LSN(1, 3), cohort_id=0,
                          checkpoint_lsn=LSN(1, 1))
    assert cm.encoded_size() == len(encode_record(cm))
    assert cp.encoded_size() == len(encode_record(cp))


def test_write_record_size_includes_payload():
    small = WriteRecord(lsn=LSN(1, 1), cohort_id=0, key=b"k", colname=b"c",
                        value=b"x", version=1)
    big = WriteRecord(lsn=LSN(1, 2), cohort_id=0, key=b"k", colname=b"c",
                      value=b"x" * 4096, version=1)
    assert big.encoded_size() - small.encoded_size() == 4095


def test_decode_garbage_kind_raises():
    rec = encode_record(CommitMarker(lsn=LSN(1, 1), cohort_id=0,
                                     committed_lsn=LSN(1, 1)))
    with pytest.raises(ValueError):
        decode_record(b"\xff" + rec[1:])
