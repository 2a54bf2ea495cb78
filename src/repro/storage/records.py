"""Log record types and their binary wire format.

Four record kinds appear in a node's shared write-ahead log:

* :class:`WriteRecord` — one client write (put / delete / conditional
  variants all log the same record shape; §5).  Forced at append time.
* :class:`CommitMarker` — the *last committed LSN* saved when a commit
  message is processed; written with a **non-forced** append (§5).
* :class:`CheckpointRecord` — marks that memtable state up to an LSN has
  been captured in SSTables, bounding local recovery (§6.1).
* :class:`CatchupMarker` — durable catch-up progress: records at or
  below ``floor`` arrived as shipped SSTables during chunked catch-up
  (§6.1), so a restart resumes the install from ``floor`` instead of
  from scratch, and log holes below it are legitimate.

The binary encoding exists so record sizes charged to the simulated log
device are honest and so serialization round-trips can be tested; the
in-simulation log keeps the decoded objects.
"""

from __future__ import annotations

import struct
from dataclasses import field
from typing import Optional, Union

from ..values import value_type
from .lsn import LSN

__all__ = ["WriteRecord", "CommitMarker", "CheckpointRecord",
           "CatchupMarker", "LogRecord", "encode_record", "decode_record",
           "WRITE_FRAMING"]

_HEADER = struct.Struct(">BQdH")  # kind, lsn, timestamp, cohort_id
_KIND_WRITE = 1
_KIND_COMMIT = 2
_KIND_CHECKPOINT = 3
_KIND_CATCHUP = 4
#: a WriteRecord's bytes beside key, column and value: the header, two
#: 2-byte and one 4-byte length prefixes, the version and the flags
WRITE_FRAMING = _HEADER.size + 2 + 2 + 4 + 8 + 1


@value_type
class WriteRecord:
    """A replicated single-row write.

    ``tombstone`` distinguishes deletes; ``version`` is the
    store-managed, monotonically increasing per-column version number
    exposed through ``get`` and checked by ``conditionalPut`` (§3).

    ``size`` is the encoded size, computed once: the leader's force,
    the propose fan-out, a follower's folded slice and three logs each
    charge it to a byte budget.
    Immutable, and all a memtable cell is: ``Memtable.apply`` stores it.
    """

    lsn: LSN
    cohort_id: int
    key: bytes
    colname: bytes
    value: Optional[bytes]
    version: int
    timestamp: float = 0.0
    tombstone: bool = False
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        value = self.value
        _set_size(self, WRITE_FRAMING + len(self.key) + len(self.colname)
                  + (len(value) if value is not None else 0))

    def encoded_size(self) -> int:
        return self.size


_set_size = WriteRecord.size.__set__     # the slot, past frozen __setattr__


@value_type
class CommitMarker:
    """Durably remembers the cohort's last committed LSN (non-forced)."""

    lsn: LSN            # position of this marker in the log
    cohort_id: int
    committed_lsn: LSN  # the value being remembered

    def encoded_size(self) -> int:
        return _HEADER.size + 8


@value_type
class CheckpointRecord:
    """Memtable state up to ``checkpoint_lsn`` is captured in SSTables."""

    lsn: LSN
    cohort_id: int
    checkpoint_lsn: LSN

    def encoded_size(self) -> int:
        return _HEADER.size + 8


@value_type
class CatchupMarker:
    """Durable chunked-catch-up progress (§6.1).

    State at or below ``floor`` was installed from shipped SSTables, so
    it is (a) absent from the log legitimately and (b) already durable
    on disk — a restart mid-install resumes above ``floor``.  Forced at
    append time: it *is* the per-chunk durability point.
    """

    lsn: LSN
    cohort_id: int
    floor: LSN

    def encoded_size(self) -> int:
        return _HEADER.size + 8


LogRecord = Union[WriteRecord, CommitMarker, CheckpointRecord,
                  CatchupMarker]


def encode_record(record: LogRecord) -> bytes:
    """Serialize a record to its wire format."""
    if isinstance(record, WriteRecord):
        value = record.value if record.value is not None else b""
        has_value = record.value is not None
        head = _HEADER.pack(_KIND_WRITE, record.lsn.to_int(),
                            record.timestamp, record.cohort_id)
        return b"".join([
            head,
            struct.pack(">H", len(record.key)), record.key,
            struct.pack(">H", len(record.colname)), record.colname,
            struct.pack(">I", len(value)), value,
            struct.pack(">q", record.version),
            struct.pack(">B", (2 if record.tombstone else 0)
                        | (1 if has_value else 0)),
        ])
    if isinstance(record, CommitMarker):
        head = _HEADER.pack(_KIND_COMMIT, record.lsn.to_int(), 0,
                            record.cohort_id)
        return head + struct.pack(">Q", record.committed_lsn.to_int())
    if isinstance(record, CheckpointRecord):
        head = _HEADER.pack(_KIND_CHECKPOINT, record.lsn.to_int(), 0,
                            record.cohort_id)
        return head + struct.pack(">Q", record.checkpoint_lsn.to_int())
    if isinstance(record, CatchupMarker):
        head = _HEADER.pack(_KIND_CATCHUP, record.lsn.to_int(), 0,
                            record.cohort_id)
        return head + struct.pack(">Q", record.floor.to_int())
    raise TypeError(f"unknown record type {record!r}")


def decode_record(data: bytes) -> LogRecord:
    """Inverse of :func:`encode_record`."""
    kind, lsn_int, timestamp, cohort_id = _HEADER.unpack_from(data, 0)
    offset = _HEADER.size
    lsn = LSN.from_int(lsn_int)
    if kind == _KIND_WRITE:
        (key_len,) = struct.unpack_from(">H", data, offset)
        offset += 2
        key = data[offset:offset + key_len]
        offset += key_len
        (col_len,) = struct.unpack_from(">H", data, offset)
        offset += 2
        colname = data[offset:offset + col_len]
        offset += col_len
        (value_len,) = struct.unpack_from(">I", data, offset)
        offset += 4
        value = data[offset:offset + value_len]
        offset += value_len
        (version,) = struct.unpack_from(">q", data, offset)
        offset += 8
        (flags,) = struct.unpack_from(">B", data, offset)
        return WriteRecord(
            lsn=lsn, cohort_id=cohort_id, key=key, colname=colname,
            value=value if flags & 1 else None, version=version,
            timestamp=timestamp, tombstone=bool(flags & 2))
    if kind == _KIND_COMMIT:
        (committed,) = struct.unpack_from(">Q", data, offset)
        return CommitMarker(lsn=lsn, cohort_id=cohort_id,
                            committed_lsn=LSN.from_int(committed))
    if kind == _KIND_CHECKPOINT:
        (ckpt,) = struct.unpack_from(">Q", data, offset)
        return CheckpointRecord(lsn=lsn, cohort_id=cohort_id,
                                checkpoint_lsn=LSN.from_int(ckpt))
    if kind == _KIND_CATCHUP:
        (floor,) = struct.unpack_from(">Q", data, offset)
        return CatchupMarker(lsn=lsn, cohort_id=cohort_id,
                             floor=LSN.from_int(floor))
    raise ValueError(f"unknown record kind {kind}")
