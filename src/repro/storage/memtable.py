"""The memtable: committed writes, in memory, awaiting a flush.

A write is applied to the memtable only once it *commits* (§5) — leaders
apply after their log force plus one follower ack, followers apply when a
commit message arrives.  Cells carry the LSN that produced them so that
re-applying records during local recovery is idempotent (§6.1): an older
LSN simply loses to the cell already present.

A record is its own cell: a committed ``WriteRecord`` is immutable and
carries ``value``, ``version``, ``timestamp``, ``lsn`` and ``tombstone``
— all a reader, an SSTable, a compaction or a shipped snapshot touches —
so :meth:`Memtable.apply` stores it instead of copying five fields per
apply per replica.  :class:`Cell` is that shape, for cells built by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .lsn import LSN
from .records import WRITE_FRAMING, WriteRecord

__all__ = ["Cell", "Memtable", "lsn_order", "timestamp_order"]


@dataclass(frozen=True)
class Cell:
    """One (row, column) value with its provenance."""

    value: Optional[bytes]
    version: int
    timestamp: float
    lsn: LSN
    tombstone: bool = False


def lsn_order(cell: Cell) -> Tuple:
    """Conflict order for Spinnaker: cohort LSNs totally order writes."""
    return (cell.lsn, cell.timestamp, cell.version)


def timestamp_order(cell: Cell) -> Tuple:
    """Conflict order for the eventually consistent baseline:
    last-write-wins by client timestamp (ties broken by version)."""
    return (cell.timestamp, cell.version)


class Memtable:
    """Row/column map with byte accounting and a sorted snapshot."""

    #: rough per-cell bookkeeping overhead, for flush-threshold purposes,
    #: charged on top of the key, column and value bytes
    CELL_OVERHEAD = 64
    _CELL_EXTRA = CELL_OVERHEAD - WRITE_FRAMING   # on top of record.size

    def __init__(self, order: Callable[[Cell], Tuple] = lsn_order):
        self._rows: Dict[bytes, Dict[bytes, Cell]] = {}
        self._order = order
        self.bytes_used = 0
        self.min_lsn: Optional[LSN] = None
        self.max_lsn: Optional[LSN] = None

    def __len__(self) -> int:
        return sum(len(cols) for cols in self._rows.values())

    @property
    def is_empty(self) -> bool:
        return not self._rows

    # -- writes --------------------------------------------------------
    def apply(self, record: WriteRecord) -> bool:
        """Apply a committed write.  Returns False if a newer cell won.

        Deletes are stored as tombstones so they replicate and flush like
        any other write; compaction garbage-collects them later.
        """
        key, colname = record.key, record.colname
        cols = self._rows.get(key)
        if cols is None:
            cols = self._rows[key] = {}
        current = cols.get(colname)
        if current is None:
            self.bytes_used += record.size + self._CELL_EXTRA
        elif self._order(current) >= self._order(record):
            return False
        else:
            self.bytes_used += record.size - current.size
        cols[colname] = record      # immutable: the record is the cell
        lsn = record.lsn
        if self.min_lsn is None or lsn < self.min_lsn:
            self.min_lsn = lsn
        if self.max_lsn is None or lsn > self.max_lsn:
            self.max_lsn = lsn
        return True

    # -- reads -----------------------------------------------------------
    def get(self, key: bytes, colname: bytes) -> Optional[Cell]:
        cols = self._rows.get(key)
        if cols is None:
            return None
        return cols.get(colname)

    def get_row(self, key: bytes) -> Dict[bytes, Cell]:
        return dict(self._rows.get(key, {}))

    # -- flushing ----------------------------------------------------------
    def sorted_items(self) -> Iterator[Tuple[bytes, bytes, Cell]]:
        """(key, column, cell) in (key, column) order — SSTable input."""
        for key in sorted(self._rows):
            cols = self._rows[key]
            for col in sorted(cols):
                yield key, col, cols[col]

    def keys(self) -> List[bytes]:
        return sorted(self._rows)
