"""SSTable compaction.

In the background, smaller SSTables are merged into larger ones to garbage
collect deleted rows and improve read performance (§4.1).  The merge keeps,
for every (key, column), the cell that wins under the engine's conflict
order.  Tombstones survive every merge: catch-up may ship a merged table
to a follower whose state predates the delete, and dropping the
tombstone would resurrect the row there.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .memtable import Cell, lsn_order
from .sstable import SSTable

__all__ = ["compact", "SizeTieredPolicy"]


def compact(tables: List[SSTable],
            order: Callable[[Cell], Tuple] = lsn_order) -> SSTable:
    """Merge ``tables`` into a single SSTable.  Tombstones are kept:
    catch-up may ship the result to a follower whose state predates the
    delete (§6.1)."""
    winners: Dict[Tuple[bytes, bytes], Cell] = {}
    for table in tables:
        for key, col, cell in table.entries():
            current = winners.get((key, col))
            if current is None or order(cell) > order(current):
                winners[(key, col)] = cell
    entries = [(key, col, cell)
               for (key, col), cell in sorted(winners.items())]
    min_lsn = min((t.min_lsn for t in tables), default=None)
    max_lsn = max((t.max_lsn for t in tables), default=None)
    return SSTable(entries, min_lsn=min_lsn, max_lsn=max_lsn)


class SizeTieredPolicy:
    """Pick merge candidates: any ``fanin`` tables of similar size.

    A deliberately simple stand-in for Cassandra's size-tiered strategy:
    when at least ``fanin`` tables exist whose sizes are within
    ``bucket_ratio`` of each other, merge that bucket.
    """

    def __init__(self, fanin: int = 4, bucket_ratio: float = 2.0):
        if fanin < 2:
            raise ValueError("fanin must be >= 2")
        self.fanin = fanin
        self.bucket_ratio = bucket_ratio

    def pick(self, tables: List[SSTable]) -> List[SSTable]:
        """Tables to merge now, or an empty list."""
        if len(tables) < self.fanin:
            return []
        by_size = sorted(tables, key=lambda t: t.bytes_size)
        bucket: List[SSTable] = []
        for table in by_size:
            if not bucket:
                bucket = [table]
                continue
            if table.bytes_size <= bucket[0].bytes_size * self.bucket_ratio:
                bucket.append(table)
                if len(bucket) >= self.fanin:
                    return bucket
            else:
                bucket = [table]
        return []
