"""Immutable sorted string tables.

An SSTable is a flushed memtable: (key, column) → cell entries in sorted
order with a lookup index and a bloom filter.  Each table is tagged with
the **min and max LSN** of the writes it contains (§6.1): when a
follower's catch-up request can no longer be served from the leader's log
(rolled over), the leader locates SSTables by these tags and ships them
instead.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .bloom import BloomFilter
from .lsn import LSN
from .memtable import Cell, Memtable

__all__ = ["SSTable"]

_table_ids = itertools.count(1)


class SSTable:
    """An immutable, sorted, indexed run of cells."""

    def __init__(self, entries: Iterable[Tuple[bytes, bytes, Cell]],
                 min_lsn: Optional[LSN] = None,
                 max_lsn: Optional[LSN] = None):
        self.table_id = next(_table_ids)
        self._entries: List[Tuple[bytes, bytes, Cell]] = list(entries)
        self._index: Dict[Tuple[bytes, bytes], Cell] = {}
        self._keys: List[bytes] = []
        last_key = None
        for key, col, cell in self._entries:
            self._index[(key, col)] = cell
            if key != last_key:
                self._keys.append(key)
                last_key = key
        self.bloom = BloomFilter(max(1, len(self._entries)))
        for key, col, _cell in self._entries:
            self.bloom.add(key + b"\x00" + col)
        lsns = [cell.lsn for _, _, cell in self._entries]
        self.min_lsn = min_lsn if min_lsn is not None else (
            min(lsns) if lsns else LSN.zero())
        self.max_lsn = max_lsn if max_lsn is not None else (
            max(lsns) if lsns else LSN.zero())
        self.bytes_size = sum(
            len(k) + len(c) + (len(cell.value) if cell.value else 0) + 32
            for k, c, cell in self._entries)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_memtable(cls, memtable: Memtable) -> "SSTable":
        return cls(memtable.sorted_items(),
                   min_lsn=memtable.min_lsn, max_lsn=memtable.max_lsn)

    # -- reads ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes, colname: bytes) -> Optional[Cell]:
        probe = key + b"\x00" + colname
        if not self.bloom.might_contain(probe):
            return None
        return self._index.get((key, colname))

    def row(self, key: bytes) -> Dict[bytes, Cell]:
        return {col: cell for (k, col), cell in self._index.items()
                if k == key}

    def entries(self) -> Iterator[Tuple[bytes, bytes, Cell]]:
        return iter(self._entries)

    def keys(self) -> List[bytes]:
        return list(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SSTable(id={self.table_id}, n={len(self._entries)}, "
                f"lsn=[{self.min_lsn}..{self.max_lsn}])")
