"""The per-replica storage engine: memtable + SSTables + checkpoints.

Every node runs one engine per key range it replicates (three, with the
default placement).  The engine holds only **committed** state — the
replication layer applies writes to it at commit time — so timeline reads
at followers simply read their local engine.

Responsibilities:

* apply committed writes (idempotently, for local recovery re-apply);
* serve (key, column) reads across memtable + SSTables;
* flush the memtable to an SSTable when it exceeds the flush threshold,
  advancing the **checkpoint LSN** that bounds local recovery (§6.1);
* run compactions under a size-tiered policy;
* capture the snapshot manifest a leader ships for log-rolled-over
  catch-up (§6.1), and ingest SSTables shipped by a leader.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .compaction import SizeTieredPolicy, compact
from .lsn import LSN
from .memtable import Cell, Memtable, lsn_order
from .records import WriteRecord
from .snapshot import SnapshotManifest
from .sstable import SSTable

__all__ = ["StorageEngine"]


class StorageEngine:
    """Storage for one replica of one key range."""

    def __init__(self, cohort_id: int,
                 flush_threshold_bytes: int = 32 * 1024 * 1024,
                 order: Callable[[Cell], Tuple] = lsn_order,
                 compaction: Optional[SizeTieredPolicy] = None):
        self.cohort_id = cohort_id
        self.flush_threshold_bytes = flush_threshold_bytes
        self.order = order
        self.compaction = compaction or SizeTieredPolicy()
        self.memtable = Memtable(order)
        self.sstables: List[SSTable] = []   # newest first
        self.applied_lsn = LSN.zero()       # highest LSN ever applied
        self.checkpoint_lsn = LSN.zero()    # all LSNs <= this are in SSTables
        self.flushes = 0
        self.compactions = 0
        # Bumped whenever the SSTable set changes so paging tokens issued
        # against one snapshot manifest are never replayed against a
        # structurally different table set.
        self.manifest_id = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def apply(self, record: WriteRecord) -> None:
        """Apply a committed write.  Safe to re-apply (idempotent)."""
        if record.cohort_id != self.cohort_id:
            raise ValueError(
                f"record for cohort {record.cohort_id} applied to engine "
                f"of cohort {self.cohort_id}")
        self.memtable.apply(record)
        if record.lsn > self.applied_lsn:
            self.applied_lsn = record.lsn

    def needs_flush(self) -> bool:
        return self.memtable.bytes_used >= self.flush_threshold_bytes

    def flush(self) -> Optional[LSN]:
        """Flush the memtable to a new SSTable.

        Returns the new checkpoint LSN (every write with LSN at or below
        it is now captured on 'disk'), or None if there was nothing to
        flush.  The caller persists a checkpoint record and may roll over
        log segments up to the returned LSN.
        """
        if self.memtable.is_empty:
            return None
        table = SSTable.from_memtable(self.memtable)
        self.sstables.insert(0, table)
        new_checkpoint = self.memtable.max_lsn or self.checkpoint_lsn
        self.memtable = Memtable(self.order)
        if new_checkpoint > self.checkpoint_lsn:
            self.checkpoint_lsn = new_checkpoint
        self.flushes += 1
        self.manifest_id += 1
        self.maybe_compact()
        return self.checkpoint_lsn

    def maybe_compact(self) -> bool:
        """Run one compaction round if the policy finds a bucket."""
        victims = self.compaction.pick(self.sstables)
        if not victims:
            return False
        # Tombstones are kept even on full compactions (see ``compact``).
        merged = compact(victims, order=self.order)
        survivors = [t for t in self.sstables if t not in victims]
        # Keep newest-first order: the merged table takes the position of
        # its newest victim.
        self.sstables = [merged] + survivors
        self.sstables.sort(key=lambda t: t.max_lsn, reverse=True)
        self.compactions += 1
        self.manifest_id += 1
        return True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: bytes, colname: bytes) -> Optional[Cell]:
        """The winning cell across memtable and SSTables (or None).

        Tombstones are returned (not hidden) — the API layer converts
        them to not-found, while replication/repair logic needs to see
        them.
        """
        best = self.memtable.get(key, colname)
        for table in self.sstables:
            cell = table.get(key, colname)
            if cell is not None and (
                    best is None or self.order(cell) > self.order(best)):
                best = cell
        return best

    def get_row(self, key: bytes) -> Dict[bytes, Cell]:
        row: Dict[bytes, Cell] = {}
        for table in reversed(self.sstables):  # oldest first
            for col, cell in table.row(key).items():
                current = row.get(col)
                if current is None or self.order(cell) > self.order(current):
                    row[col] = cell
        for col, cell in self.memtable.get_row(key).items():
            current = row.get(col)
            if current is None or self.order(cell) > self.order(current):
                row[col] = cell
        return row

    def scan(self, start_key: bytes, end_key: Optional[bytes],
             limit: int = 100) -> List[Tuple[bytes, Dict[bytes, Cell]]]:
        """Rows with ``start_key <= key < end_key`` in key order.

        Returns up to ``limit`` (key, columns) pairs; tombstoned columns
        are omitted and fully deleted rows are skipped.  ``end_key`` of
        None means "to the end of this replica's range".
        """
        candidates = set()
        for source_keys in ([self.memtable.keys()]
                            + [t.keys() for t in self.sstables]):
            for key in source_keys:
                if key >= start_key and (end_key is None or key < end_key):
                    candidates.add(key)
        out: List[Tuple[bytes, Dict[bytes, Cell]]] = []
        for key in sorted(candidates):
            row = {col: cell for col, cell in self.get_row(key).items()
                   if not cell.tombstone}
            if not row:
                continue
            out.append((key, row))
            if len(out) >= limit:
                break
        return out

    def version_of(self, key: bytes, colname: bytes) -> int:
        """Current version number for conditionalPut checks (0 = absent)."""
        cell = self.get(key, colname)
        if cell is None or cell.tombstone:
            return 0
        return cell.version

    # ------------------------------------------------------------------
    # Catch-up support (§6.1)
    # ------------------------------------------------------------------
    def manifest(self) -> SnapshotManifest:
        """The current snapshot manifest: this engine's SSTable set in
        shipping order, stamped with the checkpoint LSN (§6.1)."""
        return SnapshotManifest.capture(
            manifest_id=self.manifest_id, cohort_id=self.cohort_id,
            checkpoint_lsn=self.checkpoint_lsn, sstables=self.sstables)

    def ingest_sstable(self, table: SSTable,
                       checkpoint_upto: Optional[LSN] = None) -> None:
        """Adopt a table shipped from the leader during catch-up.

        ``checkpoint_upto`` caps how far the checkpoint may advance: a
        chunked install must not claim durability for LSNs whose cells
        could still live in an unshipped (compacted, overlapping) table.
        None means the table is complete up to its max LSN (the one-shot
        and split-ingest paths).  Re-ingesting a table object already
        present is a no-op, so chunk retries are idempotent.
        """
        if any(t is table for t in self.sstables):
            return
        self.sstables.insert(0, table)
        self.sstables.sort(key=lambda t: t.max_lsn, reverse=True)
        advance = table.max_lsn
        if checkpoint_upto is not None and checkpoint_upto < advance:
            advance = checkpoint_upto
        if advance > self.applied_lsn:
            self.applied_lsn = advance
        if advance > self.checkpoint_lsn:
            # Shipped tables are durable by construction; local recovery
            # need not replay below ``advance`` for these cells.
            self.checkpoint_lsn = advance
        self.manifest_id += 1

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose the memtable (it was RAM); SSTables survive on disk."""
        self.memtable = Memtable(self.order)
        self.applied_lsn = self.checkpoint_lsn

    def wipe(self) -> None:
        """Total disk loss: nothing survives."""
        self.memtable = Memtable(self.order)
        self.sstables = []
        self.applied_lsn = LSN.zero()
        self.checkpoint_lsn = LSN.zero()
        self.manifest_id += 1
