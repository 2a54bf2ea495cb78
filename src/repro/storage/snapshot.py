"""Snapshot manifests: the durable unit of chunked catch-up (§6.1).

A :class:`SnapshotManifest` is a checkpoint-LSN-stamped, *ordered* view
of one engine's SSTables at a moment in time.  It is what a leader pages
through when a follower's gap can no longer be served from the log: the
tables are listed **ascending** by ``(max_lsn, min_lsn, table_id)`` so
that a follower which has durably installed a prefix of the manifest can
derive a safe resume floor — every surviving cell with an LSN at or
below the floor is guaranteed to live in an already-shipped table.

Manifests are identified by ``(engine owner, manifest_id)``.  The engine
bumps ``manifest_id`` whenever its SSTable set changes (flush,
compaction, ingest, purge, wipe), so a paging token issued against one
manifest is never replayed against a structurally different table set —
the chunk protocol detects the generation change and restarts paging
from the follower's durable floor instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .lsn import LSN
from .sstable import SSTable

__all__ = ["SnapshotManifest"]


def _manifest_order(table: SSTable) -> Tuple[LSN, LSN, int]:
    return (table.max_lsn, table.min_lsn, table.table_id)


@dataclass(frozen=True)
class SnapshotManifest:
    """An immutable, ordered snapshot of one cohort replica's SSTables.

    ``checkpoint_lsn`` is the engine's checkpoint at capture time: every
    write at or below it is contained in ``sstables``, so a follower that
    installs the whole manifest needs log records only above it (the
    manifest *horizon*).  WAL retention and marker GC key off this
    horizon — segments below it are safe to drop because any repair can
    be served from the snapshot.
    """

    manifest_id: int
    cohort_id: int
    checkpoint_lsn: LSN
    sstables: Tuple[SSTable, ...] = field(default_factory=tuple)

    @classmethod
    def capture(cls, manifest_id: int, cohort_id: int, checkpoint_lsn: LSN,
                sstables) -> "SnapshotManifest":
        """Build a manifest over ``sstables`` in shipping order."""
        ordered = tuple(sorted(sstables, key=_manifest_order))
        return cls(manifest_id=manifest_id, cohort_id=cohort_id,
                   checkpoint_lsn=checkpoint_lsn, sstables=ordered)

    def bytes_size(self) -> int:
        return sum(t.bytes_size for t in self.sstables)

    def __len__(self) -> int:
        return len(self.sstables)
