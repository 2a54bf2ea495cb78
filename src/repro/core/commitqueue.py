"""The commit queue (§4.1): the leader's writes awaiting quorum.

A main-memory structure tracking writes that have been proposed but not
yet committed, each with the leader's own log force and follower acks.
It *commits strictly in LSN order*: a write at the head commits once it
is locally durable and at least one follower has acked — later writes
must wait for earlier ones, which is what makes conditional puts
deterministic across the cohort (§5.1).  Only a leader queues: a
follower's commit queue is its log above f.cmt (``CohortReplica.
_apply_commit_info``); ``apply_commit`` drains what a deposed leader
queued, so it still answers those clients.

The queue is a plain insertion-ordered ``dict`` keyed by LSN: entries
enter at the tail and leave from the head.  An entry's ``acks`` set is
made by the first ack.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

from ..storage.lsn import LSN
from ..storage.records import WriteRecord

__all__ = ["CommitQueue", "PendingWrite"]

_NO_ACKS: FrozenSet[str] = frozenset()


class PendingWrite:
    """One queued write and its replication progress."""

    __slots__ = ("record", "forced", "acks", "on_commit")

    def __init__(self, record: WriteRecord,
                 on_commit: Optional[Callable[[WriteRecord], None]] = None):
        self.record = record
        self.forced = False                # our own log force completed
        self.acks = _NO_ACKS               # followers that acked
        self.on_commit = on_commit


class CommitQueue:
    """LSN-ordered pending writes for one cohort on one node."""

    def __init__(self, acks_needed: int = 1):
        self.acks_needed = acks_needed
        self._entries: Dict[LSN, PendingWrite] = {}   # insertion-ordered
        self.committed_lsn = LSN.zero()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lsn: LSN) -> bool:
        return lsn in self._entries

    # ------------------------------------------------------------------
    def add(self, record: WriteRecord,
            on_commit: Optional[Callable[[WriteRecord], None]] = None
            ) -> PendingWrite:
        """Queue a proposed write (idempotent by LSN)."""
        entry = self._entries.get(record.lsn)
        if entry is not None:
            if on_commit is not None:
                entry.on_commit = on_commit
            return entry
        entry = PendingWrite(record, on_commit)
        # Insertion order == LSN order: ``add_ack_upto``, ``_trace_acked``
        # and ``pending_older_than`` stop at the first LSN out of range.
        self._entries[record.lsn] = entry
        return entry

    def mark_forced(self, lsn: LSN) -> None:
        entry = self._entries.get(lsn)
        if entry is not None:
            entry.forced = True

    def add_ack(self, lsn: LSN, follower: str) -> None:
        entry = self._entries.get(lsn)
        if entry is not None and follower not in entry.acks:
            entry.acks = entry.acks | {follower}

    def add_ack_upto(self, lsn: LSN, follower: str) -> None:
        """Cumulative ack: the follower has durably logged everything at
        or below ``lsn`` (proposals travel over in-order channels, so an
        ack for a batch covers every earlier pending write too)."""
        for pending_lsn, entry in self._entries.items():
            if pending_lsn > lsn:
                break
            if follower not in entry.acks:
                entry.acks = entry.acks | {follower}

    # ------------------------------------------------------------------
    def advance_leader(self) -> List[WriteRecord]:
        """Commit the longest ready prefix (leader rule): a write is
        ready once forced here and acked by ``acks_needed`` followers.

        Returns records committed by this call, in LSN order; their
        ``on_commit`` callbacks have been invoked, each after its entry
        left the queue (one may resume a process that queues more).
        """
        committed: List[WriteRecord] = []
        entries, needed = self._entries, self.acks_needed
        while entries:
            for lsn in entries:     # the head: oldest insertion
                break
            entry = entries[lsn]
            if not entry.forced or len(entry.acks) < needed:
                break
            del entries[lsn]
            self.committed_lsn = lsn
            committed.append(entry.record)
            if entry.on_commit is not None:
                entry.on_commit(entry.record)
        return committed

    def apply_commit(self, upto: LSN) -> List[WriteRecord]:
        """Commit everything at or below ``upto`` (follower rule, on a
        commit message).  Returns the committed records in LSN order."""
        committed: List[WriteRecord] = []
        entries = self._entries
        while entries:
            for lsn in entries:     # the head: oldest insertion
                break
            if lsn > upto:
                break
            entry = entries[lsn]
            del entries[lsn]
            if lsn > self.committed_lsn:
                self.committed_lsn = lsn
            committed.append(entry.record)
            if entry.on_commit is not None:
                entry.on_commit(entry.record)
        if upto > self.committed_lsn:
            self.committed_lsn = upto
        return committed

    def pending_older_than(self, lsn: LSN, limit: int) -> int:
        """Number of pending entries strictly below ``lsn``, capped at
        ``limit`` — the proposal batcher's congestion probe.  Entries are
        LSN-ordered, so this is O(limit), not O(queue depth)."""
        count = 0
        for pending_lsn in self._entries:
            if pending_lsn >= lsn or count >= limit:
                break
            count += 1
        return count

    # ------------------------------------------------------------------
    def drop(self, lsn: LSN) -> Optional[WriteRecord]:
        """Remove a pending write that was discarded (logical truncation)."""
        entry = self._entries.pop(lsn, None)
        return entry.record if entry is not None else None

    def pending_lsns(self) -> List[LSN]:
        return list(self._entries)

    def pending_records(self) -> List[WriteRecord]:
        return [e.record for e in self._entries.values()]

    def latest_pending_for(self, key: bytes,
                           colname: bytes) -> Optional[WriteRecord]:
        """The newest pending write to (key, column), if any — used by the
        leader to assign version numbers consistently when writes to the
        same column are pipelined."""
        latest: Optional[WriteRecord] = None
        for entry in self._entries.values():
            rec = entry.record
            if rec.key == key and rec.colname == colname:
                latest = rec
        return latest

    def clear(self) -> None:
        self._entries.clear()
