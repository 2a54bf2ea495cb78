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

An entry, a :class:`PendingWrite`, is one *write group* — a client
request's records or a takeover batch, the unit the protocol forces,
proposes and acks (§8.2) — and the only place the leader tracks it.
Entries sit in LSN order in a ``deque``; only a deposed leader's
leftovers and takeover batches work per record (PROTOCOL.md).
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, FrozenSet, Iterator, List, Optional,
                    Sequence)

from ..storage.lsn import LSN
from ..storage.records import WriteRecord

__all__ = ["CommitQueue", "PendingWrite"]

_NO_ACKS: FrozenSet[str] = frozenset()


class PendingWrite:
    """One queued write group: its records, the ``then`` that runs once
    it commits, its progress, and its trace — a sampled request's ``ctx``
    (None if unsampled or truncated), spans and ``quorum_wait`` start."""

    __slots__ = ("records", "then", "forced", "acks", "ctx",
                 "propose_span", "force_span", "rtt_span", "force_done")

    def __init__(self, records: Sequence[WriteRecord],
                 then: Optional[Callable[[], None]] = None, ctx=None):
        self.records = records             # LSN-contiguous, ascending
        self.then = then
        self.forced = False                # our own log force completed
        self.acks = _NO_ACKS               # followers that acked
        self.ctx = ctx
        self.propose_span = None
        self.force_span = None
        self.rtt_span = None
        self.force_done = None


class CommitQueue:
    """LSN-ordered pending write groups for one cohort on one node;
    ``finish_trace(entry)`` runs as a traced one commits."""

    def __init__(self, acks_needed: int = 1,
                 finish_trace: Optional[Callable] = None):
        self.acks_needed = acks_needed
        self.finish_trace = finish_trace
        self._entries: Deque[PendingWrite] = deque()
        self.committed_lsn = LSN.zero()

    def __len__(self) -> int:
        """Pending *records*, not groups."""
        count = 0
        for entry in self._entries:
            count += len(entry.records)
        return count

    def __iter__(self) -> Iterator[PendingWrite]:
        return iter(self._entries)

    # ------------------------------------------------------------------
    def add(self, entry: PendingWrite) -> PendingWrite:
        """Queue a proposed write group at its LSN place.  Records of it
        that are pending already — a deposed leader's, re-proposed by
        its takeover — leave their old entries; a group of only such
        records keeps the acks they all had (an ack is for an LSN)."""
        entries = self._entries
        if not entries or entry.records[0].lsn > entries[-1].records[-1].lsn:
            entries.append(entry)       # the steady state: a new tail
            return entry
        lsns = {record.lsn for record in entry.records}
        taken = self._take(lsns, entry)
        if len(taken) == len(lsns):
            entry.acks = frozenset.intersection(*(old.acks for old in taken))
        return entry

    def _take(self, lsns, entry=None) -> List[PendingWrite]:
        """Remove the pending records with these LSNs, whose entries
        never run their ``then``, and queue ``entry`` at its LSN place;
        returns the entry each record left."""
        taken = []
        for old in self._entries:
            kept = [r for r in old.records if r.lsn not in lsns]
            taken += [old] * (len(old.records) - len(kept))
            if len(kept) < len(old.records):
                old.records, old.then = kept, None
        live = [old for old in self._entries if old.records]
        if entry is not None:
            live = sorted(live + [entry], key=lambda e: e.records[0].lsn)
        self._entries.clear()
        self._entries.extend(live)
        return taken

    def add_ack_upto(self, lsn: LSN, follower: str) -> None:
        """Cumulative ack: the follower has durably logged everything at
        or below ``lsn``.  It logs a propose only on top of its ``prev``
        and acks once a force covering it lands, so its log is a prefix
        of this leader's stream (PROTOCOL.md, *The prefix rule*): an ack
        for a batch covers every earlier pending group too.  Closes the
        ``replicate_rtt`` span of each traced group it covers."""
        for entry in self._entries:
            if entry.records[-1].lsn > lsn:
                break
            if follower not in entry.acks:
                entry.acks = entry.acks | {follower}
            span = entry.rtt_span
            if span is not None and span.end is None:
                entry.ctx.tracer.finish(span)

    # ------------------------------------------------------------------
    def advance_leader(self) -> List[WriteRecord]:
        """Commit the longest ready prefix (leader rule): a group is
        ready once forced here and acked by ``acks_needed`` followers.

        Returns records committed by this call, in LSN order; each
        group's ``then`` has run after it left the queue and before the
        next was examined (one may resume a process that queues more).
        """
        committed: List[WriteRecord] = []
        entries, needed = self._entries, self.acks_needed
        while entries:
            entry = entries[0]
            if not entry.forced or len(entry.acks) < needed:
                break
            entries.popleft()
            records = entry.records
            committed += records
            self.committed_lsn = records[-1].lsn
            if entry.ctx is not None:
                self.finish_trace(entry)
            if entry.then is not None:
                entry.then()
        return committed

    def apply_commit(self, upto: LSN) -> List[WriteRecord]:
        """Commit everything at or below ``upto`` (follower rule, on a
        commit message).  Returns the committed records in LSN order; a
        group ``upto`` ends inside commits that prefix and waits."""
        committed: List[WriteRecord] = []
        entries = self._entries
        if upto > self.committed_lsn:
            self.committed_lsn = upto
        while entries:
            entry = entries[0]
            records = entry.records
            if records[-1].lsn > upto:
                n = 0
                while records[n].lsn <= upto:
                    n += 1
                committed += records[:n]
                entry.records = records[n:]
                break
            entries.popleft()
            committed += records
            if entry.ctx is not None:
                self.finish_trace(entry)
            if entry.then is not None:
                entry.then()
        return committed

    # ------------------------------------------------------------------
    def drop(self, lsn: LSN) -> Optional[WriteRecord]:
        """Remove a pending record that was discarded (logical
        truncation); its group's ``then`` never runs."""
        for record in self.pending_records():
            if record.lsn == lsn:
                self._take({lsn})
                return record
        return None

    def pending_records(self) -> List[WriteRecord]:
        return [record for entry in self._entries
                for record in entry.records]

    def latest_pending_for(self, key: bytes,
                           colname: bytes) -> Optional[WriteRecord]:
        """The newest pending write to (key, column), if any — used by the
        leader to assign version numbers consistently when writes to the
        same column are pipelined."""
        latest: Optional[WriteRecord] = None
        for entry in self._entries:
            for rec in entry.records:
                if rec.key == key and rec.colname == colname:
                    latest = rec
        return latest

    def clear(self) -> None:
        self._entries.clear()
