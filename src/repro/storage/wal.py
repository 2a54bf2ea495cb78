"""The shared write-ahead log.

Each Spinnaker node has **one** physical log shared by every cohort the
node belongs to, so a dedicated logging device can be used (§4.1).  Each
cohort uses its own *logical* LSN stream within the shared log.  This has
two consequences the paper spends §6.1.1 on:

* a follower's log cannot be physically truncated after a leader change,
  because log records of *other* cohorts are interleaved after the
  truncation point — instead, discarded LSNs go into a per-cohort
  **skipped-LSN list** that local recovery consults (*logical truncation*);
* the oldest log segments are rolled over once their writes are captured
  in SSTables, so catch-up may need to fall back to shipping SSTables.

Durability model
----------------
``append(record, then=f)`` calls ``f()`` once the record is on stable
storage (the log device batches concurrent forces — group commit); a
process yields the event ``append(record)`` returns instead.  Without a
device ``f`` runs inside the append.  A non-forced append (used for
commit markers) becomes durable when any *later* force completes.  On
:meth:`crash`, every record that was not yet durable is lost, exactly
like a real machine losing its page cache.

Cost model
----------
The log is consulted per propose, not per record.  A cohort's view holds
the write records themselves, strictly LSN-ascending (every append
places its record by LSN, almost always at the tail), and maps each LSN
to its *physical sequence number* — an ``int``, so a logged record costs
no wrapper object for the cycle collector to re-traverse for the life of
the log.  Durability is that number against ``_durable_seq``: a crash
keeps exactly the records at or below it.  :meth:`write_records` walks
back from the tail and stops at ``after``.  :meth:`append_batch` resolves the
view and ``n.lst`` once per run of same-cohort records and advances its
local ``last`` exactly as :meth:`_last_lsn` would: only past LSNs not
skipped.  A follower asks once which records of a propose are
:meth:`missing` and reads :meth:`skipped_lsns` once, *after* its appends
(a backfill un-skips).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..sim.disk import LogDevice
from ..sim.events import Event, Simulator
from .lsn import LSN
from .records import (CatchupMarker, CheckpointRecord, CommitMarker,
                      LogRecord, WriteRecord)

__all__ = ["SharedLog", "DuplicateLSN", "StaleLSN"]


class DuplicateLSN(Exception):
    """A write record with an already-present LSN was appended."""


class StaleLSN(Exception):
    """A write record with a non-increasing LSN was appended."""


class _CohortView:
    """Per-cohort logical view over the shared physical log."""

    __slots__ = ("writes", "by_lsn", "skipped", "last_cmt", "ckpt",
                 "min_retained", "catchup_floor", "_skipped_view")

    def __init__(self) -> None:
        self.writes: List[WriteRecord] = []   # LSN order
        self.by_lsn: Dict[LSN, int] = {}      # -> physical sequence number
        self.skipped = set()                  # the skipped-LSN list (§6.1.1)
        self.last_cmt = LSN.zero()            # from durable commit markers
        self.ckpt = LSN.zero()
        self.min_retained = LSN.zero()        # GC horizon (exclusive)
        self.catchup_floor = LSN.zero()       # from durable catch-up markers
        self._skipped_view: Optional[FrozenSet[LSN]] = None

    def place(self, record: WriteRecord, seq: int) -> None:
        """Index a write record appended as physical record ``seq``,
        keeping ``writes`` LSN-ascending: almost always a tail append; a
        backfill, or a record landing under a skipped tail, walks back
        from the tail to its place."""
        writes, lsn = self.writes, record.lsn
        self.by_lsn[lsn] = seq
        if not writes or writes[-1].lsn < lsn:
            writes.append(record)
            return
        idx = len(writes) - 1
        while idx and writes[idx - 1].lsn > lsn:
            idx -= 1
        writes.insert(idx, record)


class SharedLog:
    """One node's shared write-ahead log (volatile tail + durable prefix)."""

    def __init__(self, device: Optional[LogDevice] = None):
        self.device = device
        self._sim = device.sim if device is not None else Simulator()
        self._seq = 0
        self._durable_seq = 0
        self._views: Dict[int, _CohortView] = {}
        #: commit/checkpoint/catch-up markers as (record, physical seq)
        self._markers: List[Tuple[LogRecord, int]] = []
        self.bytes_appended = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: LogRecord, force: bool = True,
               backfill: bool = False,
               then: Optional[Callable[[], None]] = None) -> Optional[Event]:
        """Append a record; when ``force``, ``then()`` runs once it is
        durable (or, without ``then``, the returned event fires).

        Write records must carry a strictly increasing LSN within their
        cohort (among non-skipped records); duplicates raise
        :class:`DuplicateLSN` so protocol bugs surface loudly — recovery
        code checks :meth:`contains` before re-appending.

        ``backfill`` permits an LSN at or below the cohort's last one:
        catch-up and takeover re-proposals legitimately fill gaps left by
        lost proposes (§6.1).  Physically it is still an append; the
        logical view keeps its records sorted by LSN, and a backfilled
        LSN is removed from the skipped list (the leader is
        authoritative about which records are committed).
        """
        ev = None
        if force and then is None:
            ev = Event(self._sim)
            then = ev.succeed
        view = self._view(record.cohort_id)
        if isinstance(record, WriteRecord):
            lsn = record.lsn
            if lsn in view.by_lsn:
                raise DuplicateLSN(f"{lsn} already in cohort "
                                   f"{record.cohort_id} log")
            if not backfill and lsn <= self._last_lsn(view):
                raise StaleLSN(f"{lsn} <= last LSN {self._last_lsn(view)}")
            self._seq += 1
            view.place(record, self._seq)
            if backfill and lsn in view.skipped:
                view.skipped.discard(lsn)
                view._skipped_view = None
        else:
            self._seq += 1
            self._markers.append((record, self._seq))
            if isinstance(record, CommitMarker):
                if record.committed_lsn > view.last_cmt:
                    view.last_cmt = record.committed_lsn
            elif isinstance(record, CheckpointRecord):
                if record.checkpoint_lsn > view.ckpt:
                    view.ckpt = record.checkpoint_lsn
            elif isinstance(record, CatchupMarker):
                if record.floor > view.catchup_floor:
                    view.catchup_floor = record.floor
        size = record.encoded_size()
        self.bytes_appended += size
        if self.device is None:
            # No simulated device (pure unit tests): durable immediately.
            self._durable_seq = self._seq
            if force:
                then()
        elif force:
            self.device.force(size, partial(self._forced, self._seq, then))
        else:
            self.device.append_noforce(size)
        return ev

    def append_batch(self, records: List[LogRecord],
                     then: Optional[Callable[[], None]] = None
                     ) -> Optional[Event]:
        """Append several records with a single force (§8.2 extension),
        as :meth:`append` does one (an empty batch returns None).

        The batch is durable all-or-nothing: one device operation covers
        every record, so a crash can never persist a prefix of a
        multi-operation transaction's log records.
        """
        if not records:
            return None
        ev = None
        if then is None:
            ev = Event(self._sim)
            then = ev.succeed
        total = 0
        cohort_id = None
        for record in records:
            if not isinstance(record, WriteRecord):
                raise TypeError("append_batch takes WriteRecords only")
            if record.cohort_id != cohort_id:
                # once per run of same-cohort records; ``last`` then
                # advances as ``_last_lsn`` would (not past skipped LSNs)
                cohort_id = record.cohort_id
                view = self._view(cohort_id)
                last = self._last_lsn(view)
            lsn = record.lsn
            if lsn in view.by_lsn:
                raise DuplicateLSN(f"{lsn} already in cohort "
                                   f"{cohort_id} log")
            if lsn <= last:
                raise StaleLSN(f"{lsn} <= last LSN {last}")
            self._seq += 1
            view.place(record, self._seq)
            if lsn not in view.skipped:
                last = lsn
            total += record.size
            self.bytes_appended += record.size
        if self.device is None:
            self._durable_seq = self._seq
            then()
        else:
            self.device.force(total, partial(self._forced, self._seq, then))
        return ev

    def _forced(self, seq: int, then: Callable[[], None]) -> None:
        if seq > self._durable_seq:
            self._durable_seq = seq
        then()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _view(self, cohort_id: int) -> _CohortView:
        view = self._views.get(cohort_id)
        if view is None:
            view = self._views[cohort_id] = _CohortView()
        return view

    @staticmethod
    def _last_lsn(view: _CohortView) -> LSN:
        for record in reversed(view.writes):
            if record.lsn not in view.skipped:
                return record.lsn
        return view.min_retained

    def last_lsn(self, cohort_id: int) -> LSN:
        """``n.lst``: the cohort's last (non-skipped) write LSN."""
        return self._last_lsn(self._view(cohort_id))

    def last_committed_lsn(self, cohort_id: int) -> LSN:
        """``n.cmt``: from the most recent durable commit marker."""
        return self._view(cohort_id).last_cmt

    def checkpoint_lsn(self, cohort_id: int) -> LSN:
        return self._view(cohort_id).ckpt

    def catchup_floor(self, cohort_id: int) -> LSN:
        """Durable chunked-catch-up progress: state at or below this LSN
        was installed from shipped SSTables (see :class:`CatchupMarker`)."""
        return self._view(cohort_id).catchup_floor

    def marker_count(self) -> int:
        """How many commit/checkpoint/catch-up markers the log retains —
        bounded by marker GC, not by history length."""
        return len(self._markers)

    def contains(self, cohort_id: int, lsn: LSN) -> bool:
        return lsn in self._view(cohort_id).by_lsn

    def record_at(self, cohort_id: int, lsn: LSN) -> Optional[WriteRecord]:
        view = self._view(cohort_id)
        if lsn in view.by_lsn:      # rare: walk back from the tail
            for record in reversed(view.writes):
                if record.lsn == lsn:
                    return record
        return None

    def write_records(self, cohort_id: int, after: LSN = LSN.zero(),
                      upto: Optional[LSN] = None,
                      include_skipped: bool = False) -> List[WriteRecord]:
        """Write records with ``after < lsn <= upto``, in LSN order: a
        walk back from the tail that stops at ``after``, so a commit
        message costs the few records above the commit point."""
        view = self._view(cohort_id)
        skipped = view.skipped
        out: List[WriteRecord] = []
        for record in reversed(view.writes):
            lsn = record.lsn
            if lsn <= after:
                break
            if ((upto is None or lsn <= upto)
                    and (include_skipped or lsn not in skipped)):
                out.append(record)
        out.reverse()
        return out

    def missing(self, cohort_id: int,
                records: Iterable[WriteRecord]) -> List[WriteRecord]:
        """The records of a propose this log still has to append:
        neither present nor logically truncated (skipped)."""
        view = self._view(cohort_id)
        by_lsn, skipped = view.by_lsn, view.skipped
        return [record for record in records
                if record.lsn not in by_lsn and record.lsn not in skipped]

    def min_retained_lsn(self, cohort_id: int) -> LSN:
        """The cohort's GC horizon: records at or below this LSN have
        been rolled over into SSTables and are no longer in the log."""
        return self._view(cohort_id).min_retained

    def can_serve_after(self, cohort_id: int, lsn: LSN) -> bool:
        """True if every record after ``lsn`` is still in the log (not
        rolled over to SSTables) — the §6.1 catch-up source check."""
        return lsn >= self._view(cohort_id).min_retained

    # ------------------------------------------------------------------
    # Logical truncation (§6.1.1) and GC
    # ------------------------------------------------------------------
    def add_skipped(self, cohort_id: int, lsns: Iterable[LSN]) -> None:
        """Record discarded LSNs in the cohort's skipped-LSN list."""
        view = self._view(cohort_id)
        view.skipped.update(lsns)
        view._skipped_view = None

    def skipped_lsns(self, cohort_id: int) -> FrozenSet[LSN]:
        """Read-only view of the skipped-LSN list; cached between
        mutations so hot-path callers don't copy the set every call."""
        view = self._view(cohort_id)
        if view._skipped_view is None:
            view._skipped_view = frozenset(view.skipped)
        return view._skipped_view

    def is_skipped(self, cohort_id: int, lsn: LSN) -> bool:
        return lsn in self._view(cohort_id).skipped

    def gc_through(self, cohort_id: int, upto: LSN) -> int:
        """Roll over log records with ``lsn <= upto`` (captured in
        SSTables).  Skipped-LSN entries below the horizon are collected
        with the log files they cover.  Returns records dropped."""
        view = self._view(cohort_id)
        keep: List[WriteRecord] = []
        dropped = 0
        for record in view.writes:
            if record.lsn <= upto:
                view.by_lsn.pop(record.lsn, None)
                dropped += 1
            else:
                keep.append(record)
        view.writes = keep
        view.skipped = {lsn for lsn in view.skipped if lsn > upto}
        view._skipped_view = None
        if upto > view.min_retained:
            view.min_retained = upto
        self._gc_markers()
        return dropped

    @staticmethod
    def _marker_key(record: LogRecord) -> Tuple[int, int]:
        if isinstance(record, CommitMarker):
            return (record.cohort_id, 1)
        if isinstance(record, CheckpointRecord):
            return (record.cohort_id, 2)
        return (record.cohort_id, 3)  # CatchupMarker

    @staticmethod
    def _marker_value(record: LogRecord) -> LSN:
        if isinstance(record, CommitMarker):
            return record.committed_lsn
        if isinstance(record, CheckpointRecord):
            return record.checkpoint_lsn
        return record.floor  # CatchupMarker

    def _gc_markers(self) -> None:
        """Drop durable markers superseded by a newer durable marker of
        the same kind for the same cohort.

        Only **durable** markers may act as superseders: a volatile
        marker may still be lost in a crash, and dropping the durable one
        it shadows would lose both states.  :meth:`crash` recomputes
        marker-derived state by a max over the survivors, so keeping the
        maximal durable marker per (cohort, kind) preserves it exactly.
        """
        best: Dict[Tuple[int, int], Tuple[LogRecord, int]] = {}
        for entry in self._markers:
            record, seq = entry
            if seq > self._durable_seq:
                continue
            key = self._marker_key(record)
            cur = best.get(key)
            if (cur is None or self._marker_value(record)
                    >= self._marker_value(cur[0])):
                best[key] = entry
        self._markers = [
            entry for entry in self._markers
            if entry[1] > self._durable_seq
            or best.get(self._marker_key(entry[0])) is entry
        ]

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose every record that was not durable (volatile tail):
        physical sequence number above ``_durable_seq``."""
        durable = self._durable_seq
        for view in self._views.values():
            view.by_lsn = {lsn: seq for lsn, seq in view.by_lsn.items()
                           if seq <= durable}
            view.writes = [record for record in view.writes
                           if record.lsn in view.by_lsn]
        self._markers = [entry for entry in self._markers
                         if entry[1] <= durable]
        # Recompute marker-derived state from the durable prefix.
        for view in self._views.values():
            view.last_cmt = LSN.zero()
            view.ckpt = LSN.zero()
            view.catchup_floor = LSN.zero()
            view._skipped_view = None
        for rec, _seq in self._markers:
            view = self._view(rec.cohort_id)
            if isinstance(rec, CommitMarker):
                if rec.committed_lsn > view.last_cmt:
                    view.last_cmt = rec.committed_lsn
            elif isinstance(rec, CheckpointRecord):
                if rec.checkpoint_lsn > view.ckpt:
                    view.ckpt = rec.checkpoint_lsn
            elif isinstance(rec, CatchupMarker):
                if rec.floor > view.catchup_floor:
                    view.catchup_floor = rec.floor

    def wipe(self) -> None:
        """Total media loss (double-disk failure, §6.1 'lost all data')."""
        self._views.clear()
        self._markers.clear()
        self._seq = 0
        self._durable_seq = 0

    def cohorts(self) -> List[int]:
        return list(self._views)
