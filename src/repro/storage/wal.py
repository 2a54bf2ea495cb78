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
A cohort's log is two parallel, LSN-ascending lists and nothing else:
``writes``, the write records themselves, and ``seqs``, each one's
*physical sequence number* — an ``int``, so a logged record costs no
wrapper object for the cycle collector to re-traverse for the life of
the log.  Durability is that number against ``_durable_seq``: a crash
keeps exactly the records at or below it.  An append above the tail —
every leader batch and every follower propose in the steady state — is
two list appends; :meth:`append_batch` resolves the view and ``n.lst``
once per run of same-cohort records and advances its local ``last``
exactly as :meth:`_last_lsn` would: only past LSNs not skipped.

A follower logs a propose on arrival, only on top of its ``prev``
(:meth:`append_after`; PROTOCOL.md, *The prefix rule*): with the tail at
``prev`` and nothing skipped — the steady state — one pass and two list
extends, no ``n.lst`` walk.  :meth:`force` later covers every earlier
append.  Its view above f.cmt *is* its commit queue (Fig. 4), read at a
commit in one backward walk (:meth:`write_records` stops at ``after``).
The rare queries — :meth:`contains`, :meth:`record_at`, a duplicate
check or an insert under a skip-listed tail — are a binary search;
:meth:`gc_through` cuts a prefix.
"""

from __future__ import annotations

from functools import partial
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

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

    __slots__ = ("writes", "seqs", "skipped", "last_cmt", "ckpt",
                 "min_retained", "catchup_floor", "_skipped_view")

    def __init__(self) -> None:
        self.writes: List[WriteRecord] = []   # LSN order
        self.seqs: List[int] = []             # writes[i]'s physical seq
        self.skipped = set()                  # the skipped-LSN list (§6.1.1)
        self.last_cmt = LSN.zero()            # from durable commit markers
        self.ckpt = LSN.zero()
        self.min_retained = LSN.zero()        # GC horizon (exclusive)
        self.catchup_floor = LSN.zero()       # from durable catch-up markers
        self._skipped_view: Optional[FrozenSet[LSN]] = None

    def index(self, lsn: LSN) -> int:
        """Where ``lsn`` is in ``writes``, or would go: a binary search
        (``bisect`` takes no ``key=`` before Python 3.10)."""
        writes = self.writes
        lo, hi = 0, len(writes)
        while lo < hi:
            mid = (lo + hi) >> 1
            if writes[mid].lsn < lsn:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def find(self, lsn: LSN) -> int:
        """The index of ``lsn`` in ``writes``; -1 if it is not held."""
        writes = self.writes
        if not writes or writes[-1].lsn < lsn:
            return -1
        idx = self.index(lsn)
        return idx if writes[idx].lsn == lsn else -1

    def place(self, record: WriteRecord, seq: int) -> None:
        """Add a write record appended as physical record ``seq`` at its
        LSN's place: at the tail, or — a record landing under a skipped
        tail — where a binary search puts it."""
        writes = self.writes
        if not writes or writes[-1].lsn < record.lsn:
            writes.append(record)
            self.seqs.append(seq)
            return
        idx = self.index(record.lsn)
        writes.insert(idx, record)
        self.seqs.insert(idx, seq)


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
               then: Optional[Callable[[], None]] = None) -> Optional[Event]:
        """Append a record; when ``force``, ``then()`` runs once it is
        durable (or, without ``then``, the returned event fires).

        Write records must carry a strictly increasing LSN within their
        cohort (among non-skipped records); duplicates raise
        :class:`DuplicateLSN` so protocol bugs surface loudly — recovery
        code checks :meth:`contains` before re-appending.  One may land
        under a skip-listed tail, where the logical view keeps it sorted.

        A non-forced append takes no ``then``: nothing waits for it, so
        one raises :class:`ValueError` before the log is touched.
        """
        ev = None
        if not force:
            if then is not None:
                raise ValueError("a non-forced append has no completion "
                                 "to call `then` at")
        elif then is None:
            ev = Event(self._sim)
            then = ev.succeed
        view = self._view(record.cohort_id)
        if isinstance(record, WriteRecord):
            lsn = record.lsn
            if view.find(lsn) >= 0:
                raise DuplicateLSN(f"{lsn} already in cohort "
                                   f"{record.cohort_id} log")
            if lsn <= self._last_lsn(view):
                raise StaleLSN(f"{lsn} <= last LSN {self._last_lsn(view)}")
            self._seq += 1
            view.place(record, self._seq)
        else:
            self._seq += 1
            self._markers.append((record, self._seq))
            self._note_marker(view, record)
        size = record.encoded_size()
        self.bytes_appended += size
        if force:
            self.force(size, then)
        elif self.device is None:
            self._durable_seq = self._seq
        else:
            self.device.append_noforce(size)
        return ev

    def append_batch(self, records: List[LogRecord],
                     then: Optional[Callable[[], None]] = None
                     ) -> Optional[Event]:
        """Append several records with a single force (§8.2 extension),
        as :meth:`append` does one.  An empty batch has nothing to make
        durable: ``then()`` at once (or the event returned has fired).

        The batch is durable all-or-nothing: one device operation covers
        every record, so a crash can never persist a prefix of a
        multi-operation transaction's log records.
        """
        ev = None
        if then is None:
            ev = Event(self._sim)
            then = ev.succeed
        if not records:
            then()
            return ev
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
                writes, seqs, skipped = view.writes, view.seqs, view.skipped
                last = self._last_lsn(view)
            lsn = record.lsn
            below = writes and lsn <= writes[-1].lsn
            if below and view.find(lsn) >= 0:
                raise DuplicateLSN(f"{lsn} already in cohort "
                                   f"{cohort_id} log")
            if lsn <= last:
                raise StaleLSN(f"{lsn} <= last LSN {last}")
            self._seq += 1
            if below:
                view.place(record, self._seq)
            else:                               # the tail: the steady state
                writes.append(record)
                seqs.append(self._seq)
            if lsn not in skipped:
                last = lsn
            total += record.size
            self.bytes_appended += record.size
        self.force(total, then)
        return ev

    def append_after(self, cohort_id: int, prev: LSN,
                     records: Sequence[WriteRecord],
                     held: LSN) -> Optional[int]:
        """Log a follower's propose — ``records``, the leader's stream
        right above ``prev`` — unforced; return the bytes appended, or
        None (appending nothing) when it does not extend this log: unless
        the log holds ``prev`` (or it is at or below ``held``, f.cmt, or
        the GC horizon) and its non-skipped records above ``prev`` agree
        with the propose LSN by LSN until one ends.  What lies beyond the
        agreement is appended; a skip-listed LSN is taken off the list."""
        view = self._view(cohort_id)
        writes, skipped = view.writes, view.skipped
        total, last = 0, prev
        for record in records:
            if record.lsn <= last:
                return None
            last = record.lsn
            total += record.size
        if not skipped and prev == (writes[-1].lsn if writes
                                    else view.min_retained):
            # the steady state: the log ends at ``prev``
            seq = self._seq
            writes.extend(records)
            self._seq = seq + len(records)
            view.seqs.extend(range(seq + 1, self._seq + 1))
            self.bytes_appended += total
            return total
        idx = view.index(prev)
        if idx < len(writes) and writes[idx].lsn == prev and (
                prev not in skipped):
            idx += 1
        elif prev > held and prev > view.min_retained:
            return None
        mine = [record.lsn for record in writes[idx:]
                if record.lsn not in skipped]
        theirs = [record for record in records
                  if record.lsn > view.min_retained]
        if [record.lsn for record in theirs[:len(mine)]] != mine[:len(theirs)]:
            return None
        total = 0
        for record in theirs[len(mine):]:
            lsn = record.lsn
            if lsn in skipped:
                skipped.discard(lsn)
                view._skipped_view = None
                if view.find(lsn) >= 0:
                    continue
            self._seq += 1
            view.place(record, self._seq)
            total += record.size
        self.bytes_appended += total
        return total

    def durable(self, cohort_id: int, records: Sequence[WriteRecord]) -> bool:
        """Whether every one of ``records`` the log holds is durable."""
        view = self._view(cohort_id)
        return all(view.seqs[idx] <= self._durable_seq
                   for idx in map(view.find, (r.lsn for r in records))
                   if idx >= 0)

    def force(self, size: int, then: Callable[[], None]) -> None:
        """Force everything appended so far, ``size`` bytes of it not yet
        forced; ``then()`` once durable."""
        if self.device is None:
            # No simulated device (pure unit tests): durable immediately.
            self._durable_seq = self._seq
            then()
        else:
            self.device.force(size, partial(self._forced, self._seq, then))

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
        return self._view(cohort_id).find(lsn) >= 0

    def record_at(self, cohort_id: int, lsn: LSN) -> Optional[WriteRecord]:
        view = self._view(cohort_id)
        idx = view.find(lsn)
        return view.writes[idx] if idx >= 0 else None

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
        writes = view.writes
        dropped = view.index(upto)          # the prefix at or below upto
        if dropped < len(writes) and writes[dropped].lsn == upto:
            dropped += 1
        del writes[:dropped]
        del view.seqs[:dropped]
        view.skipped = {lsn for lsn in view.skipped if lsn > upto}
        view._skipped_view = None
        if upto > view.min_retained:
            view.min_retained = upto
        self._gc_markers()
        return dropped

    @staticmethod
    def _note_marker(view: _CohortView, record: LogRecord) -> None:
        """Raise the view's commit point, checkpoint or catch-up floor to
        what the marker ``record`` says."""
        if isinstance(record, CommitMarker):
            view.last_cmt = max(view.last_cmt, record.committed_lsn)
        elif isinstance(record, CheckpointRecord):
            view.ckpt = max(view.ckpt, record.checkpoint_lsn)
        elif isinstance(record, CatchupMarker):
            view.catchup_floor = max(view.catchup_floor, record.floor)

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
            writes, seqs = view.writes, view.seqs
            view.writes = [writes[i] for i, seq in enumerate(seqs)
                           if seq <= durable]
            view.seqs = [seq for seq in seqs if seq <= durable]
        self._markers = [entry for entry in self._markers
                         if entry[1] <= durable]
        # Recompute marker-derived state from the durable prefix.
        for view in self._views.values():
            view.last_cmt = LSN.zero()
            view.ckpt = LSN.zero()
            view.catchup_floor = LSN.zero()
            view._skipped_view = None
        for rec, _seq in self._markers:
            self._note_marker(self._view(rec.cohort_id), rec)

    def wipe(self) -> None:
        """Total media loss (double-disk failure, §6.1 'lost all data')."""
        self._views.clear()
        self._markers.clear()
        self._seq = 0
        self._durable_seq = 0

    def cohorts(self) -> List[int]:
        return list(self._views)
