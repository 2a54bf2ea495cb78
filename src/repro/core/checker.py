"""History-based consistency checking.

Spinnaker's version numbers make single-key consistency mechanically
checkable: every committed write to a column gets a distinct,
monotonically increasing version.  A :class:`HistoryRecorder` collects
client-observed operations (with invocation/response times), and
:func:`check_strong_history` verifies the strong-consistency contract on
each key:

* **recency** — a strong read returns a version at least as new as any
  write *acknowledged before the read began*;
* **no time travel** — a strong read returns a version no newer than the
  number of writes *started before the read ended* (versions cannot come
  from the future).  A failed (timed-out) write is *indeterminate*: it —
  or its client-level retries — may have committed anyway, so once one
  has started, the ceiling for overlapping-or-later reads is unbounded
  (the standard Jepsen treatment of info-result operations);
* **real-time monotonicity** — for two non-overlapping strong reads,
  the later read never returns an older version.

These are the single-key linearizability conditions for a versioned
register.  The chaos and semantics tests drive real cluster histories
through this checker.
"""

from __future__ import annotations

from typing import List, Optional

from ..values import value_type

__all__ = ["HistoryRecorder", "Violation", "check_strong_history"]


@value_type
class _Op:
    kind: str           # "read" | "write"
    key: bytes
    start: float
    end: float
    version: int        # version returned (read) or assigned (write)
    ok: bool


@value_type
class Violation:
    """One consistency violation found in a history."""

    key: bytes
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} on {self.key!r}: {self.detail}"


class HistoryRecorder:
    """Collects operations as clients observe them."""

    def __init__(self) -> None:
        self._ops: List[_Op] = []

    def record_write(self, key: bytes, start: float, end: float,
                     version: int, ok: bool = True) -> None:
        self._ops.append(_Op("write", key, start, end, version, ok))

    def record_read(self, key: bytes, start: float, end: float,
                    version: int) -> None:
        self._ops.append(_Op("read", key, start, end, version, True))

    def operations(self, key: Optional[bytes] = None) -> List[_Op]:
        return [op for op in self._ops if key is None or op.key == key]

    def keys(self) -> List[bytes]:
        return sorted({op.key for op in self._ops})

    def __len__(self) -> int:
        return len(self._ops)


def check_strong_history(history: HistoryRecorder) -> List[Violation]:
    """Check the strong-consistency rules; returns violations (empty =
    the history is consistent)."""
    violations: List[Violation] = []
    for key in sorted(history.keys()):
        ops = history.operations(key)
        writes = [op for op in ops if op.kind == "write" and op.ok]
        failed_writes = [op for op in ops
                         if op.kind == "write" and not op.ok]
        reads = sorted((op for op in ops if op.kind == "read" and op.ok),
                       key=lambda op: op.start)
        for read in reads:
            acked_before = [w for w in writes if w.end <= read.start]
            floor = max((w.version for w in acked_before), default=0)
            if read.version < floor:
                violations.append(Violation(
                    key, "recency",
                    f"read at [{read.start:.4f},{read.end:.4f}] returned "
                    f"version {read.version} < acknowledged {floor}"))
            # An indeterminate (failed) write that already started may
            # have committed any number of versions via retries, so the
            # ceiling is only known when none is in play.
            if any(w.start <= read.end for w in failed_writes):
                continue
            started_before = [w for w in writes if w.start <= read.end]
            ceiling = max((w.version for w in started_before), default=0)
            if read.version > ceiling:
                violations.append(Violation(
                    key, "time-travel",
                    f"read returned version {read.version} but only "
                    f"{ceiling} writes had started"))
        # Real-time monotonicity across *all* non-overlapping read pairs,
        # not just adjacent ones: a stale read separated from its witness
        # by an overlapping read in between must still be caught.  Sweep
        # reads in start order, keeping the max version over every read
        # already *ended* — O(n log n) instead of comparing all pairs.
        by_end = sorted(reads, key=lambda op: op.end)
        ended = 0
        witness: Optional[_Op] = None
        for read in reads:   # already sorted by start
            while ended < len(by_end) and by_end[ended].end <= read.start:
                if witness is None or by_end[ended].version > witness.version:
                    witness = by_end[ended]
                ended += 1
            if witness is not None and read.version < witness.version:
                violations.append(Violation(
                    key, "monotonicity",
                    f"read ending {witness.end:.4f} saw version "
                    f"{witness.version}, later read at "
                    f"[{read.start:.4f},{read.end:.4f}] saw "
                    f"{read.version}"))
    return violations
