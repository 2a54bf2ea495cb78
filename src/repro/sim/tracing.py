"""Structured protocol tracing.

A :class:`Tracer` collects timestamped, categorized protocol events
(elections, takeovers, catch-ups, crashes, flushes...) into a bounded
ring buffer.  The default
:class:`NullTracer` makes tracing free when off; pass
``SpinnakerCluster(tracer=Tracer(...))`` to turn it on.

Categories used by the core:

========== =====================================================
category    events
========== =====================================================
node        boot, crash, restart, disk-loss
election    round start, candidate announce, winner, follower
takeover    start, follower caught up, re-proposals, open
catchup     request, ingest (records / sstables / truncations)
replication leadership transfers, write blocks
storage     flush, checkpoint, log GC
========== =====================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional

__all__ = ["TraceEvent", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One protocol event."""

    time: float
    category: str
    node: str
    message: str
    fields: Dict = field(default_factory=dict)

    def format(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return (f"[{self.time:10.4f}] {self.category:<11s} "
                f"{self.node:<8s} {self.message}"
                + (f"  ({extras})" if extras else ""))


class NullTracer:
    """The default: drops everything at near-zero cost."""

    enabled = False

    def emit(self, category: str, node: str, message: str,
             **fields) -> None:
        pass

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        return []


class Tracer:
    """Bounded in-memory event collector with category filters."""

    enabled = True

    def __init__(self, sim=None, categories: Optional[Iterable[str]] = None,
                 max_events: int = 100_000):
        #: bound automatically by SpinnakerCluster when left None
        self.sim = sim
        self.categories = set(categories) if categories else None
        self.max_events = max_events
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.dropped = 0

    # ------------------------------------------------------------------
    def emit(self, category: str, node: str, message: str,
             **fields) -> None:
        if self.categories is not None and category not in self.categories:
            self.dropped += 1
            return
        if len(self._events) == self.max_events:
            self.dropped += 1
        now = self.sim.now if self.sim is not None else 0.0
        self._events.append(TraceEvent(time=now, category=category,
                                       node=node, message=message,
                                       fields=fields))

    # ------------------------------------------------------------------
    def events(self, category: Optional[str] = None,
               node: Optional[str] = None,
               since: float = 0.0) -> List[TraceEvent]:
        return [e for e in self._events
                if (category is None or e.category == category)
                and (node is None or e.node == node)
                and e.time >= since]

    def format(self, **filters) -> str:
        return "\n".join(e.format() for e in self.events(**filters))

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)
