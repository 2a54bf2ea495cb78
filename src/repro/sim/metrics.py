"""Measurement utilities: latency recorders, histograms, throughput.

The paper reports *average operation latency* (client round trip) against
*system load* (measured completed requests/second), sweeping load by
doubling the number of client threads (Appendix C).  These classes collect
exactly those quantities, with warm-up exclusion so queue build-up during
ramp-up does not pollute the steady-state averages.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

__all__ = ["LatencyRecorder", "Histogram", "summarize"]


class Histogram:
    """Fixed set of samples with percentile/summary helpers."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        #: sorted view, rebuilt lazily; ``add`` invalidates.  Percentile
        #: queries are O(1)+amortized sort instead of a sort per call,
        #: which matters once the phase aggregator asks for p95 of every
        #: (op, phase) histogram after every bench run.
        self._sorted: Optional[List[float]] = None

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = None

    def _sorted_view(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not self._samples:
            return float("nan")
        data = self._sorted_view()
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return data[lo]
        frac = rank - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def min(self) -> float:
        return min(self._samples) if self._samples else float("nan")

    def max(self) -> float:
        return max(self._samples) if self._samples else float("nan")


class LatencyRecorder:
    """Per-operation latency samples, bucketed by operation label.

    ``warmup`` seconds of simulated time are discarded; ``record`` must be
    given the *completion* time of the operation.
    """

    def __init__(self, warmup: float = 0.0):
        self.warmup = warmup
        self._hist: Dict[str, Histogram] = {}
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None
        self.dropped_warmup = 0

    def record(self, op: str, latency: float, completed_at: float) -> None:
        if completed_at < self.warmup:
            self.dropped_warmup += 1
            return
        hist = self._hist.get(op)
        if hist is None:
            hist = self._hist[op] = Histogram()
        hist.add(latency)
        if self._first_ts is None:
            self._first_ts = completed_at
        self._last_ts = completed_at

    # -- summaries -------------------------------------------------------
    def ops(self) -> Sequence[str]:
        return list(self._hist)

    def histogram(self, op: str) -> Histogram:
        return self._hist.setdefault(op, Histogram())

    def count(self, op: Optional[str] = None) -> int:
        if op is not None:
            return self.histogram(op).count
        return sum(h.count for h in self._hist.values())

    def throughput(self) -> float:
        """Completed operations per second over the measured window."""
        if (self._first_ts is None or self._last_ts is None
                or self._last_ts <= self._first_ts):
            return 0.0
        return self.count() / (self._last_ts - self._first_ts)


def summarize(recorder: LatencyRecorder) -> Dict[str, Dict[str, float]]:
    """A plain-dict summary, convenient for report printing and tests."""
    out: Dict[str, Dict[str, float]] = {}
    for op in recorder.ops():
        hist = recorder.histogram(op)
        out[op] = {
            "count": hist.count,
            "mean_ms": hist.mean() * 1e3,
            "p50_ms": hist.percentile(50) * 1e3,
            "p95_ms": hist.percentile(95) * 1e3,
            "p99_ms": hist.percentile(99) * 1e3,
            "max_ms": hist.max() * 1e3,
        }
    return out
