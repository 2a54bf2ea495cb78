"""Measurement utility: a latency histogram.

The paper reports *average operation latency* (client round trip) against
*system load* (measured completed requests/second), sweeping load by
doubling the number of client threads (Appendix C).  The bench harness
and the phase aggregator collect samples into a :class:`Histogram`; each
caller drops its own warm-up window before adding a sample.
"""

from __future__ import annotations

import math
from typing import List, Optional

__all__ = ["Histogram"]


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
