"""Host-clock readings that survive a machine whose speed keeps changing.

The box this benchmark runs on (a 2-vCPU VM) flips between a fast and a
~25 % slower state every second or so, for seconds at a time, as its
neighbours come and go; *everything* slows together, a bare arithmetic
loop included.  Raw wall time of the same deterministic run therefore
spreads 10–20 % from run to run whatever statistic summarises it
(measured: README, "Noise method").

So every timed span is bracketed by a small fixed calibration kernel — an
event heap driving generators that touch objects, dicts and bytes, the
simulator's own instruction mix, owned by perfbench so that no change to
the repository can speed it up — and is reported in **seconds at reference
speed**: ``span × CAL_REF_S / (kernel time around the span)``.  At the
speed where the kernel takes ``CAL_REF_S`` (this box, quiet) a reference
second is a wall second.  Spans are kept short (the runner slices the
timed region) so that the two kernel runs around a span see the machine
state the span saw.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heappop, heappush
from time import perf_counter

#: the kernel's run time on the reference machine state, seconds
CAL_REF_S = 0.016
_PROCS, _STEPS = 32, 800


class _Cell:
    __slots__ = ("count", "total", "seen")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.seen = {}


def _proc(cell: _Cell):
    for i in range(_STEPS):
        cell.count += 1
        cell.total += 0.5
        cell.seen[i & 127] = (cell.count, bytes(16))
        yield 1e-3 * ((i * 7919) % 13)


def kernel() -> float:
    """Run the fixed calibration work; returns the host seconds it took."""
    was_enabled = gc.isenabled()
    gc.disable()           # its garbage must not move the caller's GC clock
    start = perf_counter()
    heap, seq = [], 0
    for cell in [_Cell() for _ in range(_PROCS)]:
        gen = _proc(cell)
        seq += 1
        heappush(heap, [next(gen), seq, gen])
    while heap:
        now, _, gen = heappop(heap)
        try:
            delay = gen.send(None)
        except StopIteration:
            continue
        seq += 1
        heappush(heap, [now + delay, seq, gen])
    elapsed = perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


class RefClock:
    """Accumulates timed spans, raw and at reference speed."""

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.kernel_s = []          # every calibration reading taken
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        reading = kernel()
        self.kernel_s.append(reading)
        return reading

    @contextmanager
    def span(self):
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            before, self._last = self._last, self._calibrate()
            self.raw_s += elapsed
            self.ref_s += elapsed * CAL_REF_S * 2.0 / (before + self._last)
