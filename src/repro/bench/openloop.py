"""Open-loop load generation: arrivals decoupled from completions.

The paper's harness (Appendix C) is *closed-loop*: each client thread
issues its next request only after the previous one returns, so a slow
server throttles its own offered load.  Production front-ends do not
behave that way — users arrive independently of how the datastore is
doing — and the difference matters exactly where this repo's north star
lives (does the design hold up at hundreds of nodes and ~10⁶ users?).
This module adds the open-loop side:

* **arrival processes** — :class:`PoissonArrivals` (memoryless, the
  M/G/k textbook case), :class:`BurstyArrivals` (on/off modulated
  Poisson: flash crowds), and :class:`DiurnalArrivals` (sinusoidally
  rate-modulated Poisson: day/night cycles).  Each draws inter-arrival
  gaps from a dedicated :class:`~repro.sim.rng.RngRegistry` stream, so
  arrival sequences are deterministic per seed and isolated from every
  other consumer of randomness;
* **client multiplexing** — one simulated driver process *per shard*
  models thousands of users (:class:`MuxedUsers`): per-user state is
  two compact ``array('I')`` counters (8 bytes/user, independent of how
  many operations the user performs), so a million modeled users cost
  ~8 MB rather than a million generator frames;
* :func:`run_open_load` — the harness: drive a target at a fixed
  *offered* rate for a fixed window and report completed throughput,
  latency percentiles, and how many arrivals were shed at the in-flight
  cap (the open-loop overload signal that closed loops can never show).

Determinism: driver processes draw only from their own forked streams
and never branch on tracer state, so simulated time is bit-identical
with request tracing on or off.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.datamodel import RequestTimeout, VersionMismatch
from ..sim.metrics import Histogram
from ..sim.process import spawn, timeout
from .harness import N_CLIENT_NODES
from .workload import Workload

__all__ = [
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "MuxedUsers",
    "OpenLoadPoint",
    "run_open_load",
]


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate`` per second."""

    name = "poisson"
    __slots__ = ("rate",)

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("arrival rate must be > 0")
        self.rate = rate

    def next_gap(self, rng, now: float) -> float:
        """Seconds until the next arrival (``now`` unused: memoryless)."""
        return rng.expovariate(self.rate)


def _thinned_gap(rng, now: float, rate_max: float, rate_at) -> float:
    """One inter-arrival gap of a non-homogeneous Poisson process.

    Lewis-Shedler thinning: draw candidate arrivals at the bounding
    rate ``rate_max`` and accept each with probability
    ``rate_at(t) / rate_max``.  Exact for any intensity bounded by
    ``rate_max`` — naively drawing a gap at the rate in force at draw
    time undercounts sharp bursts (the last low-rate gap overshoots
    deep into the burst window).  Deterministic given the rng stream;
    the number of draws per arrival varies, which is fine because each
    generator owns its stream exclusively.
    """
    t = now
    while True:
        t += rng.expovariate(rate_max)
        if rng.random() * rate_max <= rate_at(t):
            return t - now


class BurstyArrivals:
    """On/off modulated Poisson: flash-crowd bursts over a quiet floor.

    During the first ``on_s`` seconds of every ``on_s + off_s`` cycle
    arrivals come at ``rate * burst_factor``; outside the burst they
    drop to the rate that keeps the *long-run mean* near ``rate``
    (clamped at a small floor so the off phase is never silent).
    Sampled by thinning (:func:`_thinned_gap`), so the burst windows
    get their full arrival mass despite the sharp rate edges.
    """

    name = "bursty"
    # lint: allow(write-only-slot) — burst_factor: public, like rate/on_s
    __slots__ = ("rate", "burst_factor", "on_s", "off_s",
                 "_rate_on", "_rate_off")

    def __init__(self, rate: float, burst_factor: float = 4.0,
                 on_s: float = 0.5, off_s: float = 1.5):
        if rate <= 0:
            raise ValueError("arrival rate must be > 0")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if on_s <= 0 or off_s <= 0:
            raise ValueError("on_s and off_s must be > 0")
        self.rate = rate
        self.burst_factor = burst_factor
        self.on_s = on_s
        self.off_s = off_s
        self._rate_on = rate * burst_factor
        # solve mean = (on*rate_on + off*rate_off) / (on + off) for off
        mean_total = rate * (on_s + off_s)
        self._rate_off = max((mean_total - self._rate_on * on_s) / off_s,
                             rate * 0.05)

    def _rate_at(self, t: float) -> float:
        phase = t % (self.on_s + self.off_s)
        return self._rate_on if phase < self.on_s else self._rate_off

    def next_gap(self, rng, now: float) -> float:
        return _thinned_gap(rng, now, self._rate_on, self._rate_at)


class DiurnalArrivals:
    """Sinusoidally rate-modulated Poisson: a day/night load cycle.

    Instantaneous rate is ``rate * (1 + amplitude * sin(2*pi*now /
    period))``, floored at 5% of the mean so the trough never goes
    fully silent.  Sampled exactly by thinning (:func:`_thinned_gap`)
    against the peak rate.
    """

    name = "diurnal"
    __slots__ = ("rate", "period", "amplitude")

    def __init__(self, rate: float, period: float = 60.0,
                 amplitude: float = 0.5):
        if rate <= 0:
            raise ValueError("arrival rate must be > 0")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if period <= 0:
            raise ValueError("period must be > 0")
        self.rate = rate
        self.period = period
        self.amplitude = amplitude

    def _rate_at(self, t: float) -> float:
        rate = self.rate * (1.0 + self.amplitude
                            * math.sin(2.0 * math.pi * t / self.period))
        return max(rate, self.rate * 0.05)

    def next_gap(self, rng, now: float) -> float:
        return _thinned_gap(rng, now, self.rate * (1.0 + self.amplitude),
                            self._rate_at)


# ---------------------------------------------------------------------------
# Multiplexed users
# ---------------------------------------------------------------------------

class MuxedUsers:
    """Bounded per-user state for a large modeled population.

    One driver process per shard attributes each arrival to a user in
    its contiguous slice of ``[0, n)``.  The only per-user storage is a
    pair of unsigned 32-bit counters (ops issued / completed), so the
    footprint is a flat ``8 * n`` bytes no matter how long the run is —
    the property the scale experiments rely on to model ~10⁶ users.
    """

    __slots__ = ("n", "shards", "issued", "completed")

    def __init__(self, n: int, shards: int):
        if n < 1 or shards < 1 or shards > n:
            raise ValueError(f"bad population n={n} shards={shards}")
        self.n = n
        self.shards = shards
        self.issued = array("I", bytes(4 * n))
        self.completed = array("I", bytes(4 * n))

    def shard_bounds(self, shard: int) -> range:
        """The user-id range owned by ``shard`` (near-equal slices)."""
        base = (self.n * shard) // self.shards
        end = (self.n * (shard + 1)) // self.shards
        return range(base, end)

    def pick(self, shard: int, rng) -> int:
        """Attribute one arrival to a uniform-random user of the shard."""
        bounds = self.shard_bounds(shard)
        uid = bounds.start + rng.randrange(len(bounds))
        self.issued[uid] += 1
        return uid

    def complete(self, uid: int) -> None:
        self.completed[uid] += 1

    def state_bytes(self) -> int:
        """Total per-user state held (the boundedness invariant)."""
        return (self.issued.itemsize * len(self.issued)
                + self.completed.itemsize * len(self.completed))

    def active_users(self) -> int:
        """How many users issued at least one operation."""
        return sum(1 for c in self.issued if c)


# ---------------------------------------------------------------------------
# The open loop
# ---------------------------------------------------------------------------

@dataclass
class OpenLoadPoint:
    """One open-loop measurement window."""

    arrival: str               # arrival-process name
    offered_rate: float        # configured arrivals/sec
    observed_offered: float    # arrivals/sec actually generated in-window
    throughput: float          # completed ops/sec in-window
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    ops: int
    errors: int
    shed: int                  # arrivals dropped at the in-flight cap
    n_users: int
    active_users: int
    user_state_bytes: int

    def __str__(self) -> str:
        return (f"{self.arrival:8s} offered {self.offered_rate:9.0f}/s  "
                f"done {self.throughput:9.0f}/s  "
                f"p95 {self.p95_ms:7.2f} ms  shed {self.shed}")


def run_open_load(target, workload: Workload, n_users: int, rate: float,
                  duration: float, warmup: float = 1.0,
                  arrivals: Callable[[float], object] = PoissonArrivals,
                  shards: int = 8, max_inflight_per_shard: int = 128,
                  seed: int = 1,
                  preload: bool = True) -> OpenLoadPoint:
    """Drive ``target`` open-loop at ``rate`` arrivals/sec for
    ``duration`` measured seconds (after ``warmup`` unmeasured ones).

    ``arrivals`` is a factory called with each shard's share of the
    rate (``rate / shards``); pass one of the arrival-process classes.
    Arrivals that find the shard at ``max_inflight_per_shard`` ops in
    flight are *shed* and counted — an open loop must never queue
    unboundedly inside the generator, and the shed count is the
    overload signal.
    """
    workload.validate()
    if n_users < shards:
        raise ValueError("need at least one user per shard")
    sim = target.sim
    rng_master = target.cluster.rng.fork(f"openloop-{seed}")
    keys = [b"row-%06d" % i for i in range(workload.preload_rows)]
    if preload and workload.preload_rows:
        target.preload(keys, workload.value_size)
    target.start()

    users = MuxedUsers(n_users, shards)
    hist = Histogram()
    inflight = array("I", bytes(4 * shards))
    stats = {"offered": 0, "shed": 0, "errors": 0, "conflicts": 0,
             "inflight": 0, "drivers_done": 0}
    t0 = sim.now
    measure_start = t0 + warmup
    end = measure_start + duration
    shard_rate = rate / shards

    def one_op(op, sid: int, uid: int, measured: bool):
        start = sim.now
        try:
            yield from op()
        except VersionMismatch:
            stats["conflicts"] += 1
            return
        except RequestTimeout:
            stats["errors"] += 1
            return
        finally:
            inflight[sid] -= 1
            stats["inflight"] -= 1
            users.complete(uid)
        if measured:
            hist.add(sim.now - start)

    def driver(sid: int):
        arr = arrivals(shard_rate)
        rng_arr = rng_master.stream(f"arrivals-{sid}")
        rng_ops = rng_master.stream(f"ops-{sid}")
        client_name = f"bclient{sid % N_CLIENT_NODES}"
        read_op, write_op = target.make_thread(client_name, workload, sid,
                                               keys, rng_ops)
        while True:
            yield timeout(sim, arr.next_gap(rng_arr, sim.now - t0))
            if sim.now >= end:
                break
            uid = users.pick(sid, rng_arr)
            measured = sim.now >= measure_start
            if measured:
                stats["offered"] += 1
            if inflight[sid] >= max_inflight_per_shard:
                if measured:
                    stats["shed"] += 1
                continue
            inflight[sid] += 1
            stats["inflight"] += 1
            is_write = rng_arr.random() < workload.write_fraction
            spawn(sim, one_op(write_op if is_write else read_op, sid, uid,
                              measured),
                  name=f"open-op-{sid}")
        stats["drivers_done"] += 1

    for sid in range(shards):
        spawn(sim, driver(sid), name=f"open-driver-{sid}")
    target.cluster.run_until(
        lambda: stats["drivers_done"] == shards and stats["inflight"] == 0,
        limit=warmup + duration + 300.0, step=5.0,
        what="open-loop drivers")

    throughput = hist.count / duration if duration > 0 else 0.0
    return OpenLoadPoint(
        arrival=getattr(arrivals(shard_rate), "name", "custom"),
        offered_rate=rate,
        observed_offered=stats["offered"] / duration if duration else 0.0,
        throughput=throughput,
        mean_ms=hist.mean() * 1e3,
        p50_ms=hist.percentile(50) * 1e3,
        p95_ms=hist.percentile(95) * 1e3,
        p99_ms=hist.percentile(99) * 1e3,
        ops=hist.count, errors=stats["errors"], shed=stats["shed"],
        n_users=n_users, active_users=users.active_users(),
        user_state_bytes=users.state_bytes())
