"""Simulator-kernel overhead guard.

Everything the repo measures rides on the discrete-event kernel, so a
slow kernel silently inflates every benchmark's wall time.  Two guards:

* the hot per-event classes stay ``__slots__``-only (an accidental
  ``__dict__`` costs both memory and attribute-lookup time on millions
  of instances);
* a microbenchmark drives the raw scheduler, the full process /
  timeout machinery, the RPC round trip, the replicated put and the
  strong get,
  asserting per-second floors generous enough to pass on slow CI but
  far below healthy numbers — a 10x kernel regression fails loudly, a
  10% one shows up in the benchmark history.
"""

import time

from repro.bench.openloop import (BurstyArrivals, DiurnalArrivals,
                                  MuxedUsers, PoissonArrivals)
from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.commitqueue import PendingWrite
from repro.core.datamodel import GetResult, PutResult
from repro.core.messages import Ack, ClientGet, ClientWrite, Propose, WriteOp
from repro.obs.trace import Span, TraceContext
from repro.sim.disk import DiskProfile
from repro.sim.events import Event, Simulator
from repro.sim.metrics import Histogram
from repro.sim.network import Network, Reply, Request
from repro.sim.process import (Process, Supervisor, Timeout, drive,
                               spawn, timeout)
from repro.sim.resources import Charge
from repro.sim.rng import RngRegistry
from repro.storage.records import WriteRecord

#: classes instantiated once (or more) per simulated event/message/write,
#: the value types built per get and put, plus the open-loop generator
#: state touched on every arrival (heap entries are plain lists and a
#: log holds the records themselves — nothing to guard)
HOT_CLASSES = [Event, Process, Timeout, Request, Reply, Supervisor, Charge,
               PendingWrite, Span, TraceContext,
               ClientGet, ClientWrite, WriteOp, WriteRecord, Propose, Ack,
               GetResult, PutResult,
               PoissonArrivals, BurstyArrivals, DiurnalArrivals,
               MuxedUsers]

# Floors in events per wall-clock second, set at ~50% of the rates
# measured after the list-entry/lazy-cancel/timeout-fast-path kernel
# rewrite (raw 2.27M ev/s, process+timeout 584K ev/s, percentile 827K
# calls/s on the reference box) — high enough to lock the rewrite's
# gains in (the pre-rewrite kernel ran process+timeout at 208K ev/s,
# well under PROCESS_FLOOR), low enough to absorb slow CI.
RAW_FLOOR = 1_100_000
PROCESS_FLOOR = 290_000
# RPC round trips per second (request -> inline-started handler ->
# respond -> reply, a 2 s timeout on every call): 55-85K (median 59K
# over 15 runs) on the reference box with one deadline queue per
# endpoint; the per-RPC schedule/cancel and heap-started handler it
# replaced ran 32-51K (median 35K) in the same session.  With no
# pending table (the request holds its continuation, the reply hands
# it over): 74-125K, median 80K over 9 runs on a shared 2-vCPU VM where
# the parent ran 70-97K over 3.
RPC_FLOOR = 40_000
# Replicated puts per second (3 nodes, memory log, 16 writers through
# ``SpinnakerClient.put``: client -> leader, force || 2 proposes, 2
# acks, commit, reply): 8.2-8.7K over 5 runs on the reference box with
# the write fast path; the write path it replaced ran 6.0-7.2K in the
# same session.  With slotted value types (no dataclass-generated
# ``__init__`` per message, record or result) 11.0-11.6K over 4 runs
# on a 2-vCPU VM where the parent ran 10.8-11.2K.  With a put's waits
# continuations, not Events: median 12.3K over 7 runs on a shared
# 2-vCPU VM (one outlier at 8.9K), the parent 12.1K in the same session.
# With a follower's log as its commit queue (no follower PendingWrite,
# one log call per propose): 13.4-13.7K over 3 runs on a 2-vCPU VM, the
# parent 10.3-12.1K alternating with it.  With no LSN index in the log
# (two list appends per record): 11.1-14.6K over 3 runs on a shared
# 2-vCPU VM, the parent 13.7-14.1K alternating with it.
WRITE_FLOOR = 7_000
# Strong gets per second (3 nodes, 16 readers through
# ``SpinnakerClient.get``: client -> leader, one CPU charge, one lookup,
# reply — handled by functions, no process): 57-64K over 10 runs on
# the reference box; with the handler a generator process the same
# gets ran 47-49K in the same session.  Routed once (the request
# carries its cohort and map version: 1 key locate per get, not 3) the
# same gets run 9-10 % faster — 58-60K against 54-56K on a slower,
# shared box (CPU time, best of 3, six alternating pairs).  As value
# types: 85.6-87.4K over 4 runs on a 2-vCPU VM (the parent 66-79K).
# With no RPC pending table: 54-95K, median 59K over 9 runs on a slower
# shared 2-vCPU VM (the parent 53-66K over 3) — half of that is under
# this floor, which stays.
GET_FLOOR = 43_000
PERCENTILE_FLOOR = 400_000


def test_hot_classes_have_no_dict():
    for cls in HOT_CLASSES:
        offenders = [c.__name__ for c in cls.__mro__
                     if "__dict__" in c.__dict__]
        assert not offenders, (
            f"{cls.__name__} instances grew a __dict__ via {offenders}; "
            f"keep the per-event hot path __slots__-only")


def _pump_callbacks(n):
    """n self-rescheduling raw callbacks through the event heap."""
    sim = Simulator()
    state = {"left": n}

    def tick():
        if state["left"] > 0:
            state["left"] -= 1
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


def _pump_processes(n, n_procs=16):
    """n timeout yields spread over concurrent generator processes."""
    sim = Simulator()
    per_proc = n // n_procs

    def proc():
        for _ in range(per_proc):
            yield timeout(sim, 1e-6)

    for _ in range(n_procs):
        spawn(sim, proc())
    start = time.perf_counter()
    sim.run()
    return (per_proc * n_procs) / (time.perf_counter() - start)


def _pump_rpcs(n, n_callers=16):
    """n request/reply round trips, every one carrying a timeout, the
    handler started the way a node's dispatch starts it."""
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    supervisor = Supervisor(sim, "server")

    def handle(req):
        yield timeout(sim, 1e-5)        # a CPU charge, as every handler has
        req.respond(req.payload, size=64)

    net.endpoint("server").on_request(
        lambda req: supervisor.spawn(handle(req), "h", inline=True))
    per_caller = n // n_callers

    def caller(endpoint):
        for i in range(per_caller):
            yield endpoint.request("server", i, size=64, timeout=2.0)

    for c in range(n_callers):
        spawn(sim, caller(net.endpoint(f"client{c % 4}")))
    start = time.perf_counter()
    sim.run()
    assert not supervisor.failures
    return (per_caller * n_callers) / (time.perf_counter() - start)


def _pump_puts(n, n_writers=16):
    """n replicated 1 KB puts to fresh keys on a 3-node cluster whose
    log forces cost microseconds, so host time is the write path's."""
    cluster = SpinnakerCluster(
        n_nodes=3, seed=1,
        config=SpinnakerConfig(log_profile=DiskProfile.memory_log()))
    cluster.start()
    per_writer = n // n_writers
    value = b"v" * 1024

    def writer(w):
        client = cluster.client(f"writer{w}")
        for i in range(per_writer):
            yield from client.put(b"w%d-%d" % (w, i), b"c", value)

    procs = [spawn(cluster.sim, writer(w)) for w in range(n_writers)]
    start = time.perf_counter()
    cluster.run_until(lambda: all(p.triggered for p in procs),
                      limit=600.0, step=1.0, what="puts")
    elapsed = time.perf_counter() - start
    for proc in procs:
        proc.result()
    assert not cluster.all_failures()
    return (per_writer * n_writers) / elapsed


def _pump_gets(n, n_readers=16):
    """n strong gets of preloaded keys on a 3-node cluster: nothing but
    routing, the RPC round trip and the leader's handler."""
    cluster = SpinnakerCluster(
        n_nodes=3, seed=1,
        config=SpinnakerConfig(log_profile=DiskProfile.memory_log()))
    cluster.start()
    keys = [b"r%d" % i for i in range(64)]
    loader = cluster.client("loader")

    def preload():
        for key in keys:
            yield from loader.put(key, b"c", b"v" * 1024)

    drive(cluster, preload(), limit=600.0)
    per_reader = n // n_readers

    def reader(r):
        client = cluster.client(f"reader{r}")
        for i in range(per_reader):
            got = yield from client.get(keys[(r + i) % len(keys)], b"c",
                                        consistent=True)
            assert got.version == 1

    procs = [spawn(cluster.sim, reader(r)) for r in range(n_readers)]
    start = time.perf_counter()
    cluster.run_until(lambda: all(p.triggered for p in procs),
                      limit=600.0, step=1.0, what="gets")
    elapsed = time.perf_counter() - start
    for proc in procs:
        proc.result()
    assert not cluster.all_failures()
    return (per_reader * n_readers) / elapsed


def test_raw_event_loop_throughput(benchmark):
    rate = benchmark.pedantic(lambda: _pump_callbacks(200_000),
                              rounds=1, iterations=1)
    print(f"\nraw scheduler: {rate:,.0f} events/s")
    assert rate >= RAW_FLOOR, (
        f"raw event loop at {rate:,.0f} events/s "
        f"(floor {RAW_FLOOR:,})")


def test_process_machinery_throughput(benchmark):
    rate = benchmark.pedantic(lambda: _pump_processes(100_000),
                              rounds=1, iterations=1)
    print(f"\nprocess+timeout: {rate:,.0f} events/s")
    assert rate >= PROCESS_FLOOR, (
        f"process machinery at {rate:,.0f} events/s "
        f"(floor {PROCESS_FLOOR:,})")


def test_rpc_round_trip_throughput(benchmark):
    rate = benchmark.pedantic(lambda: _pump_rpcs(50_000),
                              rounds=1, iterations=1)
    print(f"\nrpc round trip: {rate:,.0f} calls/s")
    assert rate >= RPC_FLOOR, (
        f"RPC round trip at {rate:,.0f} calls/s (floor {RPC_FLOOR:,})")


def test_replicated_put_throughput(benchmark):
    rate = benchmark.pedantic(lambda: _pump_puts(8_000),
                              rounds=1, iterations=1)
    print(f"\nreplicated put: {rate:,.0f} puts/s")
    assert rate >= WRITE_FLOOR, (
        f"replicated put at {rate:,.0f} puts/s (floor {WRITE_FLOOR:,})")


def test_strong_get_throughput(benchmark):
    rate = benchmark.pedantic(lambda: _pump_gets(32_000),
                              rounds=1, iterations=1)
    print(f"\nstrong get: {rate:,.0f} gets/s")
    assert rate >= GET_FLOOR, (
        f"strong get at {rate:,.0f} gets/s (floor {GET_FLOOR:,})")


def _pump_percentiles(samples, calls):
    """Repeated percentile reads over a fixed sample set — the phase
    aggregator's access pattern (many percentile calls per histogram,
    no adds in between).  The cached sorted view makes each call O(1);
    an implementation that re-sorts per call is ~1000x under the floor
    at this sample count."""
    hist = Histogram()
    for i in range(samples):
        hist.add(((i * 2654435761) % samples) / samples)
    start = time.perf_counter()
    for i in range(calls):
        hist.percentile(float(i % 100))
    return calls / (time.perf_counter() - start)


def test_percentile_calls_use_cached_sort(benchmark):
    rate = benchmark.pedantic(
        lambda: _pump_percentiles(samples=50_000, calls=5_000),
        rounds=1, iterations=1)
    print(f"\nhistogram percentile: {rate:,.0f} calls/s")
    assert rate >= PERCENTILE_FLOOR, (
        f"Histogram.percentile at {rate:,.0f} calls/s "
        f"(floor {PERCENTILE_FLOOR:,}); is the sorted view cached?")
