"""Deterministic cost gates: what one client operation costs the host.

ROADMAP aim 1: "deterministic counts get exact CI gates".  The paper's
read claim rests on a strong read being one client->leader round trip
plus one lookup; these tests pin what the *simulator* spends on it —
messages, kernel heap entries, routing digests, tracer calls — so a
change that adds a timer, a message or a hook to the hot path fails
here by name instead of showing up as a slower benchmark.

Counts are taken with ``sys.setprofile`` inside a *quiet window* of a
3-node cluster (no heartbeat, sweep or commit timer due), so every heap
push and message in the window belongs to the measured operations.

The garbage gates at the end pin what the profile hook cannot see: the
hot path leaves the cycle collector nothing to find, and a put leaves no
tracked object behind but the record, its LSN and the memtable rows.
"""

import gc
import hashlib
import sys
import types
import weakref
from collections import Counter
from heapq import heappush

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.commitqueue import PendingWrite
from repro.core.config import CORES_PER_NODE
from repro.core.messages import ClientGet, Propose
from repro.core.partition import CohortMap, key_of
from repro.core.replication import CohortReplica
from repro.sim.disk import DiskProfile
from repro.sim.events import Event, Simulator
from repro.sim.network import Network
from repro.sim.process import AllOf, Process, Timeout, drive, spawn
from repro.sim.resources import Charge
from repro.sim.rng import RngRegistry
from repro.storage.lsn import LSN
from repro.storage.memtable import Cell
from repro.storage.records import WriteRecord
from repro.storage.wal import SharedLog, _CohortView

KEYS = (b"gate-a", b"gate-b", b"gate-c")

#: Python functions whose calls the write gates count, by code object
COUNTED_CODE = {
    AllOf.__init__.__code__: "all_of",
    Cell.__init__.__code__: "cells",
    SharedLog._view.__code__: "log_views",
    SharedLog._last_lsn.__code__: "log_last_lsn",
    _CohortView.place.__code__: "log_places",
    SharedLog.is_skipped.__code__: "log_per_record",
    SharedLog.contains.__code__: "log_per_record",
    Process.__init__.__code__: "processes",
    Process._step.__code__: "steps",
    Timeout.__init__.__code__: "timeouts",
    CohortMap.locate.__code__: "locates",
    CohortReplica.is_leader.fget.__code__: "is_leader_calls",
    Event.__init__.__code__: "events",
}
#: waiting through an Event: counted when the caller is the protocol or
#: the log (``core/``, ``storage/``) — a process's own wait is not
EVENT_WAIT_CODE = {Event.succeed.__code__, Event.add_callback.__code__}
#: a commit-queue entry: counted apart when the queue is not a leader's
PENDING_WRITE_CODE = PendingWrite.__init__.__code__
#: the clock property: counted when the caller is the simulator's own
#: source (a workload reading the clock to time itself is not our cost)
NOW_CODE = Simulator.now.fget.__code__
#: the RPC layer, whose frames and table lookups the RPC gates count
NETWORK_FILE = "/sim/network.py"


def make_cluster():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log())
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=5)
    cluster.start()
    client = cluster.client("gate-client")

    def preload():
        for key in KEYS:            # also warms the client's leader cache
            yield from client.put(key, b"c", b"v0")
            yield from client.get(key, b"c", consistent=True)

    proc = spawn(cluster.sim, preload())
    cluster.run_until(lambda: proc.triggered, limit=30.0, what="preload")
    proc.result()
    return cluster, client


def quiet_window(cluster, need):
    """Advance until no background timer is due for ``need`` simulated
    seconds; returns the time the window closes."""
    sim = cluster.sim
    for _ in range(200):
        next_due = min(entry[0] for entry in sim._heap
                       if entry[3] is not None)
        if next_due - sim.now >= need:
            return next_due
        cluster.run(next_due - sim.now + 1e-4)
    raise AssertionError("no quiet window found")


def measure(cluster, gen, need):
    """Run ``gen`` as a process inside a quiet window under a profile
    hook; returns the tally of what the hot path did."""
    sim, net = cluster.sim, cluster.network
    closes = quiet_window(cluster, need)
    tally = Counter()
    leader_queues = {id(replica.queue) for node in cluster.nodes.values()
                     for replica in node.replicas.values()
                     if replica.role == Role.LEADER}

    def hook(frame, event, arg):
        if event == "c_call":
            if frame.f_code.co_filename.endswith(NETWORK_FILE) and (
                    arg is next or arg.__name__ in ("get", "pop")
                    and isinstance(arg.__self__, dict)):
                tally["network_lookups"] += 1
            if arg is heappush:
                tally["heap_entries"] += 1
            elif arg is hashlib.sha256:
                tally["digests"] += 1
            elif arg is len and frame.f_code.co_filename.endswith(
                    "/storage/records.py"):
                tally["record_size_lens"] += 1
            elif arg.__name__ == "send" and isinstance(
                    arg.__self__, types.GeneratorType):
                tally["generator_sends"] += 1
        elif event == "call":
            code = frame.f_code
            filename = code.co_filename
            if filename.endswith(NETWORK_FILE):
                tally["network_frames"] += 1
            if "/repro/obs/" in filename or filename.endswith(
                    "/sim/tracing.py"):
                tally["tracer_calls"] += 1
            elif code in COUNTED_CODE:
                tally[COUNTED_CODE[code]] += 1
            elif code is PENDING_WRITE_CODE:
                replica = frame.f_back.f_locals["self"]    # its _replicate
                tally["pending_writes" if id(replica.queue) in leader_queues
                      else "follower_pending_writes"] += 1
            elif code in EVENT_WAIT_CODE:
                caller = frame.f_back.f_code.co_filename
                if "/repro/core/" in caller or "/repro/storage/" in caller:
                    tally["event_waits_in_protocol"] += 1
            elif code is NOW_CODE and "/repro/" in (
                    frame.f_back.f_code.co_filename):
                tally["clock_reads"] += 1
            elif filename == "<string>" and code.co_name == "__init__":
                tally["generated_inits"] += 1   # dataclass machinery

    sent = net.messages_sent
    sys.setprofile(hook)
    try:
        proc = spawn(sim, gen)
        # To just short of the window's end: what an operation leaves
        # behind (the slower follower's ack) is still its cost.
        sim.run(until=closes - 1e-6)
    finally:
        sys.setprofile(None)
    assert proc.triggered, "ran out of the window"
    proc.result()
    for own in ("heap_entries", "processes", "steps", "generator_sends"):
        tally[own] -= 1                 # the measuring process's own start
    tally["messages"] = net.messages_sent - sent
    return tally


def test_strong_get_costs_two_messages_three_heap_entries_one_digest():
    cluster, client = make_cluster()
    key_of.cache_clear()

    def gets():
        for key in KEYS + KEYS:
            got = yield from client.get(key, b"c", consistent=True)
            assert got.value == b"v0"

    tally = measure(cluster, gets(), need=0.05)
    ops = 2 * len(KEYS)
    assert tally["messages"] == 2 * ops          # request + reply
    # request delivery, the handler's CPU charge, reply delivery — no
    # timer per RPC, no heap entry to start the handler
    assert tally["heap_entries"] == 3 * ops
    # only the client routes by key (memoised: one digest per distinct
    # key); the server takes the cohort from the request's stamp
    assert tally["digests"] == len(KEYS)
    assert tally["tracer_calls"] == 0            # untraced: obs costs nothing


def test_timeline_get_costs_two_messages_three_heap_entries_one_digest():
    """A timeline get costs what a strong one does: counting the client's
    reads in flight per replica, to pick the least loaded, is a dict
    update on each side of the send — no timer, event or message."""
    cluster, client = make_cluster()
    cluster.run(1.0)                # the followers learn the commit
    key_of.cache_clear()

    def gets():
        for key in KEYS + KEYS:
            got = yield from client.get(key, b"c", consistent=False)
            assert got.value == b"v0"
        assert not any(client._reads_in_flight.values())

    tally = measure(cluster, gets(), need=0.05)
    ops = 2 * len(KEYS)
    assert tally["messages"] == 2 * ops          # request + reply
    assert tally["heap_entries"] == 3 * ops
    assert tally["digests"] == len(KEYS)
    assert tally["processes"] == 0
    assert tally["timeouts"] == 0
    assert tally["generator_sends"] == tally["steps"] == ops
    assert tally["tracer_calls"] == 0


def test_a_strong_get_is_handled_by_functions_not_a_process():
    """The leader answers without a Process, a Timeout or a generator:
    the one generator resumed per get is the client thread's own, woken
    by the reply (the handler used to cost a Process, a Timeout, two
    generators and 3.2 steps to wait once for a core)."""
    cluster, client = make_cluster()

    def gets():
        for key in KEYS + KEYS:
            yield from client.get(key, b"c", consistent=True)

    tally = measure(cluster, gets(), need=0.05)
    ops = 2 * len(KEYS)
    assert tally["processes"] == 0
    assert tally["timeouts"] == 0
    assert tally["generator_sends"] == tally["steps"] == ops


def test_a_strong_get_is_routed_once_and_reads_where_it_used_to_call():
    """The client locates the key; its stamp (cohort, map version) is
    the server's routing while the versions agree, on arrival and again
    after the CPU slice — 3 locates per get before.  And what a read
    will do costs no call: the role is compared, not asked through the
    ``is_leader`` property (2 calls), and the clock is read once per
    client call (3 reads from ``src/`` before: two by the client, one
    by the handler for a trace nobody was taking)."""
    cluster, client = make_cluster()

    def gets():
        for key in KEYS + KEYS:
            yield from client.get(key, b"c", consistent=True)

    tally = measure(cluster, gets(), need=0.05)
    ops = 2 * len(KEYS)
    assert tally["locates"] == ops
    assert tally["is_leader_calls"] == 0
    assert tally["clock_reads"] <= ops


PUTS = 4


def put_tally():
    cluster, client = make_cluster()

    def puts():
        for i in range(PUTS):
            yield from client.put(KEYS[i % len(KEYS)], b"c", b"v%d" % i)

    return measure(cluster, puts(), need=0.05)


def test_strong_put_cost_is_pinned():
    tally = put_tally()
    # client->leader, 2 proposes, 2 acks, leader->client
    assert tally["messages"] == 6 * PUTS
    # those 6 deliveries, plus a CPU charge and a log force at the
    # leader and at each of the 2 followers
    assert tally["heap_entries"] == 12 * PUTS
    assert tally["tracer_calls"] == 0


def test_a_put_completes_through_continuations_not_events():
    """The leader's commit wait, its batched force, each follower's
    force and each propose's reply call the next step directly: the one
    Event per put is the client's own request, which its thread yields
    (seven before: those six waits were Events too), and nothing in the
    protocol or the log succeeds or waits on an Event.  A strong get is
    the client's request alone, as before."""
    tally = put_tally()
    assert tally["events"] == PUTS
    assert tally["event_waits_in_protocol"] == 0
    cluster, client = make_cluster()

    def gets():
        for key in KEYS + KEYS:
            yield from client.get(key, b"c", consistent=True)

    tally = measure(cluster, gets(), need=0.05)
    assert tally["events"] == 2 * len(KEYS)
    assert tally["event_waits_in_protocol"] == 0


def test_a_put_is_routed_once():
    """Dispatch and the post-CPU ownership re-check take the client's
    stamp while the layout version stands (3 locates per put before)."""
    assert put_tally()["locates"] == PUTS


def test_a_put_is_handled_by_functions_not_processes():
    """Leader and followers alike: the write, its two proposes and their
    acks start no Process, and the only process stepped is the client
    thread, once per reply (three Processes per put here, one a
    handler, when the handlers were generators)."""
    tally = put_tally()
    assert tally["processes"] == 0
    assert tally["steps"] <= 1.05 * PUTS


def test_value_types_are_built_without_dataclass_machinery():
    """Messages, records and results are slotted value types whose
    ``__init__`` stores through the slot descriptors and is compiled
    under the declaring module (``repro.values``): no call into a
    dataclass-generated ``__init__`` per get or put.  There were 2 per
    get (``ClientGet``, ``GetResult``) and 7 per put (``WriteOp``,
    ``ClientWrite``, ``WriteRecord``, ``Propose``, two ``Ack``s,
    ``PutResult``), each an ``object.__setattr__`` per field."""
    cluster, client = make_cluster()

    def gets():
        for key in KEYS + KEYS:
            yield from client.get(key, b"c", consistent=True)

    assert measure(cluster, gets(), need=0.05)["generated_inits"] == 0
    assert put_tally()["generated_inits"] == 0


# The write fast path: per put, one record on three replicas.

def test_a_record_is_sized_once():
    """The lengths of key, column and value are taken where the record
    is built — not again in the leader's force, the propose fan-out and
    each of the three logs."""
    assert put_tally()["record_size_lens"] == 3 * PUTS


def test_a_follower_waits_on_its_one_force_directly():
    """Logging a propose hands the ack to its force: no composite wait
    is built around the forces."""
    assert put_tally()["all_of"] == 0


def test_a_committed_record_is_its_own_cell():
    """The leader's apply is inside the window (the followers' waits
    for the commit timer): it copies nothing."""
    assert put_tally()["cells"] == 0


def test_the_log_is_consulted_per_propose_not_per_record():
    tally = put_tally()
    assert tally["log_per_record"] == 0
    # the leader's batch append and each follower's one append on
    # arrival resolve their cohort view once (a follower used to four
    # times: what is missing, the skipped list, n.lst and the append)
    assert tally["log_views"] == (1 + 2 * 1) * PUTS
    # n.lst is walked once, for the leader's batch: a follower's propose
    # on top of its tail with nothing skipped is checked against the
    # tail (one walk each before, two before that), and the leader takes
    # the propose's ``prev`` from the top of its last one, not its log
    assert tally["log_last_lsn"] == 1 * PUTS
    # and every record lands at the tail as two list appends: no
    # ``place`` frame, no LSN -> seq dict (3 per put before: one a log)
    assert tally["log_places"] == 0


def test_a_follower_keeps_no_second_copy_of_a_propose():
    """Its commit queue is its log above f.cmt: of the three replicas
    only the leader builds a ``PendingWrite`` per put (each follower
    queued one too)."""
    tally = put_tally()
    assert tally["pending_writes"] == PUTS
    assert tally["follower_pending_writes"] == 0


def test_a_write_group_is_tracked_without_a_closure():
    """The leader's one entry per write group holds its continuation:
    ``_replicate`` builds no function per write (a closure counted the
    group's records down to ``then()``)."""
    assert not [const for const in CohortReplica._replicate.__code__.co_consts
                if isinstance(const, types.CodeType)]


def test_a_takeover_batch_is_one_pending_write():
    """A new leader re-proposes its uncommitted tail in batches: one
    ``PendingWrite`` per batch of k records (k, one per record, when the
    queue kept an entry per record)."""
    k = 6
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=30.0)
    assert k <= cfg.propose_batch_max_records
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=5)
    cluster.start()
    cluster.run(2.0)
    leader = cluster.leader_of(0)
    client = cluster.client("gate-client")
    keys = cluster.keys_in_cohort(0, k, b"tail-")

    def puts():
        for key in keys:
            yield from client.put(key, b"c", b"v")

    drive(cluster, puts(), limit=30.0)
    built = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is PENDING_WRITE_CODE:
            records = frame.f_locals["records"]
            if records[0].cohort_id == 0:
                built.append(len(records))

    cluster.kill_leader(0)
    sys.setprofile(hook)
    try:
        cluster.run_until(lambda: cluster.leader_of(0) not in (None, leader)
                          and cluster.replica(cluster.leader_of(0),
                                              0).open_for_writes,
                          limit=30.0, what="takeover")
    finally:
        sys.setprofile(None)
    assert built == [k]


def test_proposes_queued_behind_a_saturated_follower_cost_one_charge():
    """Receive-side batching: with every core of a follower busy, N
    proposes from its leader queue as one CPU slice — one ``Charge``,
    lengthened per record — not N (one each before)."""
    class Spy:
        def __init__(self, src, payload):
            self.src, self.payload = src, payload

        def respond(self, value, size=0):
            pass

    cluster, _ = make_cluster()
    leader = cluster.replica(cluster.leader_of(0), 0)
    follower = cluster.replica(leader.peers()[0], 0)
    node = follower.node
    for _ in range(CORES_PER_NODE):
        node._dispatch(Spy("spy", ClientGet(key=KEYS[0], colname=b"c",
                                            consistent=False)))
    n = 6
    prev = node.wal.last_lsn(0)
    reqs = []
    for i in range(n):
        record = WriteRecord(lsn=LSN(follower.epoch, prev.seq + 1),
                             cohort_id=0, key=b"q%d" % i, colname=b"c",
                             value=b"v", version=1)
        reqs.append(Spy(leader.node.name, Propose(
            cohort_id=0, epoch=follower.epoch, records=(record,),
            prev=prev)))
        prev = record.lsn
    charges = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is Charge.__init__.__code__:
            charges["built"] += 1

    sys.setprofile(hook)
    try:
        for req in reqs:
            node._dispatch(req)
    finally:
        sys.setprofile(None)
    assert charges["built"] == 1
    assert node.cpu.queue_length == 1


def concurrent_write_tally(writers=48, puts=8):
    """``writers`` closed-loop clients, ``puts`` each, on a 3-node
    memory-log cluster: the proposes built (all by leaders, one per
    ``Propose``), the proposes the followers handled and the CPU slices
    they ran for them (a ``Charge`` whose continuation is
    ``_log_propose``)."""
    cfg = SpinnakerConfig(log_profile=DiskProfile.memory_log())
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=5)
    cluster.start()
    cluster.run(2.0)
    tally = Counter()
    propose_init = Propose.__init__.__code__
    charge_init = Charge.__init__.__code__
    log_propose = CohortReplica._log_propose

    def hook(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is propose_init:
            tally["proposes"] += 1
        elif frame.f_code is charge_init:
            # NodeHost.charge: Charge(cpu, t, _resume, incarnation, then, args)
            args = frame.f_locals["args"]
            if len(args) == 3 and getattr(args[1], "__func__",
                                          None) is log_propose:
                tally["follower_slices"] += 1

    def writer(w):
        client = cluster.client(f"writer{w}")
        for i in range(puts):
            yield from client.put(b"cw%d-%d" % (w, i), b"c", b"v" * 64)

    handled = sum(r.proposes_handled for node in cluster.nodes.values()
                  for r in node.replicas.values())
    sys.setprofile(hook)
    try:
        procs = [spawn(cluster.sim, writer(w)) for w in range(writers)]
        cluster.run_until(lambda: all(p.triggered for p in procs),
                          limit=60.0, what="the writers")
    finally:
        sys.setprofile(None)
    for proc in procs:
        proc.result()
    tally["puts"] = writers * puts
    tally["handled"] = sum(r.proposes_handled
                           for node in cluster.nodes.values()
                           for r in node.replicas.values()) - handled
    assert cluster.all_failures() == []
    return tally


def test_a_leader_proposes_each_write_group_at_once_and_followers_fold():
    """Under 48 concurrent writers the leader still sends exactly one
    ``Propose`` per write group — no hold for company (the batch hold
    sent fewer, folding groups at the leader) — to each of two peers,
    and the followers fold the proposes queued behind their busy cores:
    fewer CPU slices than proposes handled."""
    tally = concurrent_write_tally()
    assert tally["proposes"] == tally["puts"] == 384
    assert tally["handled"] == 2 * tally["puts"]
    # 768 slices, one per propose, if the followers stopped folding
    assert tally["follower_slices"] == 370


def test_an_rpc_keeps_no_pending_table():
    """A request carries its continuation, its caller and the caller's
    incarnation, so its reply goes straight to the continuation: per
    round trip ``request``, the request's init, delivery and
    ``respond``, the reply's init and delivery, two ``_transmit``s — 8
    frames of ``sim/network.py`` (9 with ``_on_reply``) — and three dict
    lookups, the two FIFO clamps and the request's endpoint (6 with a
    request id drawn, parked and popped and the reply's endpoint looked
    up by name).  A strong get is one round trip, a put three."""
    cluster, client = make_cluster()

    def gets():
        for key in KEYS + KEYS:
            yield from client.get(key, b"c", consistent=True)

    ops = 2 * len(KEYS)
    tally = measure(cluster, gets(), need=0.05)
    assert tally["network_frames"] == 8 * ops
    assert tally["network_lookups"] == 3 * ops
    tally = put_tally()
    assert tally["network_frames"] == 24 * PUTS
    assert tally["network_lookups"] == 9 * PUTS


def test_answered_rpcs_leave_nothing_in_the_kernel_heap():
    """5,000 answered RPCs, each with a 2 s timeout: the kernel heap
    holds in-flight work plus one armed deadline per endpoint — not
    5,000 cancelled timers waiting out their 2 s (the parent's count)."""
    sim = Simulator()
    net = Network(sim, RngRegistry(11))
    server = net.endpoint("server")
    server.on_request(lambda req: req.respond(req.payload, size=64))
    clients, per_client = 8, 625
    peak = [0]

    def caller(endpoint):
        for i in range(per_client):
            assert (yield endpoint.request("server", i, size=64,
                                           timeout=2.0)) == i
            peak[0] = max(peak[0], len(sim._heap))

    procs = [spawn(sim, caller(net.endpoint(f"c{i}")))
             for i in range(clients)]
    sim.run(until=1.9)          # every timeout still in the future
    assert all(p.triggered for p in procs)
    # one message in flight per caller, one deadline per calling endpoint
    assert peak[0] <= 2 * clients
    assert len([e for e in sim._heap if e[3] is not None]) == 0
    assert len(sim._heap) <= clients


# The garbage-free hot path: reference counting frees everything.

def test_the_hot_path_leaves_the_cycle_collector_nothing_to_find():
    """200 strong gets + 200 puts (and the heartbeats, sweeps and commit
    timers due meanwhile) with the collector off: a collection afterwards
    finds no unreachable object.  Each Timeout used to cost three — itself,
    its heap entry and the bound ``_fire`` — through a slot nobody read."""
    cluster, client = make_cluster()

    def load(n):
        for i in range(n):
            yield from client.get(KEYS[i % len(KEYS)], b"c", consistent=True)
        for i in range(n):
            yield from client.put(KEYS[i % len(KEYS)], b"c", b"v%d" % i)

    drive(cluster, load(20), limit=60.0)    # warm-up: caches, first rows
    gc.collect()
    gc.disable()
    try:
        drive(cluster, load(200), limit=60.0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_fired_timeout_is_freed_one_kernel_step_later():
    """Nothing but the heap holds a Timeout's entry, so the run loop
    dropping the popped entry frees the Timeout by reference count."""
    assert not hasattr(Timeout, "__weakref__")      # and must not grow one

    class Watched(Timeout):
        __slots__ = ("__weakref__",)

    sim = Simulator()
    gone = []
    gc.disable()
    try:
        ref = weakref.ref(Watched(sim, 1.0))
        sim.schedule(1.0, lambda: gone.append(ref() is None))  # next step
        sim.run()
    finally:
        gc.enable()
    assert gone == [True]


def test_a_put_leaves_behind_the_record_its_lsn_and_the_rows():
    """New GC-tracked objects alive after N puts of new rows on three
    replicas: one WriteRecord and one LSN (shared by the three logs) and
    a memtable row dict per replica, 5 N — no wrapper per log record
    (the logs used to add three per put: 8.1 N here) and no instance
    dict per record (a frozen dataclass's fields lived in one, tracked
    on Python 3.9: 6 N there).  The constant is the run's own few dozen
    objects (weakrefs, bound methods, commit markers)."""
    cluster, client = make_cluster()

    def puts(lo, hi):
        for i in range(lo, hi):
            yield from client.put(b"row-%d" % i, b"c", b"v")

    def tracked():
        cluster.run(1.0)                    # followers apply the commits
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.get_objects())

    drive(cluster, puts(0, 50), limit=60.0)
    before = tracked()
    n = 300
    drive(cluster, puts(1000, 1000 + n), limit=60.0)
    grown = tracked() - before
    assert sum(grown.values()) <= 5 * n + 100
    assert grown["WriteRecord"] == grown["LSN"] == n
    assert ({name for name, count in grown.items() if count >= n}
            <= {"WriteRecord", "LSN", "dict"})


def test_client_calls_hand_back_the_call_generator_itself():
    """``yield from client.put(...)`` resumes ``_call`` directly: no
    ``put`` -> ``_write`` -> ``_call`` stack of forwarding frames."""
    _, client = make_cluster()
    for gen in (client.get(KEYS[0], b"c"), client.put(KEYS[0], b"c", b"v"),
                client.delete(KEYS[0], b"c"),
                client.conditional_put(KEYS[0], b"c", b"v", 1),
                client.put_columns(KEYS[0], {b"c": b"v"})):
        assert isinstance(gen, types.GeneratorType)
        assert gen.gi_code.co_name == "_call"


BASELINE_OPS = 100


def baseline_processes_per_op(monkeypatch, kind, consistency):
    """``Process`` constructions per baseline operation: ``BASELINE_OPS``
    operations of one kind, one after another, from a client of a
    5-node cluster."""
    from repro.baseline import CassandraCluster

    cluster = CassandraCluster(n_nodes=5, seed=1)
    client = cluster.client()

    def ops():
        for i in range(BASELINE_OPS):
            key = b"base-%d" % (i % 10)
            if kind == "write":
                yield from client.write(key, b"c", b"v%d" % i,
                                        consistency=consistency)
            else:
                yield from client.read(key, b"c", consistency=consistency)

    proc = spawn(cluster.sim, ops())        # the measuring process
    made = Counter()
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        made["processes"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    cluster.run_until(lambda: proc.triggered, limit=60.0, what="ops")
    proc.result()
    assert cluster.all_failures() == []
    return made["processes"] / BASELINE_OPS


def test_a_baseline_operation_is_handled_by_functions_not_processes(
        monkeypatch):
    """The Cassandra baseline runs on Spinnaker's node host, and its
    handlers are functions as Spinnaker's are: a quorum write, a quorum
    read and a weak read start no Process (5, 4 and 1 when each handler,
    local apply, remote-read loop and hint watch was one).  The hint
    replayer, one per node, is the baseline's only process."""
    from repro.baseline import QUORUM, WEAK

    assert baseline_processes_per_op(monkeypatch, "write", QUORUM) == 0
    assert baseline_processes_per_op(monkeypatch, "read", QUORUM) == 0
    assert baseline_processes_per_op(monkeypatch, "read", WEAK) == 0


COORD_OPS = 50


def coordination_processes_per_request(monkeypatch):
    """``Process`` constructions per coordination request: a create,
    then ``COORD_OPS`` set-and-get pairs from one started client."""
    from repro.coord.client import CoordClient
    from repro.coord.service import CoordinationService

    sim = Simulator()
    net = Network(sim, RngRegistry(23))
    CoordinationService(sim, net)
    client = CoordClient(sim, net.endpoint("node0"))
    started = spawn(sim, client.start())
    sim.run(until=1.0)
    started.result()

    def ops():
        yield from client.create("/gate")
        for i in range(COORD_OPS):
            yield from client.set_data("/gate", b"v%d" % i)
            yield from client.get("/gate")

    proc = spawn(sim, ops())                # the measuring process
    made = Counter()
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        made["processes"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    sim.run(until=sim.now + 30.0)
    proc.result()
    return made["processes"] / (1 + 2 * COORD_OPS)


def test_a_coordination_request_is_handled_by_a_function_not_a_process(
        monkeypatch):
    """The coordination service parks each request on its CPU as a
    ``Charge`` whose continuation applies it and replies: no Process
    per request (one when each request was a process running
    ``serve``)."""
    assert coordination_processes_per_request(monkeypatch) == 0


def test_steady_state_gets_and_puts_make_no_coordination_call():
    """The coordination service is off the data path (§4.2): strong
    gets and puts over several heartbeat intervals make no coordination
    call, and every heartbeat ack's counts match what its node saw, so
    no session ends."""
    cluster, client = make_cluster()
    service = cluster.coord
    timeout = cluster.config.session_timeout

    def calls():
        return sum(info["recv"] for info in service._sessions.values())

    before, expired = calls(), service.expired_sessions
    began = cluster.sim.now

    def ops():
        i = 0
        while cluster.sim.now - began < 2 * timeout:
            key = KEYS[i % len(KEYS)]
            yield from client.put(key, b"c", b"s%d" % i)
            yield from client.get(key, b"c", consistent=True)
            i += 1
        return i

    proc = spawn(cluster.sim, ops())
    cluster.run_until(lambda: proc.triggered, limit=30.0, what="ops")
    assert proc.result() > 100
    assert calls() == before
    assert service.expired_sessions == expired
    assert [node.session_losses for node in cluster.nodes.values()] == [0] * 3


def election_requests(cluster, cohort_id):
    """Kill the cohort's leader and count the coordination requests
    (heartbeats aside) and the updates among them that each node sends,
    until the cohort is open again and its monitors are back on their
    ``leader`` watches.  Returns the victim and the counts by node."""
    service = cluster.coord
    sent = {}
    inner = service._on_request

    def counting(req):
        op = req.payload.get("op")
        if op != "heartbeat":
            tally = sent.setdefault(req.src, Counter())
            tally["requests"] += 1
            tally["updates"] += op in ("create", "delete", "set")
        inner(req)

    service.endpoint.on_request(counting)
    victim = cluster.kill_leader(cohort_id)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=10.0, what="failover")
    cluster.run(1.0)
    return victim, sent


def test_an_election_costs_the_winner_three_updates_and_a_follower_one():
    """§7.2's argument needs an announcement from each candidate, the
    ``leader`` create and the epoch bump: 3 updates for the winner, 1
    for the follower.  Each sends its monitor's ``leader`` get, the
    round's epoch get, the ``children`` read that finds no leader before
    it announces, and the ``children`` read that names the winner; the
    winner then claims and bumps, and the follower reads the round once
    more when ``leader`` appears; each monitor's last ``leader`` get
    re-arms its watch."""
    cluster, _client = make_cluster()
    victim, sent = election_requests(cluster, 0)
    winner = cluster.leader_of(0)
    follower, = set(cluster.partitioner.cohort(0).members) - {victim,
                                                              winner}
    assert set(sent) == {winner, follower}
    assert sent[winner] == {"requests": 8, "updates": 3}
    assert sent[follower] == {"requests": 7, "updates": 1}
