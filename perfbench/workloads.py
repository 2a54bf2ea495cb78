"""The four perfbench workloads: cluster set-up, load generators, checks.

Each workload is a :class:`Workload` with three hooks the runner calls in
order: ``build`` (cluster + boot + preload through the client API — the
part charged to ``setup_s``), ``start`` (spawn the generator processes and
return the :class:`Load` they record into), and ``Load.wrap_up``
(correctness gates, run after the timed region).  The generators drive the
system only through its public surfaces; see ``README.md`` for why each
workload exists and which optimisation it must *not* reward.

Everything random derives from ``seed``: it is the cluster seed (network
jitter, disk latencies, client back-off) and, through
``cluster.rng.fork("perfbench")``, the key choices and arrival streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.chaos import FaultEvent, InvariantAuditor, arm_schedule
from repro.core import (DatastoreError, HistoryRecorder, Role,
                        SpinnakerCluster, SpinnakerConfig,
                        check_strong_history, key_of)
from repro.sim import DiskProfile, spawn, timeout

VALUE_SIZE = 4096          # the paper uses 4 KB values everywhere
COLUMN = b"v"
CLIENT_NODES = 10          # the paper drove load from a 10-node client rack
PRELOAD_ROWS = 2000
WARMUP_OPS = 10            # per closed-loop thread, executed but unmeasured
OPEN_WARMUP_S = 0.25       # simulated seconds of unmeasured open-loop load
INFLIGHT_CAP = 512         # open-loop arrivals beyond this are shed
SLO_P99_MS = 10.0
LADDER_RATES = (8000, 12000, 14000, 16000, 18000)


class Load:
    """What one run of a generator leaves behind."""

    def __init__(self, cluster: SpinnakerCluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.clients = [cluster.client(f"bclient{i}")
                        for i in range(CLIENT_NODES)]
        self.read_lat: List[float] = []
        self.write_lat: List[float] = []
        #: measured operations offered (shed arrivals included) and the
        #: ones among them that were shed, timed out or answered wrongly
        self.attempted = 0
        self.failed = 0
        self.shed = 0
        #: operations completed in the timed region, warm-up included —
        #: the denominator of every per-op host and layer figure
        self.executed = 0
        self.writes = 0
        self.first_due: Optional[float] = None
        self.last_done = 0.0
        #: generator processes and operations still running
        self.active = 0
        self.problems: List[str] = []
        self.extras: Dict[str, float] = {}
        #: run after the timed region: fills ``extras`` and returns the
        #: workload's correctness failures
        self.wrap_up: Callable[[], List[str]] = list

    def done(self) -> bool:
        return self.active == 0

    def offer(self, due: float, measured: bool) -> None:
        if measured:
            self.attempted += 1
            if self.first_due is None:
                self.first_due = due

    def complete(self, is_write: bool, due: float, measured: bool) -> None:
        self.executed += 1
        self.writes += is_write
        if measured:
            now = self.sim.now
            (self.write_lat if is_write else self.read_lat).append(now - due)
            self.last_done = now

    def fail(self, measured: bool, shed: bool = False) -> None:
        if measured:
            self.failed += 1
            self.shed += shed

    def spawn(self, gen) -> None:
        """Run ``gen`` as a process that ``done()`` waits for."""
        self.active += 1

        def body():
            try:
                yield from gen
            except Exception as exc:   # a generator bug must fail the run
                self.problems.append(f"generator died: {exc!r}")
            finally:
                self.active -= 1

        spawn(self.sim, body(), name="perfbench")

    def digest(self) -> str:
        """sha256 over everything a simulator-only change must keep."""
        stats = self.cluster.stats()
        forces = sum(n["log_forces"] for n in stats["nodes"].values())
        h = hashlib.sha256()
        for lat in sorted(self.read_lat + self.write_lat):
            h.update(repr(lat).encode())
        h.update(repr((self.sim.now, stats["network"]["messages_sent"],
                       forces)).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nodes: int
    log_profile: Callable[[], DiskProfile]
    preload: bool
    #: simulated seconds per timed slice (~0.1-0.2 host s; calibrate.py)
    slice_s: float
    config: Dict[str, float]
    start: Callable[[SpinnakerCluster, float], Load]

    def build(self, seed: int, request_tracer=None) -> SpinnakerCluster:
        """Cluster build, boot until every cohort has an open leader, and
        (where the workload reads) preload through the client API."""
        config = SpinnakerConfig(log_profile=self.log_profile(),
                                 **self.config)
        cluster = SpinnakerCluster(n_nodes=self.nodes, config=config,
                                   seed=seed, request_tracer=request_tracer)
        cluster.start()
        if self.preload:
            _preload(cluster)
        return cluster


def _rows() -> List[bytes]:
    return [b"row-%06d" % i for i in range(PRELOAD_ROWS)]


def _preload(cluster: SpinnakerCluster, loaders: int = 16) -> None:
    keys, value = _rows(), b"x" * VALUE_SIZE
    finished = []

    def loader(i: int):
        client = cluster.client(f"bclient{i % CLIENT_NODES}")
        for key in keys[i::loaders]:
            yield from client.put(key, COLUMN, value)
        finished.append(i)

    for i in range(loaders):
        spawn(cluster.sim, loader(i), name=f"perfbench-loader{i}")
    cluster.run_until(lambda: len(finished) == loaders, limit=600.0,
                      step=1.0, what="preload")


def _scaled(n: int, scale: float) -> int:
    return max(5, round(n * scale))


# ---------------------------------------------------------------------------
# write_strong: closed loop, 64 threads, 4 KB puts to private consecutive keys
# ---------------------------------------------------------------------------

WRITE_THREADS, WRITE_OPS = 64, 150


def _write_value(key: bytes) -> bytes:
    return key.ljust(VALUE_SIZE, b".")


def _start_write_strong(cluster: SpinnakerCluster, scale: float) -> Load:
    load = Load(cluster)
    sim = cluster.sim
    total = WARMUP_OPS + _scaled(WRITE_OPS, scale)
    acked: Dict[bytes, int] = {}

    def thread(tid: int):
        client = load.clients[tid % CLIENT_NODES]
        for i in range(total):
            key = b"w%d-%d" % (tid, i)
            due, measured = sim.now, i >= WARMUP_OPS
            load.offer(due, measured)
            try:
                result = yield from client.put(key, COLUMN,
                                               _write_value(key))
            except DatastoreError:
                load.fail(measured)
                continue
            acked[key] = result.version
            load.complete(True, due, measured)

    for tid in range(WRITE_THREADS):
        load.spawn(thread(tid))
    load.wrap_up = lambda: _read_back_writes(cluster, acked)
    return load


def _read_back_writes(cluster: SpinnakerCluster,
                      acked: Dict[bytes, int]) -> List[str]:
    """Read back every key of 4 sampled threads at the acknowledged value."""
    rng = cluster.rng.fork("perfbench").stream("readback")
    sampled = {b"w%d-" % tid for tid in rng.sample(range(WRITE_THREADS), 4)}
    keys = sorted(k for k in acked if k[:k.index(b"-") + 1] in sampled)
    problems: List[str] = []

    def read_all():
        client = cluster.client("perfbench-verify")
        for key in keys:
            got = yield from client.get(key, COLUMN, consistent=True)
            if (not got.found or got.value != _write_value(key)
                    or got.version != acked[key]):
                problems.append(f"{key!r}: acknowledged v{acked[key]}, "
                                f"read back {got!r:.80}")

    proc = spawn(cluster.sim, read_all(), name="perfbench-readback")
    cluster.run_until(lambda: proc.triggered, limit=600.0,
                      what="write read-back")
    if not proc.ok:
        problems.append(f"read-back died: {proc.exception!r}")
    if not keys:
        problems.append("read-back sampled no keys")
    return problems


# ---------------------------------------------------------------------------
# read_strong: closed loop, 64 threads, uniform strong gets of preloaded rows
# ---------------------------------------------------------------------------

READ_THREADS, READ_OPS = 64, 500


def _start_read_strong(cluster: SpinnakerCluster, scale: float) -> Load:
    load = Load(cluster)
    sim = cluster.sim
    keys = _rows()
    total = WARMUP_OPS + _scaled(READ_OPS, scale)
    rngs = cluster.rng.fork("perfbench")

    def thread(tid: int):
        client = load.clients[tid % CLIENT_NODES]
        choose = rngs.stream(f"thread-{tid}").choice
        for i in range(total):
            due, measured = sim.now, i >= WARMUP_OPS
            load.offer(due, measured)
            try:
                got = yield from client.get(choose(keys), COLUMN,
                                            consistent=True)
            except DatastoreError:
                load.fail(measured)
                continue
            if not got.found or len(got.value) != VALUE_SIZE:
                load.problems.append(f"bad strong read {got!r:.80}")
                load.fail(measured)
                continue
            load.complete(False, due, measured)

    for tid in range(READ_THREADS):
        load.spawn(thread(tid))
    return load


# ---------------------------------------------------------------------------
# mixed_openloop: Poisson arrivals, 50 % put / 50 % timeline get, 3 nodes
# ---------------------------------------------------------------------------

MIXED_RATE, MIXED_MEASURED_S, LADDER_MEASURED_S = 12000, 1.5, 1.0


def start_mixed(cluster: SpinnakerCluster, rate: float,
                measured_s: float) -> Load:
    """Open loop at ``rate`` arrivals/s: one process per arrival, latency
    taken from the arrival's due time.  The simulated generator wakes
    exactly at each due time, so it cannot run late."""
    load = Load(cluster)
    sim = cluster.sim
    keys, value = _rows(), b"x" * VALUE_SIZE
    rngs = cluster.rng.fork("perfbench")
    arrivals, ops = rngs.stream("arrivals"), rngs.stream("ops")
    measure_from = sim.now + OPEN_WARMUP_S
    end = measure_from + measured_s
    load.extras["done_in_window"] = 0

    def one_op(client, key: bytes, is_write: bool, due: float,
               measured: bool):
        try:
            if is_write:
                yield from client.put(key, COLUMN, value)
            else:
                got = yield from client.get(key, COLUMN, consistent=False)
                if not got.found or len(got.value) != VALUE_SIZE:
                    load.problems.append(f"bad timeline read {got!r:.80}")
                    load.fail(measured)
                    return
        except DatastoreError:
            load.fail(measured)
            return
        load.complete(is_write, due, measured)
        if measured and sim.now <= end + SLO_P99_MS / 1e3:
            load.extras["done_in_window"] += 1

    def generator():
        n = 0
        while True:
            yield timeout(sim, arrivals.expovariate(rate))
            due = sim.now
            if due >= end:
                return
            measured = due >= measure_from
            load.offer(due, measured)
            if load.active > INFLIGHT_CAP:     # the generator counts as one
                load.fail(measured, shed=True)
                continue
            load.spawn(one_op(load.clients[n % CLIENT_NODES],
                              ops.choice(keys), ops.random() < 0.5,
                              due, measured))
            n += 1

    load.spawn(generator())
    return load


def _start_mixed_openloop(cluster: SpinnakerCluster, scale: float) -> Load:
    return start_mixed(cluster, MIXED_RATE, MIXED_MEASURED_S * scale)


def meets_slo(load: Load, p99_ms: float) -> bool:
    """A ladder rung passes when p99 is within the limit, nothing was shed
    or failed, and no backlog was growing when the window closed: 98 % of
    the window's arrivals were done one latency limit after its end."""
    return (p99_ms <= SLO_P99_MS and load.failed == 0
            and load.extras["done_in_window"] >= 0.98 * load.attempted)


# ---------------------------------------------------------------------------
# failover: fixed-schedule open loop across two scripted leader crashes
# ---------------------------------------------------------------------------

FAILOVER_RATE, FAILOVER_S, FAILOVER_KEYS = 800, 20.0, 50
#: (fault, cohort): a slow-detect kill (the coordination service must
#: notice the silent session) and a fast-detect one (session expired at
#: once, so only election + takeover remain).  Cohorts 0 and 3 share no
#: possible leader on a 5-node ring, so the second kill never lands on
#: the node that took cohort 0 over.
FAILOVER_FAULTS = (
    FaultEvent(at=3.0, kind="crash-leader", duration=5.0, cohort=0,
               fast_detect=False),
    FaultEvent(at=12.0, kind="crash-leader", duration=4.0, cohort=3,
               fast_detect=True),
)


def _failover_keys(cluster: SpinnakerCluster) -> Dict[bytes, int]:
    """``FAILOVER_KEYS`` keys spread evenly over every cohort."""
    cohorts = len(cluster.partitioner.cohorts)
    per_cohort = FAILOVER_KEYS // cohorts
    found: Dict[int, List[bytes]] = {c: [] for c in range(cohorts)}
    i = 0
    while any(len(keys) < per_cohort for keys in found.values()):
        key = b"fo-%d" % i
        i += 1
        cohort = cluster.partitioner.cohort_for_key(key_of(key)).cohort_id
        if len(found[cohort]) < per_cohort:
            found[cohort].append(key)
    return {key: c for c, keys in found.items() for key in keys}


def _start_failover(cluster: SpinnakerCluster, scale: float) -> Load:
    load = Load(cluster)
    sim = cluster.sim
    cohort_of = _failover_keys(cluster)
    # Every key once as a put and once as a strong get, in seeded order,
    # cycled: each cohort sees exactly its share of the schedule, so how
    # many operations an outage catches depends on its length alone.
    pattern = [(key, is_write) for key in sorted(cohort_of)
               for is_write in (True, False)]
    cluster.rng.fork("perfbench").stream("pattern").shuffle(pattern)
    gap = 1.0 / (FAILOVER_RATE * scale)
    total = int(FAILOVER_S / gap)
    base = sim.now
    history = HistoryRecorder()
    acked: Dict[bytes, Dict[int, bytes]] = {}   # key -> {version: value}
    writes_done = []                # (due, done, cohort) of acked puts
    kills: Dict[int, tuple] = {}    # cohort -> (time, victim)
    rejoins: List[float] = []

    def note_kill(fault: FaultEvent) -> None:
        kills[fault.cohort] = (sim.now, cluster.leader_of(fault.cohort))

    # Registered before arm_schedule, so each note runs just before its kill.
    for fault in FAILOVER_FAULTS:
        sim.call_at(base + fault.at, lambda f=fault: note_kill(f))
    arm_schedule(cluster, list(FAILOVER_FAULTS))
    auditor = InvariantAuditor(cluster)
    spawn(sim, auditor.run(0.25, until=base + FAILOVER_S),
          name="perfbench-auditor")

    def watch_rejoin(fault: FaultEvent):
        """Restart -> every replica of the victim is leader or follower
        and has committed what its cohort leader had at the restart."""
        yield timeout(sim, base + fault.at + fault.duration - sim.now)
        node = cluster.nodes[kills[fault.cohort][1]]
        restarted = sim.now
        targets = {}
        for cid in sorted(node.replicas):
            leader = cluster.leader_of(cid)
            if leader is not None:
                targets[cid] = cluster.replica(leader, cid).committed_lsn
        while True:
            yield timeout(sim, 0.01)
            replicas = node.replicas
            if node.alive and all(
                    cid in replicas
                    and replicas[cid].role in (Role.LEADER, Role.FOLLOWER)
                    and replicas[cid].committed_lsn >= lsn
                    for cid, lsn in targets.items()):
                rejoins.append(sim.now - restarted)
                return

    def one_op(client, key: bytes, is_write: bool, due: float, n: int):
        if is_write:
            value = b"%d" % n
            try:
                result = yield from client.put(key, COLUMN, value)
            except DatastoreError:
                history.record_write(key, due, sim.now, 0, ok=False)
                load.fail(True)
                return
            history.record_write(key, due, sim.now, result.version)
            acked.setdefault(key, {})[result.version] = value
            writes_done.append((due, sim.now, cohort_of[key]))
        else:
            try:
                got = yield from client.get(key, COLUMN, consistent=True)
            except DatastoreError:
                load.fail(True)
                return
            history.record_read(key, due, sim.now, got.version)
        load.complete(is_write, due, True)

    def generator():
        for n in range(total):
            due = base + n * gap
            if due > sim.now:
                yield timeout(sim, due - sim.now)
            key, is_write = pattern[n % len(pattern)]
            load.offer(due, True)
            load.spawn(one_op(load.clients[n % CLIENT_NODES], key, is_write,
                              due, n))

    def outage(fault: FaultEvent) -> float:
        """Kill -> first acknowledged put to the victim cohort that was
        due after the kill."""
        killed = kills[fault.cohort][0]
        return min(done for due, done, cohort in writes_done
                   if cohort == fault.cohort and due > killed) - killed

    def wrap_up() -> List[str]:
        slow, fast = FAILOVER_FAULTS
        load.extras.update(unavail_s=outage(slow),
                           unavail_fast_detect_s=outage(fast),
                           rejoin_s=max(rejoins))
        auditor.final_audit()
        return ([str(v) for v in auditor.violations]
                + [f"history: {v}" for v in check_strong_history(history)]
                + _read_back_acked(cluster, acked))

    for fault in FAILOVER_FAULTS:
        load.spawn(watch_rejoin(fault))
    load.spawn(generator())
    load.wrap_up = wrap_up
    return load


def _read_back_acked(cluster: SpinnakerCluster,
                     acked: Dict[bytes, Dict[int, bytes]]) -> List[str]:
    """The chaos read-back rule: after the storm every acknowledged write
    reads back at or above its acknowledged version, and an acknowledged
    version carries the acknowledged value."""
    results = {}

    def read_all():
        client = cluster.client("perfbench-verify")
        for key in sorted(acked):
            results[key] = yield from client.get(key, COLUMN,
                                                 consistent=True)

    proc = spawn(cluster.sim, read_all(), name="perfbench-readback")
    cluster.run_until(lambda: proc.triggered, limit=600.0,
                      what="durability read-back")
    problems: List[str] = []
    if not proc.ok:
        problems.append(f"read-back died: {proc.exception!r}")
    for key, got in sorted(results.items()):
        versions = acked[key]
        if not got.found or got.version < max(versions):
            problems.append(f"{key!r}: acknowledged v{max(versions)}, "
                            f"read back {got!r:.80}")
        elif got.value != versions.get(got.version, got.value):
            problems.append(f"{key!r}: v{got.version} value mismatch")
    if len(results) != len(acked) or not results:
        problems.append("durability read-back incomplete")
    return problems


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="write_strong",
        why="closed loop, 64 threads of 4 KB puts on 10 SATA nodes: the "
            "Paxos write path (replication + WAL + log force) does "
            "nearly all the work",
        nodes=10, log_profile=DiskProfile.sata_log, preload=False,
        slice_s=0.5, config={}, start=_start_write_strong),
    Workload(
        name="read_strong",
        why="closed loop, 64 threads of strong gets on 10 nodes: bypasses "
            "replication, WAL and disk, so a write-path change must show "
            "no change here while kernel/network/routing work shows most",
        nodes=10, log_profile=DiskProfile.sata_log, preload=True,
        slice_s=0.125, config={}, start=_start_read_strong),
    Workload(
        name="mixed_openloop",
        why="open loop, Poisson 12000 ops/s of 50% put / 50% timeline get "
            "on 3 SSD nodes: followers serve reads beside writes; the "
            "only workload where queueing and the SLO knee show",
        nodes=3, log_profile=DiskProfile.ssd_log, preload=True,
        slice_s=0.125, config={}, start=_start_mixed_openloop),
    Workload(
        name="failover",
        why="fixed-schedule open loop across a slow- and a fast-detect "
            "leader crash on 5 SSD nodes: the only workload where coord, "
            "election/recovery and client retries do measurable work",
        nodes=5, log_profile=DiskProfile.ssd_log, preload=False,
        slice_s=1.0,
        # A 0.25 s per-try timeout lets clients notice the dead leader
        # long before the 2 s session timeout does, so the outage they see
        # is detection + election + takeover, not their own RPC budget;
        # the retry allowance lets every operation ride the outage out.
        config={"commit_period": 0.3, "client_try_timeout": 0.25,
                "client_max_retries": 100},
        start=_start_failover),
)}
