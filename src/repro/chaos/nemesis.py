"""The nemesis: seeded random fault schedules against a live cluster.

A chaos run has four deterministic ingredients, all derived from
``(seed, config)``:

1. a **fault schedule** — a list of :class:`FaultEvent` drawn from a
   dedicated RNG stream with MTTF/MTTR budgets (crash-restarts of
   leaders and named nodes, permanent disk loss, symmetric and one-way
   partitions, message-drop bursts, latency spikes);
2. a **workload** — writer and reader processes streaming paced
   operations into a couple of cohorts while recording a client-observed
   history and the set of acknowledged writes;
3. an **invariant auditor** sampling the cluster during the storm
   (:mod:`~repro.chaos.invariants`);
4. a **post-storm audit** — heal everything, restart the dead, wait for
   leaders, then check log-prefix agreement, read back every
   acknowledged write, and run the strong-history checker.

Faults that take something down are *paired* with their repair inside a
single :class:`FaultEvent` (crash + restart, block + heal) so the
shrinker can remove a fault without stranding the cluster in a degraded
state forever.

Replaying the same ``(seed, config)`` — or an explicit schedule via
:func:`replay_schedule` — reproduces the run event-for-event, which is
what makes shrinking and regression tests possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import SpinnakerCluster, SpinnakerConfig
from ..core.checker import HistoryRecorder, check_strong_history
from ..core.datamodel import DatastoreError
from ..sim import failure
from ..sim.disk import DiskProfile
from ..sim.events import SimulationError
from ..sim.process import drive, spawn, timeout
from ..sim.rng import RngRegistry
from .invariants import InvariantAuditor, InvariantViolation

__all__ = ["FaultEvent", "ChaosConfig", "ChaosReport", "arm_schedule",
           "generate_schedule", "run_chaos", "replay_schedule"]

#: Fault kinds the nemesis knows how to inject.  The first seven are
#: topology-oblivious; the DC-level kinds (whole-datacenter partition,
#: WAN-link degradation) fire only on clusters built with a
#: :class:`~repro.sim.topology.Topology` (``ChaosConfig.n_dcs > 1``).
FAULT_KINDS = ("crash-leader", "crash-node", "lose-disk", "partition",
               "partition-oneway", "drop-burst", "latency-spike",
               "partition-dc", "wan-degrade")
#: the topology-oblivious prefix of FAULT_KINDS (flat-network schedules
#: draw only from these, keeping pre-topology seeds bit-identical)
_FLAT_KINDS = FAULT_KINDS[:7]


@dataclass(frozen=True)
class FaultEvent:
    """One nemesis action, with its built-in repair.

    ``at`` is relative to storm start.  Durable-outage kinds
    (``crash-leader``, ``crash-node``) restart the victim ``duration``
    seconds later; link faults (``partition``, ``partition-oneway``,
    ``drop-burst``, ``latency-spike``) are undone after ``duration``;
    ``lose-disk`` reboots immediately with empty media (the repair *is*
    the catch-up protocol).
    """

    at: float
    kind: str
    duration: float = 0.0
    cohort: int = -1          # crash-leader: which cohort's leader
    node: str = ""            # crash-node / lose-disk victim
    a: str = ""               # link faults: ordered endpoints;
    b: str = ""               # DC faults: datacenter names
    rate: float = 0.0         # drop-burst probability
    extra: float = 0.0        # latency-spike / wan-degrade extra delay (s)
    fast_detect: bool = True  # expire the victim's session immediately


@dataclass
class ChaosConfig:
    """Knobs for one chaos run.  Everything that shapes the schedule,
    the workload, or the cluster build lives here so that ``(seed,
    config)`` fully determines the run."""

    n_nodes: int = 5
    #: storm window in simulated seconds
    duration: float = 30.0
    #: mean gap between injected faults (the MTTF budget)
    mean_fault_gap: float = 2.0
    #: mean outage length (the MTTR budget), clamped to ``max_repair``
    mean_repair: float = 1.5
    max_repair: float = 4.0
    #: post-storm window for recovery + final audit
    settle: float = 10.0
    #: at most this many permanent disk losses per run (each one burns a
    #: replica's entire history; more than one risks legitimately
    #: exceeding the paper's f=1 fault budget)
    max_disk_losses: int = 1
    #: relative weights of the topology-oblivious fault kinds, in
    #: FAULT_KINDS order (the DC-level kinds have their own knob)
    weights: Tuple[float, ...] = (3.0, 3.0, 0.6, 1.5, 1.0, 1.2, 1.2)
    # -- topology (multi-datacenter runs) -------------------------------
    #: build the cluster across this many datacenters (1 = flat network,
    #: bit-identical to pre-topology schedules); nodes are placed
    #: round-robin (node i -> dc{i % n_dcs}) and replicas spread so
    #: every cohort spans as many DCs as the replication factor allows
    n_dcs: int = 1
    #: base one-way WAN propagation delay between datacenters
    wan_one_way: float = 0.02
    #: fractional per-direction skew applied deterministically per
    #: ordered DC pair (asymmetric routes)
    wan_asymmetry: float = 0.25
    #: relative weights of (partition-dc, wan-degrade), appended to
    #: ``weights`` when ``n_dcs > 1``
    dc_fault_weights: Tuple[float, float] = (1.5, 1.0)
    # -- workload -------------------------------------------------------
    writers: int = 2
    readers: int = 2
    cohorts_used: int = 2
    keys_per_cohort: int = 10
    write_pace: float = 0.06
    read_pace: float = 0.045
    audit_period: float = 0.25
    # -- cluster --------------------------------------------------------
    commit_period: float = 0.3
    client_op_timeout: float = 6.0

    def spinnaker_config(self) -> SpinnakerConfig:
        return SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                               commit_period=self.commit_period,
                               client_op_timeout=self.client_op_timeout)

    def dc_names(self) -> List[str]:
        return [f"dc{i}" for i in range(self.n_dcs)]

    def topology(self):
        """The cluster topology this config describes, or None for a
        flat (single-DC) run."""
        if self.n_dcs <= 1:
            return None
        from ..sim.topology import Topology
        return Topology.round_robin(self.n_nodes, self.n_dcs,
                                    self.wan_one_way, self.wan_asymmetry)

    def placement(self) -> str:
        """Replica-placement policy for the cluster build: spread
        cohorts across datacenters whenever there is more than one."""
        return "spread" if self.n_dcs > 1 else "ring"


# ---------------------------------------------------------------------------
# Schedule generation
# ---------------------------------------------------------------------------

def generate_schedule(seed: int, config: ChaosConfig) -> List[FaultEvent]:
    """The pure function from ``(seed, config)`` to a fault schedule."""
    rng = RngRegistry(seed).stream("nemesis")
    names = [f"node{i}" for i in range(config.n_nodes)]
    events: List[FaultEvent] = []
    disk_losses = 0
    # Windows during which a node is (or may be) down or unreachable;
    # a disk loss must not overlap one, or the cluster can legitimately
    # drop below the paper's f=1 budget and lose acknowledged data.
    outage_windows: List[Tuple[float, float]] = []
    disk_margin = 6.0   # catch-up headroom around a disk loss

    def overlaps_outage(lo: float, hi: float) -> bool:
        return any(lo < w_hi and w_lo < hi for w_lo, w_hi in outage_windows)

    kinds: Tuple[str, ...] = _FLAT_KINDS
    weights: Tuple[float, ...] = tuple(config.weights)
    if config.n_dcs > 1:
        # DC-level kinds join the pool only for placed clusters; flat
        # configs draw from the same (kinds, weights) as always, so
        # pre-topology seeds reproduce their schedules bit-identically.
        kinds = kinds + FAULT_KINDS[7:]
        weights = weights + tuple(config.dc_fault_weights)
    t = 0.5 + rng.random()
    while t < config.duration:
        kind = rng.choices(kinds, weights=weights)[0]
        dur = min(config.max_repair,
                  0.2 + rng.expovariate(1.0 / config.mean_repair))
        if kind == "lose-disk":
            if (disk_losses >= config.max_disk_losses
                    or t > config.duration * 0.7
                    or overlaps_outage(t - disk_margin, t + disk_margin)):
                kind = "crash-node"   # stay inside the fault budget
        if kind == "lose-disk":
            disk_losses += 1
            outage_windows.append((t - disk_margin, t + disk_margin))
            events.append(FaultEvent(at=t, kind=kind,
                                     node=rng.choice(names)))
        elif kind == "crash-leader":
            outage_windows.append((t, t + dur))
            events.append(FaultEvent(
                at=t, kind=kind, duration=dur,
                cohort=rng.randrange(config.n_nodes),
                fast_detect=rng.random() < 0.7))
        elif kind == "crash-node":
            outage_windows.append((t, t + dur))
            events.append(FaultEvent(
                at=t, kind=kind, duration=dur, node=rng.choice(names),
                fast_detect=rng.random() < 0.7))
        elif kind in ("partition", "partition-oneway"):
            a, b = rng.sample(names, 2)
            outage_windows.append((t, t + dur))
            events.append(FaultEvent(at=t, kind=kind, duration=dur,
                                     a=a, b=b))
        elif kind == "drop-burst":
            a, b = rng.sample(names, 2)
            events.append(FaultEvent(at=t, kind=kind, duration=dur,
                                     a=a, b=b,
                                     rate=0.2 + 0.7 * rng.random()))
        elif kind == "latency-spike":
            events.append(FaultEvent(at=t, kind=kind, duration=dur,
                                     extra=0.003 + 0.04 * rng.random()))
        elif kind == "partition-dc":
            dc = rng.choice(config.dc_names())
            outage_windows.append((t, t + dur))
            events.append(FaultEvent(at=t, kind=kind, duration=dur, a=dc))
        elif kind == "wan-degrade":
            dc_a, dc_b = rng.sample(config.dc_names(), 2)
            events.append(FaultEvent(at=t, kind=kind, duration=dur,
                                     a=dc_a, b=dc_b,
                                     extra=0.005 + 0.03 * rng.random()))
        t += 0.15 + rng.expovariate(1.0 / config.mean_fault_gap)
    return events


# ---------------------------------------------------------------------------
# Applying a schedule to a live cluster
# ---------------------------------------------------------------------------

class _Applier:
    """Plays a fault schedule against a cluster, logging what actually
    happened (the leader targeted by a ``crash-leader`` is only known at
    fire time).  The one fault injector: it crashes nodes, wipes disks
    and expires sessions itself, and hands each link fault to
    :mod:`repro.sim.failure`, which applies it and schedules its
    repair."""

    def __init__(self, cluster: SpinnakerCluster,
                 schedule: List[FaultEvent], log: List[str]):
        self.cluster = cluster
        self.schedule = schedule
        self.log = log

    def arm(self) -> None:
        base = self.cluster.sim.now
        for ev in self.schedule:
            self.cluster.sim.call_at(base + ev.at,
                                     lambda e=ev: self._fire(e))

    def _note(self, text: str) -> None:
        self.log.append(f"[t={self.cluster.sim.now:9.4f}] {text}")

    def _crash(self, name: str, duration: float,
               fast_detect: bool, why: str) -> None:
        cluster = self.cluster
        node = cluster.nodes[name]
        if not node.alive:
            self._note(f"{why}: {name} already down, skipped")
            return
        session = node.zk.session if node.zk else None
        node.crash()
        if fast_detect and session is not None:
            cluster.coord.expire_session_now(session)
        self._note(f"{why}: crashed {name} for {duration:.2f}s "
                   f"({'fast' if fast_detect else 'slow'}-detect)")
        cluster.sim.schedule(duration, lambda: self._restart(name))

    def _restart(self, name: str) -> None:
        node = self.cluster.nodes[name]
        if node.alive:
            self._note(f"restart {name}: already up")
            return
        node.restart()
        self._note(f"restarted {name}")

    def _fire(self, ev: FaultEvent) -> None:
        cluster, net = self.cluster, self.cluster.network
        if ev.kind == "crash-leader":
            leader = cluster.leader_of(ev.cohort)
            if leader is None:
                self._note(f"crash-leader cohort={ev.cohort}: "
                           f"no open leader, skipped")
                return
            self._crash(leader, ev.duration, ev.fast_detect,
                        f"crash-leader cohort={ev.cohort}")
        elif ev.kind == "crash-node":
            self._crash(ev.node, ev.duration, ev.fast_detect,
                        "crash-node")
        elif ev.kind == "lose-disk":
            node = cluster.nodes[ev.node]
            if not node.alive:
                self._note(f"lose-disk: {ev.node} already down, skipped")
                return
            session = node.zk.session if node.zk else None
            node.lose_disk()
            if session is not None:
                cluster.coord.expire_session_now(session)
            self._note(f"lose-disk: wiped {ev.node}, rebooting empty")
        elif ev.kind in ("partition", "partition-oneway"):
            failure.partition(net, ev.a, ev.b, ev.duration, self._note,
                              symmetric=ev.kind == "partition")
        elif ev.kind == "drop-burst":
            failure.drop_burst(net, ev.a, ev.b, ev.rate, ev.duration,
                               self._note)
        elif ev.kind == "latency-spike":
            failure.latency_spike(net, ev.extra, ev.duration, self._note)
        elif ev.kind == "partition-dc":
            failure.partition_dc(net, ev.a, ev.duration, self._note)
        elif ev.kind == "wan-degrade":
            failure.wan_degrade(net, ev.a, ev.b, ev.extra, ev.duration,
                                self._note)
        else:
            self._note(f"unknown fault kind {ev.kind!r}, skipped")


def arm_schedule(cluster: SpinnakerCluster, schedule: List[FaultEvent],
                 log: Optional[List[str]] = None) -> List[str]:
    """Arm an explicit fault schedule against an already-running
    cluster (relative to ``sim.now``) and return the fault log it will
    append to.  This is the hook for experiments that want a scripted
    chaos coda without the full :func:`run_chaos` harness."""
    if log is None:
        log = []
    _Applier(cluster, schedule, log).arm()
    return log


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

class _Workload:
    """Writers and readers over a fixed key set, recording history and
    the acknowledged-write map keyed by version."""

    def __init__(self, cluster: SpinnakerCluster, config: ChaosConfig,
                 until: float):
        self.cluster = cluster
        self.config = config
        self.until = until
        self.history = HistoryRecorder()
        #: key -> {version: value} for every acknowledged write
        self.acked: Dict[bytes, Dict[int, bytes]] = {}
        self.writes_acked = 0
        self.writes_failed = 0
        self.reads_done = 0
        self.reads_failed = 0
        self.keys: List[bytes] = []
        n_cohorts = len(cluster.partitioner.cohorts)
        for c in range(min(config.cohorts_used, n_cohorts)):
            self.keys.extend(cluster.keys_in_cohort(
                c, config.keys_per_cohort, b"chaos-"))
        self.procs = []

    def start(self) -> None:
        sim = self.cluster.sim
        for w in range(self.config.writers):
            self.procs.append(spawn(
                sim, self._writer(w), name=f"chaos-writer{w}"))
        for r in range(self.config.readers):
            self.procs.append(spawn(
                sim, self._reader(r), name=f"chaos-reader{r}"))

    def done(self) -> bool:
        return all(p.triggered for p in self.procs)

    def _writer(self, wid: int):
        sim = self.cluster.sim
        client = self.cluster.client(f"chaos-w{wid}")
        # Writers stride over the shared key list at different offsets,
        # so every key sees writes from more than one client.
        my_keys = self.keys[wid::self.config.writers] or self.keys
        i = 0
        while sim.now < self.until:
            key = my_keys[i % len(my_keys)]
            value = b"w%d-%d" % (wid, i)
            start = sim.now
            try:
                result = yield from client.put(key, b"c", value)
            except DatastoreError:
                self.history.record_write(key, start, sim.now, 0,
                                          ok=False)
                self.writes_failed += 1
            else:
                self.history.record_write(key, start, sim.now,
                                          result.version)
                self.acked.setdefault(key, {})[result.version] = value
                self.writes_acked += 1
            i += 1
            yield timeout(sim, self.config.write_pace)

    def _reader(self, rid: int):
        sim = self.cluster.sim
        client = self.cluster.client(f"chaos-r{rid}")
        rng = self.cluster.rng.stream(f"chaos:reader{rid}")
        while sim.now < self.until:
            key = rng.choice(self.keys)
            start = sim.now
            try:
                got = yield from client.get(key, b"c", consistent=True)
            except DatastoreError:
                self.reads_failed += 1
            else:
                self.history.record_read(key, start, sim.now,
                                         got.version)
                self.reads_done += 1
            yield timeout(sim, self.config.read_pace)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

@dataclass
class ChaosReport:
    """Everything a chaos run produced, formatted deterministically."""

    seed: int
    config: ChaosConfig
    schedule: List[FaultEvent]
    fault_log: List[str]
    invariant_violations: List[InvariantViolation]
    history_violations: List
    durability_failures: List[str]
    counters: Dict[str, int]

    @property
    def ok(self) -> bool:
        return not (self.invariant_violations or self.history_violations
                    or self.durability_failures)

    def violation_summary(self) -> List[str]:
        out = [str(v) for v in self.invariant_violations]
        out += [f"history: {v}" for v in self.history_violations]
        out += [f"durability: {d}" for d in self.durability_failures]
        return out

    def format(self) -> str:
        c = self.counters
        lines = [
            f"chaos run: seed={self.seed} nodes={self.config.n_nodes} "
            f"duration={self.config.duration:g}s "
            f"events={len(self.schedule)}",
            "fault log:",
        ]
        lines += [f"  {entry}" for entry in self.fault_log]
        lines.append(
            f"workload: {c['writes_acked']} writes acked, "
            f"{c['writes_failed']} write timeouts, "
            f"{c['reads']} strong reads, {c['read_failures']} read "
            f"timeouts, {c['client_retries']} client retries")
        lines.append(
            f"network: {c['messages_sent']} msgs sent, "
            f"{c['messages_dropped']} dropped, "
            f"{c['stale_replies']} stale replies discarded")
        lines.append(
            f"audit: {c['audit_ticks']} ticks, "
            f"{len(self.invariant_violations)} invariant / "
            f"{len(self.history_violations)} history / "
            f"{len(self.durability_failures)} durability violations")
        for v in self.violation_summary():
            lines.append(f"  VIOLATION {v}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def run_chaos(seed: int, config: Optional[ChaosConfig] = None,
              schedule: Optional[List[FaultEvent]] = None) -> ChaosReport:
    """Run one chaos storm; deterministic in ``(seed, config,
    schedule)``.  With ``schedule=None`` the schedule is generated from
    the seed (the normal randomized mode); passing an explicit schedule
    is the replay/shrink mode."""
    config = config or ChaosConfig()
    if schedule is None:
        schedule = generate_schedule(seed, config)
    cluster = SpinnakerCluster(n_nodes=config.n_nodes,
                               config=config.spinnaker_config(),
                               seed=seed,
                               topology=config.topology(),
                               placement=config.placement())
    cluster.start()
    sim = cluster.sim
    storm_end = sim.now + config.duration

    fault_log: List[str] = []
    applier = _Applier(cluster, schedule, fault_log)
    applier.arm()
    workload = _Workload(cluster, config, until=storm_end)
    workload.start()
    auditor = InvariantAuditor(cluster)
    spawn(sim, auditor.run(config.audit_period,
                           until=storm_end + config.settle),
          name="chaos-auditor")

    # -- the storm ------------------------------------------------------
    cluster.run(config.duration)

    # -- heal and settle ------------------------------------------------
    cluster.network.heal()
    cluster.network.clear_link_faults()
    # lint: allow(dict-order) — nodes inserted as node0..nodeN-1
    for name, node in cluster.nodes.items():
        if not node.alive:
            node.restart()
    fault_log.append(f"[t={sim.now:9.4f}] storm over: healed network, "
                     f"restarted the dead")
    try:
        cluster.run_until(
            lambda: workload.done() and cluster.is_ready(),
            limit=config.settle + 60.0, what="post-storm recovery")
    except SimulationError as err:
        auditor.violations.append(InvariantViolation(
            sim.now, "recovery-liveness", str(err)))
    cluster.run(2.0)   # let catch-up and commit propagation finish

    # -- final audits ---------------------------------------------------
    auditor.final_audit()
    durability = _read_back(cluster, workload)
    history_violations = check_strong_history(workload.history)

    counters = {
        "writes_acked": workload.writes_acked,
        "writes_failed": workload.writes_failed,
        "reads": workload.reads_done,
        "read_failures": workload.reads_failed,
        "client_retries": sum(cl.retries
                              for cl in cluster._clients.values()),
        "messages_sent": cluster.network.messages_sent,
        "messages_dropped": cluster.network.messages_dropped,
        "stale_replies": sum(ep.stale_replies for ep in
                             cluster.network._endpoints.values()),
        "audit_ticks": auditor.ticks,
        "session_losses": sum(node.session_losses
                              for node in cluster.nodes.values()),
    }
    return ChaosReport(
        seed=seed, config=config, schedule=list(schedule),
        fault_log=fault_log,
        invariant_violations=auditor.violations,
        history_violations=history_violations,
        durability_failures=durability,
        counters=counters)


def replay_schedule(seed: int, config: ChaosConfig,
                    schedule: List[FaultEvent]) -> ChaosReport:
    """Replay an explicit fault schedule (shrunk or hand-written)
    against the same deterministic cluster + workload."""
    return run_chaos(seed, config, schedule=schedule)


def _read_back(cluster: SpinnakerCluster,
               workload: _Workload) -> List[str]:
    """No acknowledged write lost: after recovery, every key reads back
    at a version at least as new as its newest acknowledged write, and
    an exact acknowledged version carries the acknowledged value."""
    failures: List[str] = []
    sim = cluster.sim
    client = cluster.client("chaos-verify")

    def read_all():
        results = {}
        for key in sorted(workload.acked):
            try:
                results[key] = (yield from client.get(
                    key, b"c", consistent=True))
            except DatastoreError as err:
                results[key] = err
        return results

    try:
        results = drive(cluster, read_all(), limit=120.0,
                        what="durability read-back", name="chaos-readback")
    except SimulationError:
        return [f"read-back did not finish by t={sim.now:.4f}"]
    # lint: allow(dict-order) — read_all fills results in sorted key order
    for key, got in results.items():
        versions = workload.acked[key]
        top = max(versions)
        if isinstance(got, DatastoreError):
            failures.append(f"{key!r}: unreadable after recovery "
                            f"({type(got).__name__})")
        elif not got.found:
            failures.append(f"{key!r}: acknowledged v{top} but key "
                            f"not found")
        elif got.version < top:
            failures.append(f"{key!r}: acknowledged v{top} but read "
                            f"back v{got.version}")
        elif got.version in versions and got.value != versions[got.version]:
            failures.append(
                f"{key!r}: v{got.version} value mismatch "
                f"({got.value!r} != {versions[got.version]!r})")
    return failures
