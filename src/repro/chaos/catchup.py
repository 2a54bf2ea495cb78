"""Targeted chaos for the chunked snapshot catch-up path (§6.1).

Unlike the randomized nemesis, these scenarios aim a fault at the most
delicate instant of recovery — while a far-behind follower is streaming
snapshot chunks from the leader — and then verify the protocol's
crash-resumability claims directly:

* ``crash-follower`` — kill the catching-up follower mid-snapshot-stream;
  on restart it must resume from its last durably applied chunk, and the
  leaders' served-chunk ledgers must show **no table re-shipped at or
  below the resume floor**.
* ``crash-leader`` — kill the leader mid-stream; the follower re-resolves
  leadership and continues against the new leader, whose fresh paging
  generation must still not re-ship anything below the follower's floor.
* ``roll-log`` — keep writing during the stream so the leader flushes,
  compacts and GCs its log underneath the in-flight catch-up,
  invalidating the paging generation; catch-up must still converge.

Every scenario runs the :class:`~repro.chaos.invariants.InvariantAuditor`
throughout and requires it clean, plus a full read-back of the victim's
state against the leader.  Deterministic in ``(seed, scenario)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core import Role, SpinnakerCluster, SpinnakerConfig
from ..sim.disk import DiskProfile
from ..sim.events import SimulationError
from ..sim.process import drive, spawn, timeout
from ..storage.lsn import LSN
from .invariants import InvariantAuditor, InvariantViolation

__all__ = ["CatchupChaosResult", "run_catchup_chaos", "CATCHUP_SCENARIOS"]

CATCHUP_SCENARIOS = ("crash-follower", "crash-leader", "roll-log")

COHORT = 0


@dataclass
class CatchupChaosResult:
    """Outcome of one targeted catch-up chaos scenario."""

    seed: int
    scenario: str
    invariant_violations: List[InvariantViolation]
    failures: List[str]
    #: the victim's durable catch-up floor at the instant of the fault
    resume_floor: Optional[LSN]
    #: snapshot tables the victim had installed when the fault hit
    tables_at_fault: int
    #: chunks served to the victim after the fault (must be > 0: the
    #: fault really did land mid-stream)
    chunks_after_fault: int
    log: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.invariant_violations or self.failures)

    def format(self) -> str:
        lines = [f"catchup chaos: seed={self.seed} "
                 f"scenario={self.scenario}"]
        lines += [f"  {entry}" for entry in self.log]
        for v in self.invariant_violations:
            lines.append(f"  VIOLATION {v}")
        for f in self.failures:
            lines.append(f"  FAILURE {f}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def write_burst(cluster: SpinnakerCluster, writer: str, keys: List[bytes],
                rounds: int, tag: bytes, limit: float = 120.0) -> None:
    """Client ``writer`` puts ``rounds`` distinct ~200-byte values to
    every key, synchronously."""
    client = cluster.client(writer)

    def burst():
        for r in range(rounds):
            for key in keys:
                yield from client.put(key, b"c",
                                      tag + b"-%d" % r + b"x" * 200)

    drive(cluster, burst(), limit=limit, what=f"{writer} write burst",
          name=f"{writer}-burst")


def _served_to(cluster: SpinnakerCluster, victim: str,
               marks: dict) -> List[dict]:
    """Chunk-ledger entries for the victim recorded after ``marks``."""
    out = []
    for name in sorted(cluster.nodes):
        entries = list(cluster.nodes[name].catchup_served)
        for entry in entries[marks.get(name, 0):]:
            if entry["cohort"] == COHORT and entry["follower"] == victim:
                out.append(entry)
    return out


def _mark_served(cluster: SpinnakerCluster) -> dict:
    return {name: len(cluster.nodes[name].catchup_served)
            for name in sorted(cluster.nodes)}


def run_catchup_chaos(seed: int,
                      scenario: str = "crash-follower"
                      ) -> CatchupChaosResult:
    """Run one targeted mid-snapshot-stream fault scenario."""
    if scenario not in CATCHUP_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    # Tiny flush threshold + tiny chunk budget: the victim's gap spans
    # many small SSTables and the snapshot streams one table per chunk,
    # leaving a wide window to land a fault mid-stream.
    config = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                             commit_period=0.1,
                             flush_threshold_bytes=6_000,
                             catchup_chunk_bytes=2_048)
    cluster = SpinnakerCluster(n_nodes=3, config=config, seed=seed)
    cluster.start()
    sim = cluster.sim
    log: List[str] = []
    failures: List[str] = []

    def note(text: str) -> None:
        log.append(f"[t={sim.now:9.4f}] {text}")

    auditor = InvariantAuditor(cluster)
    spawn(sim, auditor.run(0.05, until=sim.now + 600.0),
          name="cc-auditor")

    members = list(cluster.partitioner.cohort(COHORT).members)
    leader = cluster.leader_of(COHORT)
    victim = next(m for m in members if m != leader)
    # Enough distinct keys that one write round exceeds the flush
    # threshold (the memtable counts live cells, not appended bytes).
    keys = cluster.keys_in_cohort(COHORT, 30, b"cc-")

    # 1. The victim falls far behind: crash it, then push enough history
    #    that the leader flushes repeatedly and rolls its log past the
    #    victim's commit point.
    cluster.crash_node(victim)
    cluster.expire_session_of(victim)
    note(f"crashed {victim}; writing history past its log")
    write_burst(cluster, "cc-writer", keys, rounds=16, tag=b"pre")
    leader_node = cluster.nodes[cluster.leader_of(COHORT)]
    note(f"leader log min_retained="
         f"{leader_node.wal.min_retained_lsn(COHORT)} "
         f"tables={len(leader_node.replicas[COHORT].engine.sstables)}")

    # 2. Restart the victim and wait for the snapshot stream to be
    #    demonstrably in flight (some tables installed, more to come).
    cluster.restart_node(victim)
    victim_replica = cluster.replica(victim, COHORT)
    try:
        cluster.run_until(
            lambda: (victim_replica.catchup_tables_ingested >= 2
                     and victim_replica.role != Role.FOLLOWER),
            limit=60.0, step=0.0005, what="snapshot stream in flight")
    except SimulationError:
        failures.append("snapshot stream never observed mid-flight")
        return _finish(cluster, auditor, seed, scenario, failures,
                       None, 0, 0, log)
    tables_at_fault = victim_replica.catchup_tables_ingested
    note(f"{victim} mid-stream: {tables_at_fault} tables installed, "
         f"floor={victim_replica.catchup_floor}")

    # 3. The fault.
    if scenario == "crash-follower":
        cluster.crash_node(victim)
        cluster.expire_session_of(victim)
        # wal.crash() just recomputed the floor from *durable* markers:
        # this is exactly what the restarted incarnation may assume.
        resume_floor = cluster.nodes[victim].wal.catchup_floor(COHORT)
        marks = _mark_served(cluster)
        note(f"crashed {victim} mid-stream; durable resume floor "
             f"{resume_floor}")
        cluster.run(0.5)
        cluster.restart_node(victim)
    elif scenario == "crash-leader":
        resume_floor = victim_replica.catchup_floor
        marks = _mark_served(cluster)
        dead = cluster.kill_leader(COHORT)
        note(f"crashed leader {dead} mid-stream; victim floor "
             f"{resume_floor}")
        cluster.run(0.5)
    else:  # roll-log
        resume_floor = victim_replica.catchup_floor
        marks = _mark_served(cluster)
        note("rolling the leader's log under the in-flight stream")
        write_burst(cluster, "cc-writer", keys, rounds=16, tag=b"mid")
        note(f"leader log min_retained now "
             f"{leader_node.wal.min_retained_lsn(COHORT)}")

    # 4. Convergence: the victim must end a fully caught-up follower.
    def caught_up() -> bool:
        lead = cluster.leader_of(COHORT)
        if lead is None or not cluster.nodes[victim].alive:
            return False
        lead_cmt = cluster.replica(lead, COHORT).committed_lsn
        return (victim_replica.role == Role.FOLLOWER
                and victim_replica.committed_lsn >= lead_cmt)

    try:
        cluster.run_until(caught_up, limit=120.0,
                          what="victim caught up after fault")
    except SimulationError as err:
        failures.append(f"victim never converged: {err}")
    cluster.run(1.0)

    # 5. Resume verification: nothing served to the victim after the
    #    fault may carry a table at or below its resume floor — state
    #    below the floor was durably installed and must not re-ship.
    served = _served_to(cluster, victim, marks)
    chunks_after = len(served)
    for entry in served:
        bad = [lsn for lsn in entry["table_max_lsns"]
               if lsn <= resume_floor]
        if bad:
            failures.append(
                f"re-shipped table(s) {bad} at/below resume floor "
                f"{resume_floor} (chunk at t={entry['t']:.4f})")
    if chunks_after == 0 and not failures:
        failures.append("no chunks served after the fault — scenario "
                        "did not exercise resume")
    if scenario == "roll-log":
        generations = {entry["source"] for entry in served}
        if len(generations) < 2:
            failures.append("log roll did not change the paging "
                            "generation under the in-flight stream")
    note(f"{chunks_after} chunks served to {victim} after the fault")

    # 6. Read-back: the victim's engine agrees with the leader on every
    #    key (it is a follower, so its committed state must match).
    lead = cluster.leader_of(COHORT)
    if lead is not None:
        lead_engine = cluster.replica(lead, COHORT).engine
        for key in keys:
            want = lead_engine.get(key, b"c")
            got = victim_replica.engine.get(key, b"c")
            if want is None:
                continue
            if got is None or got.value != want.value:
                failures.append(
                    f"{key!r}: victim read "
                    f"{None if got is None else got.value!r}, leader "
                    f"has {want.value!r}")
    for err in cluster.all_failures():
        failures.append(f"handler failure: {err!r}")
    return _finish(cluster, auditor, seed, scenario, failures,
                   resume_floor, tables_at_fault, chunks_after, log)


def _finish(cluster, auditor, seed, scenario, failures, resume_floor,
            tables_at_fault, chunks_after, log) -> CatchupChaosResult:
    auditor.final_audit()
    return CatchupChaosResult(
        seed=seed, scenario=scenario,
        invariant_violations=auditor.violations,
        failures=failures, resume_floor=resume_floor,
        tables_at_fault=tables_at_fault,
        chunks_after_fault=chunks_after, log=log)
