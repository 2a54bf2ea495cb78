"""The paper's evaluation (§9, §D) as one registry of experiments.

Appendix C's method — closed-loop client threads swept by doubling, a
fresh cluster per load point, both stores on identical hardware — is
written once, as :class:`Sweep` over :func:`~repro.bench.harness.curves`;
each sweep-shaped figure is a table entry of arms, a thread ladder and a
verdict.  The scenario experiments (recovery, elasticity, WAN, tuning)
stay plain functions over :func:`~repro.sim.process.drive` and a few
shared helpers.  Either way an experiment fills an
:class:`ExperimentResult`: labelled series (lists of
:class:`~repro.bench.harness.LoadPoint` or plain rows) plus automated
*shape checks* — the acceptance criteria from DESIGN.md (who wins, by
roughly what factor).  ``scale`` trades fidelity for wall time: 1.0 runs
the full sweeps recorded in EXPERIMENTS.md; the benchmark suite defaults
to a smaller scale.

:data:`ALL_EXPERIMENTS` is the only list of experiments: the report, the
CLI, ``benchmarks/`` and the docs check all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..chaos.catchup import write_burst
from ..chaos.invariants import InvariantAuditor
from ..chaos.nemesis import FaultEvent, arm_schedule
from ..core import Role, SpinnakerCluster, SpinnakerConfig
from ..core.checker import HistoryRecorder, check_strong_history
from ..core.datamodel import DatastoreError, RequestTimeout
from ..core.partition import key_of
from ..core.rebalance import Rebalancer, plan_join
from ..sim.disk import DiskProfile
from ..sim.metrics import Histogram
from ..sim.process import all_of, drive, spawn, timeout
from ..sim.topology import Topology
from .harness import (CassandraTarget, LoadPoint, SpinnakerTarget, curves,
                      scaled_ladder, scaled_ops, traced_point)
from .openloop import run_open_load
from .workload import (VALUE_SIZE, Workload, conditional_put_workload,
                       mixed_workload, read_workload, write_workload)

__all__ = ["ExperimentResult", "Experiment", "Sweep", "ALL_EXPERIMENTS"]

Series = Dict[str, List[LoadPoint]]
Verdict = Tuple[Dict[str, bool], str]       # (shape checks, notes)


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    series: Dict[str, List] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""
    #: per-phase latency attribution from a fixed-size traced probe run
    #: (see :func:`_phase_probe`); ``{op: {count, total_mean_ms, phases}}``
    #: as produced by :func:`repro.obs.phase_summary`.  Empty when the
    #: experiment defines no probe.
    phases: Dict[str, dict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class Experiment:
    """One registry row; calling it runs the experiment."""

    exp_id: str
    title: str
    #: ``body(result, scale, seed, **kwargs)`` fills the result: a
    #: :class:`Sweep` or a plain scenario function
    body: Callable[..., None]
    seed: int = 1
    #: the smoke tier (``benchmarks/``) raises ``REPRO_BENCH_SCALE`` to
    #: this where a smaller run cannot show the shape being checked
    smoke_floor: float = 0.0
    #: traced probe filling ``ExperimentResult.phases``, where defined
    probe: Optional[Callable[..., Dict[str, dict]]] = None

    def __call__(self, scale: float = 1.0, seed: Optional[int] = None,
                 **kwargs) -> ExperimentResult:
        seed = self.seed if seed is None else seed
        result = ExperimentResult(self.exp_id, self.title)
        self.body(result, scale, seed, **kwargs)
        if self.probe is not None:
            result.phases = self.probe(seed=seed, **kwargs)
        return result


#: one curve of a sweep: (target class, its config overrides, workload)
ArmSpec = Tuple[type, Dict[str, object], Workload]


def _fresh(target_cls, n_nodes: int, seed: int,
           **knobs) -> Callable[[], object]:
    """Factory of fresh targets; ``knobs`` override config fields."""
    config = target_cls.config_class(**knobs) if knobs else None
    return lambda: target_cls(n_nodes, config=config, seed=seed)


@dataclass(frozen=True)
class Sweep:
    """A sweep-shaped experiment body: Appendix C's method as data.

    Every arm is swept over the same scaled thread ladder, a fresh
    cluster per load point; ``verdict(series, scale)`` turns the curves
    into shape checks and notes.
    """

    ladder: Sequence[int]
    arms: Dict[str, ArmSpec]
    verdict: Callable[[Series, float], Verdict]
    ops: int = 40
    warmup: int = 10

    def __call__(self, result: ExperimentResult, scale: float, seed: int,
                 n_nodes: int = 10) -> None:
        result.series = curves(
            {label: (_fresh(cls, n_nodes, seed, **knobs), workload)
             for label, (cls, knobs, workload) in self.arms.items()},
            scaled_ladder(self.ladder, scale),
            scaled_ops(scale, self.ops), self.warmup)
        result.checks, result.notes = self.verdict(result.series, scale)


def _phase_probe(n_nodes: int = 10, seed: int = 1, workload=None,
                 **knobs) -> Dict[str, dict]:
    """One fixed-size traced load point for per-phase attribution.

    Deliberately *not* scaled by ``scale``: the probe is cheap (a few
    hundred requests, every one traced) and keeping its size fixed makes
    the ``phases`` section of ``BENCH_report.json`` comparable across
    report scales.  The probe runs a separate cluster from the latency
    sweeps, so tracing overhead can never contaminate the curves.
    """
    from ..obs import phase_summary
    _, tracer = traced_point(
        workload or write_workload(), threads=16, ops_per_thread=30,
        n_nodes=n_nodes, seed=seed,
        config=SpinnakerConfig(**knobs) if knobs else None)
    return phase_summary(tracer)


def _interp_at(points: List[LoadPoint], load: float) -> Optional[float]:
    """Mean latency (ms) interpolated at a given throughput."""
    pts = sorted(points, key=lambda p: p.throughput)
    if not pts or load < pts[0].throughput:
        return pts[0].mean_ms if pts else None
    for lo, hi in zip(pts, pts[1:]):
        if lo.throughput <= load <= hi.throughput:
            span = hi.throughput - lo.throughput
            if span <= 0:
                return lo.mean_ms
            frac = (load - lo.throughput) / span
            return lo.mean_ms * (1 - frac) + hi.mean_ms * frac
    return None  # beyond the curve's knee


def _max_load(points: List[LoadPoint]) -> float:
    return max(p.throughput for p in points)


# ---------------------------------------------------------------------------
# Figure 8: average read latency vs load
# ---------------------------------------------------------------------------

def _reads(mode: str, distribution: str = "uniform") -> Workload:
    return replace(read_workload(mode, preload_rows=500),
                   key_distribution=distribution)


def fig8_read_latency(series: Series, scale: float) -> Verdict:
    """§9.1: Spinnaker consistent/timeline vs Cassandra quorum/weak."""
    cons = series["spinnaker-consistent"]
    tl = series["spinnaker-timeline"]
    quo = series["cassandra-quorum"]
    weak = series["cassandra-weak"]
    # Shape checks (paper: quorum 1.5x-3.0x worse; knee sooner;
    # timeline ~= weak).
    ratios = []
    for point in quo:
        base = _interp_at(cons, point.throughput)
        if base:
            ratios.append(point.mean_ms / base)
    tl_low, weak_low = tl[0].mean_ms, weak[0].mean_ms
    return {
        "quorum_read_1.5x_to_3x_slower": (
            bool(ratios) and max(ratios) >= 1.5 and min(ratios) >= 1.0),
        "quorum_knee_before_consistent": (
            _max_load(quo) < 0.8 * _max_load(cons)),
        "timeline_matches_weak": abs(tl_low - weak_low) / weak_low < 0.25,
    }, (f"low-load ms: consistent={cons[0].mean_ms:.2f} "
        f"timeline={tl_low:.2f} quorum={quo[0].mean_ms:.2f} "
        f"weak={weak_low:.2f}")


FIG8 = Sweep([8, 24, 64, 128, 256, 384, 512], {
    "spinnaker-consistent": (SpinnakerTarget, {}, _reads("strong")),
    "spinnaker-timeline": (SpinnakerTarget, {}, _reads("timeline")),
    "cassandra-quorum": (CassandraTarget, {}, _reads("quorum")),
    "cassandra-weak": (CassandraTarget, {}, _reads("weak")),
}, fig8_read_latency, ops=50, warmup=15)


# ---------------------------------------------------------------------------
# Figure 9: average write latency vs load (SATA log)
# ---------------------------------------------------------------------------

def fig9_write_latency(series: Series, scale: float) -> Verdict:
    """§9.2: Spinnaker writes 5-10% slower than Cassandra quorum writes."""
    spin = series["spinnaker-writes"]
    cass = series["cassandra-quorum-writes"]
    gaps = [s.mean_ms / c.mean_ms - 1.0 for s, c in zip(spin, cass)]
    mean_gap = sum(gaps) / len(gaps)
    # Paper: 5-10% across the board.  Individual points are noisy at
    # small sample sizes, so bound each loosely and the mean tightly.
    return {
        "per_point_gap_reasonable": all(-0.08 <= g <= 0.25 for g in gaps),
        "mean_gap_roughly_5_to_10pct": 0.02 <= mean_gap <= 0.18,
    }, (f"mean gap {mean_gap:+.1%}; per point: "
        + ", ".join(f"{g:+.1%}" for g in gaps))


FIG9 = Sweep([4, 8, 16, 32, 64, 96], {
    "spinnaker-writes": (SpinnakerTarget, {}, write_workload()),
    "cassandra-quorum-writes": (CassandraTarget, {},
                                write_workload("quorum")),
}, fig9_write_latency)


# ---------------------------------------------------------------------------
# Table 1: cohort recovery time vs commit period
# ---------------------------------------------------------------------------

def table1_recovery(result: ExperimentResult, scale: float, seed: int
                    ) -> None:
    """§D.1: leader killed; recovery time proportional to commit period.

    Per the paper, the coordination-service failure-detection timeout is
    excluded: the leader's session is expired at kill time.
    """
    periods = [1.0, 5.0, 10.0, 15.0]
    if scale < 0.5:
        periods = [p for p in periods if p <= 5.0] or periods[:2]
    rows = _recovery_rows(periods, seed)
    result.series["recovery"] = rows
    times = [r["recovery_time_s"] for r in rows]
    result.checks["recovery_grows_with_commit_period"] = all(
        b > a for a, b in zip(times, times[1:]))
    result.checks["subsecond_at_1s_period"] = times[0] < 1.0
    if len(times) >= 2:
        slope = ((times[-1] - times[0])
                 / (rows[-1]["commit_period_s"] - rows[0]["commit_period_s"]))
        # The paper measures ~0.26 s of recovery per second of commit
        # period; proposal batching re-proposes the unresolved tail in
        # multi-record batches, cutting the constant to ~0.04 s/s while
        # keeping recovery proportional to the period (see
        # EXPERIMENTS.md, "Ablation: proposal batching").
        result.checks["roughly_linear_slope"] = 0.01 < slope < 1.0
        result.notes = (f"slope={slope:.3f} s/s (paper ~0.26 s/s "
                        f"unbatched; batched re-propose shrinks it)")


def _recovery_rows(periods: List[float], seed: int, **knobs) -> List[dict]:
    return [{"commit_period_s": period,
             "recovery_time_s": round(
                 _measure_recovery(period, seed, **knobs), 3)}
            for period in periods]


def _measure_recovery(commit_period: float, seed: int, **knobs) -> float:
    cfg = SpinnakerConfig(commit_period=commit_period, **knobs)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=seed)
    cluster.start()
    client = cluster.client("t1client")
    cohort_id = 0
    # A single client writes 4KB values routed to one cohort (§D.1).
    keys = cluster.keys_in_cohort(cohort_id, 5000, b"t1-")
    stop = {"stop": False}
    value = b"x" * VALUE_SIZE

    def writer():
        for key in keys:
            if stop["stop"]:
                return
            try:
                yield from client.put(key, b"v", value)
            except DatastoreError:
                continue

    spawn(cluster.sim, writer(), name="t1-writer")
    leader_name = cluster.leader_of(cohort_id)
    replica = cluster.replica(leader_name, cohort_id)
    # Let the pipeline warm up past one commit broadcast...
    cluster.run_until(lambda: replica.last_broadcast_at > 0, limit=60.0,
                      what="first commit broadcast")
    cluster.run(commit_period * 1.0)
    # ...then kill the leader just before the *next* commit message, so
    # the unresolved backlog spans (almost) a full commit period.
    target = replica.last_broadcast_at + 0.95 * commit_period
    if target > cluster.sim.now:
        cluster.run(target - cluster.sim.now)
    t_kill = cluster.sim.now
    cluster.kill_leader(cohort_id, skip_detection=True)
    stop["stop"] = True
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=300.0, step=0.01, what="re-election")
    return cluster.sim.now - t_kill


# ---------------------------------------------------------------------------
# Figure 11: write latency vs cluster size (EC2)
# ---------------------------------------------------------------------------

def fig11_scaling(result: ExperimentResult, scale: float,
                  seed: int) -> None:
    """§D.2: latency stays ~flat as the cluster grows (fixed per-node
    load).  EC2 could not disable the disk write cache, so the EC2 disk
    profile applies."""
    sizes = [20, 40, 80] if scale >= 1.0 else [10, 20, 40]
    threads_per_node = 3
    ops = scaled_ops(scale, 40)
    for n in sizes:
        points = curves({
            "spinnaker-writes": (
                _fresh(SpinnakerTarget, n, seed,
                       log_profile=DiskProfile.ec2_log()),
                write_workload()),
            "cassandra-quorum-writes": (
                _fresh(CassandraTarget, n, seed,
                       log_profile=DiskProfile.ec2_log()),
                write_workload("quorum"))},
            [n * threads_per_node], ops)
        for label, (point,) in points.items():
            result.series.setdefault(label, []).append(
                {"nodes": n, "mean_ms": point.mean_ms,
                 "throughput": point.throughput})
    for label, rows in result.series.items():
        lats = [r["mean_ms"] for r in rows]
        result.checks[f"{label}_flat"] = max(lats) / min(lats) < 1.35


# ---------------------------------------------------------------------------
# Figure 12: mixed workload, latency vs write percentage
# ---------------------------------------------------------------------------

def fig12_mixed(result: ExperimentResult, scale: float, seed: int) -> None:
    """§D.3: fixed load (2 client threads), write %% swept 0-60%."""
    fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    if scale < 0.5:
        fractions = [0.0, 0.1, 0.3, 0.5]
    ops = scaled_ops(scale, 120)
    threads = 2
    for label, target_cls, read_mode in (
            ("spinnaker-consistent-mix", SpinnakerTarget, "strong"),
            ("spinnaker-timeline-mix", SpinnakerTarget, "timeline"),
            ("cassandra-quorum-mix", CassandraTarget, "quorum"),
            ("cassandra-weak-mix", CassandraTarget, "weak")):
        factory = _fresh(target_cls, 10, seed)
        # The swept axis is the write %, so each "arm" is one mix and
        # the thread ladder has the single fixed rung.
        by_pct = curves(
            {int(frac * 100): (factory, mixed_workload(frac, read_mode))
             for frac in fractions}, [threads], ops)
        result.series[label] = [
            {"write_pct": pct, "mean_ms": point.mean_ms}
            for pct, (point,) in by_pct.items()]

    for label, rows in result.series.items():
        lats = [r["mean_ms"] for r in rows]
        result.checks[f"{label}_rises_with_writes"] = lats[-1] > lats[0]
    # At low write %, the consistent mix beats the quorum mix; at high
    # write %, Cassandra closes the gap / wins (paper: +10% vs -7%).
    spin = {r["write_pct"]: r["mean_ms"]
            for r in result.series["spinnaker-consistent-mix"]}
    cass = {r["write_pct"]: r["mean_ms"]
            for r in result.series["cassandra-quorum-mix"]}
    low = min(p for p in spin if p > 0)
    high = max(spin)
    result.checks["spinnaker_wins_low_write_pct"] = spin[low] < cass[low]
    result.checks["gap_narrows_or_flips_at_high_write_pct"] = (
        (cass[high] - spin[high]) / spin[high]
        < (cass[low] - spin[low]) / spin[low])


# ---------------------------------------------------------------------------
# Open-loop scale-out (north-star experiment, beyond the paper)
# ---------------------------------------------------------------------------

def fig12_scale(result: ExperimentResult, scale: float, seed: int) -> None:
    """Open-loop throughput scaling: node count swept to 512 under a
    fixed *per-node* Poisson offered load with ~2K modeled users per
    node (1,048,576 users at 512 nodes).

    The paper stops at 80 nodes with closed-loop clients (Fig. 11);
    this experiment pushes the repo's north-star claim — Spinnaker's
    per-cohort replication has no cluster-wide coordination on the data
    path, so completed throughput per node should stay flat as the
    cluster grows.  Open-loop arrivals (see :mod:`repro.bench.openloop`)
    keep the offered load independent of completions, so a node-count-
    dependent slowdown would surface as shed arrivals and rising
    latency rather than a silently self-throttled client loop.
    """
    if scale >= 1.0:
        sizes = [64, 128, 256, 512]
        users_per_node = 2048
    elif scale >= 0.2:
        sizes = [16, 32, 64]
        users_per_node = 512
    else:               # bench-smoke tier
        sizes = [8]
        users_per_node = 256
    per_node_rate = 30.0       # offered ops/sec per node, below the knee
    duration, warmup = 3.0, 1.0
    rows = []
    for n in sizes:
        cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log())
        target = SpinnakerTarget(n, config=cfg, seed=seed)
        point = run_open_load(
            target, mixed_workload(0.2, "strong"),
            n_users=n * users_per_node, rate=n * per_node_rate,
            duration=duration, warmup=warmup, shards=max(4, n // 8),
            seed=seed)
        rows.append({
            "nodes": n, "users": point.n_users,
            "active_users": point.active_users,
            "offered_per_s": point.offered_rate,
            "observed_offered_per_s": round(point.observed_offered, 1),
            "throughput": round(point.throughput, 1),
            "per_node_throughput": round(point.throughput / n, 2),
            "mean_ms": round(point.mean_ms, 3),
            "p50_ms": round(point.p50_ms, 3),
            "p95_ms": round(point.p95_ms, 3),
            "p99_ms": round(point.p99_ms, 3),
            "ops": point.ops, "errors": point.errors, "shed": point.shed,
            "user_state_mib": round(point.user_state_bytes / 2 ** 20, 2),
        })
    result.series["spinnaker-open-loop"] = rows
    per_node = [r["per_node_throughput"] for r in rows]
    ratio = max(per_node) / min(per_node) if min(per_node) > 0 else 1e9
    result.checks["throughput_linear"] = ratio < 1.25
    result.checks["no_overload_shedding"] = all(
        r["shed"] <= max(1, 0.01 * r["offered_per_s"] * duration)
        for r in rows)
    result.checks["latency_flat_across_sizes"] = (
        max(r["p95_ms"] for r in rows)
        / max(min(r["p95_ms"] for r in rows), 1e-9) < 2.0)
    result.checks["users_modeled"] = (
        rows[-1]["users"] >= sizes[-1] * users_per_node)
    result.notes = (
        f"per-node throughput {min(per_node):.1f}-{max(per_node):.1f} "
        f"ops/s across {sizes[0]}-{sizes[-1]} nodes "
        f"(max/min {ratio:.3f}); {rows[-1]['users']:,} modeled users at "
        f"{sizes[-1]} nodes in {rows[-1]['user_state_mib']} MiB of "
        f"per-user state")


# ---------------------------------------------------------------------------
# Figures 13-16 and ablations
# ---------------------------------------------------------------------------

def fig13_ssd(series: Series, scale: float) -> Verdict:
    """§D.4: SSD log drops write latency to ~6 ms or less."""
    spin = series["spinnaker-writes-ssd"]
    cass = series["cassandra-quorum-writes-ssd"]
    return {
        "most_points_under_6ms": (
            sum(p.mean_ms <= 6.0 for p in spin + cass)
            >= 0.7 * len(spin + cass)),
    }, (f"spinnaker low-load {spin[0].mean_ms:.2f} ms; "
        f"cassandra {cass[0].mean_ms:.2f} ms")


FIG13 = Sweep([8, 24, 64, 128, 256], {
    "spinnaker-writes-ssd": (
        SpinnakerTarget, {"log_profile": DiskProfile.ssd_log()},
        write_workload()),
    "cassandra-quorum-writes-ssd": (
        CassandraTarget, {"log_profile": DiskProfile.ssd_log()},
        write_workload("quorum")),
}, fig13_ssd)


def fig14_conditional_put(series: Series, scale: float) -> Verdict:
    """§D.5: conditional put marginally worse than regular put."""
    reg = series["regular-put"]
    cond = series["conditional-put"]
    gaps = [c.mean_ms / r.mean_ms - 1.0 for c, r in zip(cond, reg)]
    return {
        "conditional_marginally_worse": all(
            -0.03 <= g <= 0.35 for g in gaps),
        "conditional_not_free": sum(gaps) / len(gaps) > 0.0,
    }, "gap per point: " + ", ".join(f"{g:+.1%}" for g in gaps)


FIG14 = Sweep([4, 8, 16, 32, 64, 96], {
    "regular-put": (SpinnakerTarget, {}, write_workload()),
    "conditional-put": (SpinnakerTarget, {}, conditional_put_workload()),
}, fig14_conditional_put)


def fig15_weak_writes(series: Series, scale: float) -> Verdict:
    """§D.6.1: Cassandra quorum writes 40-50% slower than weak writes."""
    weak = series["cassandra-weak-writes"]
    quo = series["cassandra-quorum-writes"]
    gaps = [q.mean_ms / w.mean_ms - 1.0 for q, w in zip(quo, weak)]
    return {
        "quorum_25_to_70pct_slower": all(0.10 <= g <= 0.80 for g in gaps),
    }, "gap per point: " + ", ".join(f"{g:+.0%}" for g in gaps)


FIG15 = Sweep([4, 8, 16, 32, 64, 96], {
    "cassandra-weak-writes": (CassandraTarget, {}, write_workload("weak")),
    "cassandra-quorum-writes": (CassandraTarget, {},
                                write_workload("quorum")),
}, fig15_weak_writes)


def fig16_memory_log(series: Series, scale: float) -> Verdict:
    """§D.6.2: commit to 2-of-3 main-memory logs → ~2 ms writes."""
    points = series["spinnaker-writes-memlog"]
    return {
        "around_2ms_before_knee": min(p.mean_ms for p in points) <= 3.0,
    }, f"low-load latency {points[0].mean_ms:.2f} ms"


FIG16 = Sweep([8, 24, 64, 128, 256], {
    "spinnaker-writes-memlog": (
        SpinnakerTarget, {"log_profile": DiskProfile.memory_log()},
        write_workload()),
}, fig16_memory_log)


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------

def ablation_parallel_propose(series: Series, scale: float) -> Verdict:
    """Fig. 4's parallel force+propose vs a naive serialized leader."""
    par = series["parallel"]
    ser = series["serialized"]
    gaps = [s.mean_ms / p.mean_ms - 1.0 for p, s in zip(par, ser)]
    return {
        "parallel_is_faster": all(
            p.mean_ms < s.mean_ms for p, s in zip(par, ser)),
    }, "serialized penalty: " + ", ".join(f"{g:+.0%}" for g in gaps)


ABLATION_PARALLEL = Sweep([8, 32, 64], {
    "parallel": (SpinnakerTarget, {"parallel_force_and_propose": True},
                 write_workload()),
    "serialized": (SpinnakerTarget, {"parallel_force_and_propose": False},
                   write_workload()),
}, ablation_parallel_propose)


def ablation_group_commit(series: Series, scale: float) -> Verdict:
    """Group commit [13] under concurrent writers."""
    on = series["group-commit"]
    off = series["no-group-commit"]
    return {
        "group_commit_helps_under_load": on[-1].mean_ms < off[-1].mean_ms,
    }, ""


ABLATION_GROUP_COMMIT = Sweep([16, 48, 96], {
    "group-commit": (SpinnakerTarget, {"group_commit": True},
                     write_workload()),
    "no-group-commit": (SpinnakerTarget, {"group_commit": False},
                        write_workload()),
}, ablation_group_commit)


def ablation_piggyback_commits(result: ExperimentResult, scale: float,
                               seed: int) -> None:
    """§D.1's note: piggybacking commit info on proposes shrinks the
    unresolved window, making recovery time ~independent of the commit
    period."""
    periods = [1.0, 5.0] if scale < 1.0 else [1.0, 5.0, 10.0]
    # Batching off in both arms: batched takeover re-propose also
    # flattens recovery, which would mask the effect this ablation
    # isolates (the unresolved-window size).
    rows_plain = _recovery_rows(periods, seed, propose_batching=False)
    rows_piggy = _recovery_rows(periods, seed, propose_batching=False,
                                piggyback_commits=True)
    result.series["periodic-commit-msgs"] = rows_plain
    result.series["piggybacked-commits"] = rows_piggy
    spread_plain = (rows_plain[-1]["recovery_time_s"]
                    - rows_plain[0]["recovery_time_s"])
    spread_piggy = (rows_piggy[-1]["recovery_time_s"]
                    - rows_piggy[0]["recovery_time_s"])
    result.checks["piggyback_flattens_recovery"] = (
        spread_piggy < 0.5 * spread_plain)


def ablation_skewed_reads(series: Series, scale: float) -> Verdict:
    """Beyond the paper: Zipfian key skew concentrates strong reads on
    the hot range's leader, while timeline reads spread the hot range
    over its three replicas — quantifying the §8.3 trade-off ("all the
    reads for a cohort have to be routed to the cohort's leader")."""
    uniform = series["strong-uniform"]
    skewed = series["strong-zipfian"]
    timeline = series["timeline-zipfian"]
    return {
        # Skew hurts strong reads (hot leader saturates)...
        "skew_hurts_strong_reads": (
            skewed[-1].mean_ms > 1.2 * uniform[-1].mean_ms),
        # ...and timeline reads absorb the same skew far better.
        "timeline_absorbs_skew": timeline[-1].mean_ms < skewed[-1].mean_ms,
    }, (f"at {uniform[-1].threads} threads: strong-uniform "
        f"{uniform[-1].mean_ms:.1f} ms, strong-zipf "
        f"{skewed[-1].mean_ms:.1f} ms, timeline-zipf "
        f"{timeline[-1].mean_ms:.1f} ms")


ABLATION_SKEW = Sweep([64, 160, 256], {
    "strong-uniform": (SpinnakerTarget, {}, _reads("strong")),
    "strong-zipfian": (SpinnakerTarget, {}, _reads("strong", "zipfian")),
    "timeline-zipfian": (SpinnakerTarget, {},
                         _reads("timeline", "zipfian")),
}, ablation_skewed_reads, warmup=15)


def ablation_batching(series: Series, scale: float) -> Verdict:
    """Leader proposal batching: where does the write knee move?

    Fig. 16's memory-log configuration isolates the per-message CPU
    overheads that batching amortizes (no log device in the way).  Sweep
    the batch-size cap under heavy concurrency and locate the knee: the
    batcher should multiply peak throughput while an idle pipeline keeps
    flushing every write immediately (no low-load latency tax).
    """
    off = series["batching-off"]
    b8 = series["batch-8"]
    peak_off, peak_b8 = _max_load(off), _max_load(b8)
    checks = {}
    # The knee only shows once offered load saturates the unbatched
    # pipeline; smoke scales (< ~80 closed-loop threads) cannot drive it
    # there, so the throughput check needs a real sweep.
    if scale >= 0.25:
        checks["batch8_peak_1_5x"] = peak_b8 >= 1.5 * peak_off
        # Past the sweet spot returns plateau: cap 16 must stay in the
        # batched regime (well above off), not beat cap 8.
        checks["cap_16_stays_in_batched_regime"] = (
            _max_load(series["batch-16"]) >= 0.85 * peak_b8)
    checks["low_load_latency_within_5pct"] = (
        b8[0].mean_ms <= off[0].mean_ms * 1.05)
    return checks, (
        f"peak req/s: off={peak_off:.0f} "
        f"b4={_max_load(series['batch-4']):.0f} "
        f"b8={peak_b8:.0f} "
        f"b16={_max_load(series['batch-16']):.0f} "
        f"(knee shift {peak_b8 / peak_off:.2f}x); low-load ms: "
        f"off={off[0].mean_ms:.2f} b8={b8[0].mean_ms:.2f}")


def _batched(**knobs) -> ArmSpec:
    return (SpinnakerTarget,
            dict(knobs, log_profile=DiskProfile.memory_log()),
            write_workload())


ABLATION_BATCHING = Sweep([16, 128, 512, 1024], {
    "batching-off": _batched(propose_batching=False),
    "batch-4": _batched(propose_batch_max_records=4),
    "batch-8": _batched(propose_batch_max_records=8),
    "batch-16": _batched(propose_batch_max_records=16),
}, ablation_batching)


# ---------------------------------------------------------------------------
# Elastic scale-out: throughput ramps as nodes join under load
# ---------------------------------------------------------------------------

def _elastic_config() -> SpinnakerConfig:
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log())
    cfg.commit_period = 0.2
    # The moved range is briefly leaderless between the map switch and
    # the child cohort's first election; clients must ride that window
    # out on retries rather than surface it as a failed operation.
    cfg.client_op_timeout = 30.0
    cfg.client_max_retries = 600
    return cfg


def _observed_heat(cluster) -> Dict[int, float]:
    """Per-cohort load from the replicas' served-op counters — the
    planner input, measured rather than assumed."""
    heat: Dict[int, float] = {}
    for node in cluster.nodes.values():
        for cid, replica in node.replicas.items():
            heat[cid] = (heat.get(cid, 0.0) + replica.reads_served
                         + replica.writes_served)
    return heat


def _audited_join(cluster, joiner: str, settle: float, mid_move=None):
    """Split hot cohort 0 onto the fresh node ``joiner`` under the
    invariant auditor; ``mid_move(rebalancer, plans)`` may inject faults
    once the move is under way.  Returns (move seconds, converged,
    invariant violations)."""
    sim = cluster.sim
    cluster.add_node(joiner)
    plans = plan_join(cluster.partitioner, [joiner],
                      heat={c.cohort_id: (100.0 if c.cohort_id == 0
                                          else 1.0)
                            for c in cluster.partitioner.cohorts})
    auditor = InvariantAuditor(cluster)
    audit = spawn(sim, auditor.run(period=0.25))
    reb = Rebalancer(cluster)
    t0 = sim.now
    move = spawn(sim, reb.execute(plans, move_timeout=240.0))
    if mid_move is not None:
        mid_move(reb, plans)
    drive(cluster, move, limit=300.0, what=f"rebalance onto {joiner}")
    move_s = sim.now - t0
    cluster.run(settle)                 # settle before the final audit
    audit.interrupt("done")
    auditor.final_audit()
    return move_s, reb.done, auditor.violations


def _elastic_chaos_move(seed: int, crash_joiner: bool):
    """One audited split with a mid-move crash (the joining node or the
    migration leader); returns (converged, invariant violations)."""
    cluster = SpinnakerCluster(n_nodes=5, config=_elastic_config(),
                               seed=seed)
    cluster.start()
    client = cluster.client("chaos-seed")
    keys = cluster.keys_in_cohort(0, 10, b"chaos-")

    def writer():
        for key in keys:
            yield from client.put(key, b"v", b"x")
    drive(cluster, writer(), limit=120.0, what="chaos preload")

    def crash_mid_move(reb, plans):
        cluster.run_until(lambda: reb.attempts >= 1, limit=60.0,
                          what="first migration attempt")
        cluster.run(0.05)                   # land the crash mid-move
        if crash_joiner:
            cluster.crash_node("node5")
            cluster.expire_session_of("node5")
            cluster.run(1.0)
            cluster.restart_node("node5")
        else:
            killed = cluster.kill_leader(plans[0].cohort_id)
            cluster.run(1.0)
            if killed is not None:
                cluster.restart_node(killed)

    _, converged, violations = _audited_join(
        cluster, "node5", settle=2.0, mid_move=crash_mid_move)
    return converged, violations


def fig11_elastic(result: ExperimentResult, scale: float,
                  seed: int) -> None:
    """Beyond the paper (§10 future work): live cluster growth.

    A 5-node cluster serves a sustained mixed load skewed ~70% onto
    cohort 0's range; two nodes join mid-run and the rebalancer splits
    the hot range onto them (leader-driven migration, atomic map
    switch).  Throughput is measured before, during, and after the
    moves: the post-join window must show the hot range's knee lifted
    (>= 1.4x at full scale) with zero failed strong reads.  A chaos
    coda replays the move while crashing first the joining node, then
    the migration leader — the invariant auditor must stay clean.
    """
    threads = max(4, int(round(40 * scale)))
    window = max(2.0, 10.0 * scale)
    cluster = SpinnakerCluster(n_nodes=5, config=_elastic_config(),
                               seed=seed)
    cluster.start()
    sim = cluster.sim
    rng_master = cluster.rng.fork(f"elastic-{seed}")
    value = b"x" * VALUE_SIZE
    hot_keys = cluster.keys_in_cohort(0, 24, b"ek-")
    cold_keys = [b"ck-%d" % i for i in range(48)]

    seeder = cluster.client("elastic-seed")

    def preload():
        for key in hot_keys + cold_keys:
            yield from seeder.put(key, b"v", value)
    drive(cluster, preload(), limit=300.0, what="elastic preload")

    stop = {"flag": False}
    stats = {"ops": 0, "failed_strong": 0, "failed_writes": 0}

    def load_thread(tid: int):
        client = cluster.client(f"elastic{tid}")
        rng = rng_master.stream(f"thread-{tid}")
        while not stop["flag"]:
            keys = hot_keys if rng.random() < 0.7 else cold_keys
            key = keys[rng.randrange(len(keys))]
            is_write = rng.random() < 0.5
            try:
                if is_write:
                    yield from client.put(key, b"v", value)
                else:
                    yield from client.get(key, b"v", consistent=True)
            except RequestTimeout:
                stats["failed_writes" if is_write
                      else "failed_strong"] += 1
                continue
            stats["ops"] += 1

    load = [spawn(sim, load_thread(tid), name=f"elastic-thread-{tid}")
            for tid in range(threads)]

    def measure(duration: float) -> float:
        ops0, t0 = stats["ops"], sim.now
        cluster.run(duration)
        dt = sim.now - t0
        return (stats["ops"] - ops0) / dt if dt > 0 else 0.0

    cluster.run(3.0)                    # warm caches and leader routes
    before = measure(window)

    heat = _observed_heat(cluster)
    cluster.add_node("node5")
    cluster.add_node("node6")
    plans = plan_join(cluster.partitioner, ["node5", "node6"], heat=heat)
    reb = Rebalancer(cluster)
    move_t0, move_ops0 = sim.now, stats["ops"]
    drive(cluster, reb.execute(plans, move_timeout=300.0), limit=900.0,
          what="elastic rebalance")
    move_dt = sim.now - move_t0
    during = ((stats["ops"] - move_ops0) / move_dt if move_dt > 0
              else 0.0)

    cluster.run(1.0)                    # let the new leaders settle
    after = measure(window)

    stop["flag"] = True
    drive(cluster, all_of(sim, load), limit=120.0,
          what="elastic load drain")

    result.series["elastic"] = [
        {"phase": "before", "nodes": 5, "throughput": round(before, 1)},
        {"phase": "during-move", "nodes": 7,
         "throughput": round(during, 1)},
        {"phase": "after", "nodes": 7, "throughput": round(after, 1)},
    ]

    part = cluster.partitioner
    result.checks["converged"] = (
        reb.done and part.version == 1 + len(plans)
        and all(cluster.leader_of(c.cohort_id) is not None
                for c in part.cohorts))
    result.checks["new_nodes_lead_split_ranges"] = all(
        cluster.leader_of(p.new_cohort_id) == p.new_members[0]
        for p in plans)
    result.checks["zero_failed_strong_reads"] = (
        stats["failed_strong"] == 0)
    if scale >= 0.9:
        # Closed-loop throughput only lifts once the hot leader was the
        # bottleneck; smoke scales cannot drive it there.
        result.checks["peak_ratio_geq_1_4"] = after >= 1.4 * before
    joiner_ok, joiner_viol = _elastic_chaos_move(seed + 101,
                                                 crash_joiner=True)
    leader_ok, leader_viol = _elastic_chaos_move(seed + 202,
                                                 crash_joiner=False)
    result.checks["chaos_joiner_crash_clean"] = (
        joiner_ok and not joiner_viol)
    result.checks["chaos_leader_crash_clean"] = (
        leader_ok and not leader_viol)
    result.notes = (
        f"{threads} threads, 70% hot-range ops; req/s "
        f"before={before:.0f} during={during:.0f} after={after:.0f} "
        f"(ratio {after / before if before else 0.0:.2f}x); "
        f"move took {move_dt:.1f}s for {len(plans)} splits; "
        f"failed strong reads={stats['failed_strong']}; chaos "
        f"violations: joiner={len(joiner_viol)} "
        f"leader={len(leader_viol)}")


# ---------------------------------------------------------------------------
# Recovery ramp: rejoin time bounded by gap size, not history length
# ---------------------------------------------------------------------------

def _recovery_cluster(seed: int):
    """3 nodes with a tiny flush threshold and chunk budget: even short
    histories roll the log into many small SSTables, so rejoin exercises
    the chunked snapshot catch-up path rather than plain log replay.
    Returns the started cluster and 30 keys of cohort 0 — enough distinct
    keys that one write round exceeds the flush threshold (the memtable
    counts live cells, so overwrites don't accumulate)."""
    config = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                             commit_period=0.1,
                             flush_threshold_bytes=6_000,
                             catchup_chunk_bytes=8_192)
    cluster = SpinnakerCluster(n_nodes=3, config=config, seed=seed)
    cluster.start()
    return cluster, cluster.keys_in_cohort(0, 30, b"fr-")


def _measure_rejoin(seed: int, history_rounds: int,
                    gap_rounds: int) -> Dict[str, object]:
    """Crash a follower, write a fixed-size gap, restart it, and time
    the rejoin.  ``history_rounds`` of healthy traffic precede the
    crash: the 1x/10x knob that must *not* show up in the rejoin time."""
    cluster, keys = _recovery_cluster(seed)
    sim = cluster.sim
    write_burst(cluster, "fr-writer", keys, history_rounds, b"hist",
                limit=600.0)

    # The victim misses a fixed-size gap — identical at both histories.
    leader = cluster.leader_of(0)
    victim = next(m for m in cluster.partitioner.cohort(0).members
                  if m != leader)
    cluster.crash_node(victim)
    cluster.expire_session_of(victim)
    write_burst(cluster, "fr-writer", keys, gap_rounds, b"gap",
                limit=600.0)

    leader_node = cluster.nodes[cluster.leader_of(0)]
    leader_records = len(leader_node.wal.write_records(0))
    leader_markers = leader_node.wal.marker_count()
    target_cmt = cluster.replica(cluster.leader_of(0), 0).committed_lsn

    t0 = sim.now
    cluster.restart_node(victim)
    replica = cluster.replica(victim, 0)
    cluster.run_until(
        lambda: (replica.role == Role.FOLLOWER
                 and replica.committed_lsn >= target_cmt),
        limit=300.0, step=0.005, what="fig-recovery rejoin")
    return {
        "history_rounds": history_rounds,
        "gap_rounds": gap_rounds,
        "rejoin_s": round(sim.now - t0, 4),
        "chunks": replica.catchup_chunks_ingested,
        "tables": replica.catchup_tables_ingested,
        "leader_wal_records": leader_records,
        "leader_wal_markers": leader_markers,
        "failures": len(cluster.all_failures()),
    }


def _measure_elastic_ramp(seed: int,
                          history_rounds: int) -> Dict[str, object]:
    """One audited fig11-elastic-style join after ``history_rounds`` of
    history: the split joiner is repaired through the same chunked
    snapshot-install path, so the move time must track the live data
    size, not the history length."""
    cluster, keys = _recovery_cluster(seed)
    write_burst(cluster, "fr-elastic", keys, history_rounds, b"e",
                limit=600.0)
    move_s, converged, violations = _audited_join(cluster, "node3",
                                                  settle=1.0)
    return {"history_rounds": history_rounds,
            "move_s": round(move_s, 4),
            "converged": bool(converged),
            "violations": len(violations)}


def fig_recovery(result: ExperimentResult, scale: float,
                 seed: int) -> None:
    """Beyond the paper: crash-resumable snapshot catch-up (§6.1 plus
    the chunked-transfer extension).

    A follower misses a *fixed-size* write gap after 1x and after 10x
    total history.  Snapshot manifests bound the leader's log and marker
    list, and chunked catch-up ships only gap-covering tables, so the
    rejoin time must track the gap, not the history.  An elastic coda
    replays the fig11-elastic join ramp at both histories through the
    same snapshot-install path.
    """
    base = max(2, int(round(8 * scale)))
    gap = max(2, int(round(6 * scale)))

    rows = []
    for label, rounds in (("1x", base), ("10x", 10 * base)):
        row = _measure_rejoin(seed, rounds, gap)
        row["history"] = label
        rows.append(row)
    result.series["rejoin"] = rows
    r1, r10 = rows
    result.checks["no_handler_failures"] = all(
        r["failures"] == 0 for r in rows)
    # Rejoin at 10x history must be bounded by the (identical) gap; 3x
    # plus scheduling slack is far below what a history-proportional
    # catch-up would show.
    result.checks["rejoin_bounded_by_gap"] = (
        r10["rejoin_s"] <= 3.0 * r1["rejoin_s"] + 0.5)
    # Retention keyed off the manifest horizon keeps the leader's log
    # and marker list bounded as the history grows 10x.
    result.checks["wal_records_bounded"] = (
        r10["leader_wal_records"]
        <= 3 * max(r1["leader_wal_records"], 1) + 64)
    result.checks["wal_markers_bounded"] = (
        r10["leader_wal_markers"]
        <= 3 * max(r1["leader_wal_markers"], 1) + 64)

    ramps = []
    for label, rounds in (("1x", base), ("10x", 10 * base)):
        ramp = _measure_elastic_ramp(seed + 7, rounds)
        ramp["history"] = label
        ramps.append(ramp)
    result.series["elastic-ramp"] = ramps
    e1, e10 = ramps
    result.checks["elastic_ramp_clean"] = all(
        r["converged"] and r["violations"] == 0 for r in ramps)
    result.checks["elastic_ramp_bounded"] = (
        e10["move_s"] <= 3.0 * e1["move_s"] + 0.5)
    result.notes = (
        f"gap={gap} rounds; rejoin 1x={r1['rejoin_s']:.3f}s "
        f"10x={r10['rejoin_s']:.3f}s "
        f"(ratio {r10['rejoin_s'] / r1['rejoin_s'] if r1['rejoin_s'] else 0.0:.2f}x); "
        f"leader WAL records 1x={r1['leader_wal_records']} "
        f"10x={r10['leader_wal_records']}, markers "
        f"1x={r1['leader_wal_markers']} 10x={r10['leader_wal_markers']}; "
        f"elastic move 1x={e1['move_s']:.2f}s 10x={e10['move_s']:.2f}s")


# ---------------------------------------------------------------------------
# fig-wan: multi-datacenter latency/consistency frontier
# ---------------------------------------------------------------------------

def _wan_cluster(seed: int, placement: str):
    """A realistic 3-DC WAN: ~25 ms one-way base propagation, routes
    asymmetric by up to 25%, 9 nodes round-robin across datacenters."""
    topo = Topology.round_robin(9, asymmetry=0.25)
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.25)
    cluster = SpinnakerCluster(n_nodes=9, config=cfg, seed=seed,
                               topology=topo, placement=placement)
    cluster.start()
    return cluster, topo


def _wan_keys(cluster, topo: Topology, dc: str, count: int,
              prefix: bytes = b"wan") -> List[bytes]:
    """Deterministic keys whose cohort leader currently sits in ``dc``
    (so client → leader is a LAN hop and the measured latency isolates
    the replication path)."""
    keys: List[bytes] = []
    i = 0
    while len(keys) < count and i < 4096:
        key = b"%s-%d" % (prefix, i)
        cohort = cluster.partitioner.cohort_for_key(key_of(key))
        leader = cluster.leader_of(cohort.cohort_id)
        if leader is not None and topo.dc_of(leader) == dc:
            keys.append(key)
        i += 1
    return keys


def _wan_client(cluster, topo: Topology, name: str, dc: str):
    topo.place(name, dc)
    return cluster.client(name)


def _op_loop(cluster, client, op, keys: List[bytes], count: int,
             pace: float, hist: Histogram, failures: List[int]):
    for i in range(count):
        start = cluster.sim.now
        try:
            yield from op(client, keys[i % len(keys)], i)
        except DatastoreError:
            failures[0] += 1
        else:
            hist.add(cluster.sim.now - start)
        yield timeout(cluster.sim, pace)


def _paced_ops(cluster, client, op, keys: List[bytes], count: int,
               pace: float, **where) -> dict:
    """Drive ``count`` paced ops to completion; their latency row,
    tagged with ``where`` (placement, client datacenter)."""
    hist, failures = Histogram(), [0]
    drive(cluster,
          _op_loop(cluster, client, op, keys, count, pace, hist, failures),
          limit=count * (pace + 5.0) + 30.0,
          what=f"wan ops via {client.name}",
          name=f"wan-ops-{client.name}")
    row = {"count": hist.count, "mean_ms": 0.0, "p50_ms": 0.0,
           "p95_ms": 0.0, "failures": failures[0]}
    if hist.count:
        row.update(mean_ms=round(hist.mean() * 1e3, 3),
                   p50_ms=round(hist.percentile(50) * 1e3, 3),
                   p95_ms=round(hist.percentile(95) * 1e3, 3))
    row.update(where)
    return row


def fig_wan(result: ExperimentResult, scale: float, seed: int) -> None:
    """Beyond the paper: the multi-datacenter latency/consistency
    frontier (3 DCs, ~25 ms one-way WAN links, asymmetric routes).

    Strong writes whose replicas are spread one-per-DC pay at least one
    WAN round trip per commit (the quorum ack must cross a WAN link);
    pinning the quorum's majority inside the client's datacenter
    ("local" placement) buys LAN-latency strong writes at the cost of a
    whole-DC failure forcing a cross-DC failover; timeline reads served
    by the client's nearest replica stay well under one WAN RTT from a
    remote DC.  A chaos coda then (a) degrades a WAN link by less than
    the lease margin — sessions must not flap — and (b) partitions a
    whole datacenter — writes keep committing on the surviving
    majority — under invariant audit and a strong-history check.
    """
    n_ops = max(10, int(round(60 * scale)))
    n_keys = max(4, int(round(12 * scale)))
    pace = 0.05

    def put(client, key, i):
        return (yield from client.put(key, b"c", b"w%d" % i))

    def timeline_get(client, key, i):
        return (yield from client.get(key, b"c", consistent=False))

    # -- cross-DC quorum writes + timeline reads (spread placement) -----
    cluster, topo = _wan_cluster(seed, "spread")
    wan_floor_ms = topo.min_wan_rtt() * 1e3
    keys = _wan_keys(cluster, topo, "dc0", n_keys)
    writer = _wan_client(cluster, topo, "wan-w0", "dc0")
    cross_row = _paced_ops(cluster, writer, put, keys, n_ops, pace,
                           placement="spread", client_dc="dc0")
    cluster.run(1.0)   # let commits propagate to the remote followers
    reader = _wan_client(cluster, topo, "wan-r1", "dc1")
    tl_row = _paced_ops(cluster, reader, timeline_get, keys, n_ops, pace,
                        placement="spread", client_dc="dc1")
    result.series["cross-dc-quorum-writes"] = [cross_row]
    result.series["timeline-reads"] = [tl_row]

    # -- chaos coda on the spread cluster -------------------------------
    sim = cluster.sim
    recorder = HistoryRecorder()
    auditor = InvariantAuditor(cluster)
    coda_ops = int(round(4.5 / pace))
    spawn(sim, auditor.run(0.25, until=sim.now + 12.0), name="wan-auditor")

    coda_w = _wan_client(cluster, topo, "wan-coda-w", "dc0")
    coda_r = _wan_client(cluster, topo, "wan-coda-r", "dc0")
    # Fresh keys: the recorded history must contain every write whose
    # version a recorded read can observe, or the checker rightly
    # flags versions appearing from nowhere.
    coda_keys = _wan_keys(cluster, topo, "dc0", n_keys, prefix=b"coda")

    def rec_put(client, key, i):
        start = sim.now
        try:
            res = yield from client.put(key, b"c", b"x%d" % i)
        except DatastoreError:
            recorder.record_write(key, start, sim.now, 0, ok=False)
            raise
        recorder.record_write(key, start, sim.now, res.version)

    def rec_get(client, key, i):
        start = sim.now
        got = yield from client.get(key, b"c", consistent=True)
        recorder.record_read(key, start, sim.now, got.version)

    w_hist, r_hist = Histogram(), Histogram()
    w_fail, r_fail = [0], [0]
    wproc = spawn(sim, _op_loop(cluster, coda_w, rec_put, coda_keys,
                                coda_ops, pace, w_hist, w_fail),
                  name="wan-coda-w")
    rproc = spawn(sim, _op_loop(cluster, coda_r, rec_get, coda_keys,
                                coda_ops, pace, r_hist, r_fail),
                  name="wan-coda-r")

    losses_before = sum(n.session_losses
                        for n in cluster.nodes.values())
    # (a) a merely-slow WAN link: +10 ms one-way, far below the lease
    # margin — heartbeats must ride it out without a session flap
    log = arm_schedule(cluster, [FaultEvent(
        at=0.1, kind="wan-degrade", duration=1.5, a="dc0", b="dc1",
        extra=0.010)])
    cluster.run(2.0)
    degrade_losses = (sum(n.session_losses
                          for n in cluster.nodes.values())
                      - losses_before)
    # (b) a whole datacenter drops off the map; the measured cohorts
    # (leader dc0, follower dc1) keep their commit quorum throughout
    arm_schedule(cluster, [FaultEvent(
        at=0.2, kind="partition-dc", duration=1.5, a="dc2")], log)
    drive(cluster, all_of(sim, [wproc, rproc]), limit=90.0,
          what="wan chaos coda")
    cluster.run_until(cluster.is_ready, limit=60.0,
                      what="post-coda recovery")
    cluster.run(1.0)
    auditor.final_audit()
    history_violations = check_strong_history(recorder)
    result.series["chaos-coda"] = [{
        "writes_acked": w_hist.count,
        "write_failures": w_fail[0],
        "strong_reads": r_hist.count,
        "read_failures": r_fail[0],
        "session_flaps_under_degrade": degrade_losses,
        "invariant_violations": len(auditor.violations),
        "history_violations": len(history_violations),
        "faults": len(log),
    }]

    # -- local-quorum writes (majority pinned in the client's DC) -------
    cluster2, topo2 = _wan_cluster(seed + 1, "local")
    keys2 = _wan_keys(cluster2, topo2, "dc0", n_keys)
    writer2 = _wan_client(cluster2, topo2, "wan-w0", "dc0")
    local_row = _paced_ops(cluster2, writer2, put, keys2, n_ops, pace,
                           placement="local", client_dc="dc0")
    result.series["local-quorum-writes"] = [local_row]

    result.checks["cross_dc_writes_pay_wan_rtt"] = (
        cross_row["count"] > 0 and cross_row["p50_ms"] >= wan_floor_ms)
    result.checks["local_writes_below_wan_rtt"] = (
        local_row["count"] > 0 and local_row["p95_ms"] < wan_floor_ms)
    result.checks["timeline_reads_below_wan_rtt"] = (
        tl_row["count"] > 0 and tl_row["p95_ms"] < wan_floor_ms)
    result.checks["measure_ops_clean"] = all(
        row["failures"] == 0 for row in (cross_row, tl_row, local_row))
    result.checks["no_lease_flap_under_degrade"] = degrade_losses == 0
    result.checks["writes_survive_dc_partition"] = (
        w_fail[0] == 0 and w_hist.count > 0)
    result.checks["auditor_clean"] = not auditor.violations
    result.checks["history_clean"] = not history_violations
    result.notes = (
        f"min WAN RTT {wan_floor_ms:.1f} ms; strong writes "
        f"cross-DC p50={cross_row['p50_ms']:.1f} ms vs local-quorum "
        f"p50={local_row['p50_ms']:.1f} ms; timeline reads from dc1 "
        f"p95={tl_row['p95_ms']:.1f} ms; coda: {w_hist.count} writes "
        f"through WAN degrade + dc2 partition, "
        f"{degrade_losses} session flaps")


def fig_tune(result: ExperimentResult, scale: float, seed: int) -> None:
    """Self-tuned knobs vs hand-tuned defaults (repro.tune).

    Two arms.  The *default arm* runs the offline tuner from the
    hand-tuned defaults on each flat hardware profile and reports the
    tuned-vs-baseline deltas — where hand-tuning was already optimal the
    honest result is parity, and the ledger still has to show a
    converging multi-trial search.  The *recovery arm* starts the same
    search from a deliberately detuned config (batching and group
    commit off, commit broadcasts stalled) and must climb back to
    within noise of the hand-tuned optimum — evidence the search, not
    the starting point, does the work.
    """
    from ..tune.profiles import DETUNED_START
    from ..tune.search import TuneResult, tune

    profiles = ("sata", "ssd", "mem") if scale >= 0.25 else ("sata",)
    # Per-trial cost already scales with ``scale``; the budget does not,
    # so the search is never truncated mid-pass at small report scales.
    budget = 48

    def ledger_ok(res: TuneResult) -> bool:
        best_seen = res.trials[0].best_so_far
        for trial in res.trials:
            if trial.best_so_far > best_seen + 1e-9:
                return False
            best_seen = trial.best_so_far
        return (len(res.trials) >= 2
                and res.best_score <= res.baseline_score + 1e-9)

    runs: Dict[str, TuneResult] = {}
    rows = []
    for name in profiles:
        res = tune(name, seed=seed, max_trials=budget, scale=scale)
        runs[name] = res
        base = res.baseline.eval.metrics
        best = res.best_trial.eval.metrics
        rows.append({
            "profile": name,
            "baseline_p50_ms": base["p50_ms"],
            "tuned_p50_ms": best["p50_ms"],
            "p50_delta_pct": round(
                100.0 * (best["p50_ms"] - base["p50_ms"])
                / base["p50_ms"], 2),
            "baseline_rps": round(base["throughput"], 1),
            "tuned_rps": round(best["throughput"], 1),
            "rps_delta_pct": round(
                100.0 * (best["throughput"] - base["throughput"])
                / base["throughput"], 2),
            "trials": len(res.trials),
            "knobs_adopted": len(res.best_values),
            "converged": res.converged,
        })
    result.series["tuned-vs-hand-tuned"] = rows

    # recovery arm: always SATA — the profile where the detuned config
    # hurts most (no batching + no group commit on a seeking disk)
    rec = tune("sata", seed=seed, max_trials=budget, scale=scale,
               start=DETUNED_START)
    hand = runs["sata"].baseline.eval.metrics
    det = rec.baseline.eval.metrics
    recm = rec.best_trial.eval.metrics
    result.series["recovery"] = [{
        "profile": "sata",
        "detuned_p50_ms": det["p50_ms"],
        "recovered_p50_ms": recm["p50_ms"],
        "hand_tuned_p50_ms": hand["p50_ms"],
        "detuned_rps": round(det["throughput"], 1),
        "recovered_rps": round(recm["throughput"], 1),
        "hand_tuned_rps": round(hand["throughput"], 1),
        "trials": len(rec.trials),
        "converged": rec.converged,
    }]

    deltas = [(r["p50_delta_pct"], r["rps_delta_pct"]) for r in rows]
    result.checks["ledger_converges_monotone"] = all(
        ledger_ok(r) for r in list(runs.values()) + [rec])
    result.checks["tuned_not_worse"] = all(
        r["tuned_p50_ms"] <= r["baseline_p50_ms"] * 1.03
        and r["tuned_rps"] >= r["baseline_rps"] * 0.97 for r in rows)
    result.checks["improves_or_parity"] = (
        any(dp <= -5.0 or dt >= 5.0 for dp, dt in deltas)
        or all(abs(dp) <= 2.5 and abs(dt) <= 2.5 for dp, dt in deltas))
    # recovery quality needs enough load for the detuning to bite;
    # below that the arm still exercises the code path
    if scale >= 0.25:
        result.checks["search_converged"] = all(
            r.converged for r in runs.values())
        result.checks["recovery_reaches_hand_tuned"] = (
            recm["p50_ms"] <= hand["p50_ms"] * 1.10
            and recm["throughput"] >= hand["throughput"] * 0.90)
        result.checks["recovery_search_pays"] = (
            rec.best_score < rec.baseline_score - 1e-6)
    best_row = min(rows, key=lambda r: r["p50_delta_pct"])
    result.notes = (
        f"budget {budget} trials/profile (seed {seed}); best default-arm "
        f"delta: {best_row['profile']} p50 "
        f"{best_row['p50_delta_pct']:+.1f}%, throughput "
        f"{best_row['rps_delta_pct']:+.1f}%; recovery arm (sata): "
        f"p50 {det['p50_ms']:.2f} -> {recm['p50_ms']:.2f} ms vs "
        f"hand-tuned {hand['p50_ms']:.2f} ms in {len(rec.trials)} trials")


# ---------------------------------------------------------------------------
# The registry: report, CLI, benchmarks/ and the docs check all read it
# ---------------------------------------------------------------------------

ALL_EXPERIMENTS: Dict[str, Experiment] = {exp.exp_id: exp for exp in (
    Experiment("fig8", "Average read latency vs load", FIG8,
               probe=lambda **kw: _phase_probe(
                   workload=read_workload("strong", preload_rows=500),
                   **kw)),
    Experiment("fig9", "Average write latency vs load", FIG9,
               probe=_phase_probe),
    Experiment("table1", "Cohort recovery time vs commit period",
               table1_recovery, seed=2),
    Experiment("fig11", "Write latency vs cluster size (EC2)",
               fig11_scaling),
    Experiment("fig11-elastic",
               "Elastic growth: throughput vs cluster size", fig11_elastic),
    Experiment("fig-recovery",
               "Rejoin time vs history length (fixed catch-up gap)",
               fig_recovery),
    Experiment("fig-wan",
               "WAN latency/consistency frontier (3 datacenters)", fig_wan),
    Experiment("fig12", "Mixed workload latency vs write %", fig12_mixed),
    # The probe runs the open-loop sweep's mixed workload at probe size:
    # per-phase attribution is per-request and size-invariant, so the
    # small traced cluster explains where the big sweep's latency goes.
    Experiment("fig12-scale", "Open-loop throughput scaling to 512 nodes",
               fig12_scale,
               probe=lambda **kw: _phase_probe(
                   workload=mixed_workload(0.2, "strong"),
                   log_profile=DiskProfile.ssd_log(), **kw)),
    Experiment("fig13", "Write latency with an SSD log", FIG13,
               probe=lambda **kw: _phase_probe(
                   log_profile=DiskProfile.ssd_log(), **kw)),
    Experiment("fig14", "Conditional put vs regular put", FIG14),
    Experiment("fig15", "Cassandra weak vs quorum writes", FIG15),
    Experiment("fig16", "Writes with a main-memory log", FIG16,
               probe=lambda **kw: _phase_probe(
                   log_profile=DiskProfile.memory_log(), **kw)),
    Experiment("ablation-parallel", "Parallel vs serialized force+propose",
               ABLATION_PARALLEL),
    Experiment("ablation-groupcommit", "Group commit on vs off",
               ABLATION_GROUP_COMMIT),
    Experiment("ablation-piggyback", "Commit piggybacking vs recovery time",
               ablation_piggyback_commits, seed=3),
    # Below ~0.4 the scaled ladder never saturates the hot leader.
    Experiment("ablation-skew",
               "Uniform vs Zipfian reads (strong vs timeline)",
               ABLATION_SKEW, smoke_floor=0.4),
    Experiment("ablation-batching",
               "Proposal batching: throughput knee vs cap",
               ABLATION_BATCHING),
    Experiment("fig-tune", "Self-tuned knobs vs hand-tuned defaults",
               fig_tune),
)}
