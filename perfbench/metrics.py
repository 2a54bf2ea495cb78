"""The metric catalogue and how each value is derived from a run.

Two clocks, always named: ``sim_*`` (and every ``obs.phase.*``,
``bench.read.*``, ``bench.write.*``, ``bench.ladder.*``) is simulated time —
what modelled Spinnaker would take, deterministic per seed.  ``host_*``,
``setup_s`` and every ``*.self_share`` is host time — what the simulator
costs the person running it, noisy.  Counts (``*_per_op`` and friends) are
exact and repeat per seed.

``BENCHMARK.json`` is generated from :func:`benchmark_spec`; the test
fails when the two disagree.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from repro.obs import collect_traces, phase_durations

from calibrate import RefClock
from layers import LAYERS
from workloads import LADDER_RATES, VALUE_SIZE, Load

#: name, unit, better, bound (share of the parent's median by which the
#: metric may get worse).  The simulated-clock bounds are set by the
#: spread *across seeds* (README, "Bounds"); for one seed they repeat
#: exactly and compare.py holds them to that.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("host_ops_per_s", "1/s", "higher", 0.10),
    ("sim_p50_ms", "ms", "lower", 0.05),
    ("sim_p99_ms", "ms", "lower", 0.25),
    ("sim_ops_per_s", "1/s", "higher", 0.05),
)

PHASES = ("route", "propose", "log_force", "replicate_rtt", "quorum_wait",
          "commit_apply", "reply", "read_serve")

#: name, unit, better
PER_LAYER = tuple(
    [(f"{layer}.self_share", "share", "lower") for layer in LAYERS]
    + [(f"{layer}.calls_per_op", "count", "lower") for layer in LAYERS]
    + [
        ("sim.kernel.events_per_op", "count", "lower"),
        ("sim.network.msgs_per_op", "count", "lower"),
        ("sim.network.dropped", "count", "lower"),
        ("sim.disk.forces_per_op", "count", "lower"),
        ("sim.disk.device_ops_per_op", "count", "lower"),
        ("sim.disk.group_commit_factor", "count", "higher"),
        ("storage.wal.appends_per_op", "count", "lower"),
        ("storage.wal.log_bytes_per_user_byte", "count", "lower"),
        ("storage.engine.applies_per_op", "count", "lower"),
        ("storage.engine.gets_per_op", "count", "lower"),
        ("storage.engine.flushes", "count", "lower"),
        ("storage.engine.compactions", "count", "lower"),
        ("core.replication.proposes_per_write", "count", "lower"),
        ("core.replication.records_per_propose", "count", "higher"),
        ("core.replication.handle_propose_per_write", "count", "lower"),
        ("core.api.retries_per_op", "count", "lower"),
        ("coord.requests_per_op", "count", "lower"),
        ("coord.session_expiries", "count", "lower"),
        ("core.recovery.epoch_bumps", "count", "lower"),
        ("core.recovery.catchup_chunks", "count", "lower"),
        ("core.recovery.unavail_fast_detect_s", "s", "lower"),
    ]
    + [(f"obs.phase.{phase}_ms", "ms", "lower") for phase in PHASES]
    + [
        ("bench.read.p50_ms", "ms", "lower"),
        ("bench.read.p99_ms", "ms", "lower"),
        ("bench.write.p50_ms", "ms", "lower"),
        ("bench.write.p99_ms", "ms", "lower"),
        ("bench.samples", "count", "higher"),
        ("bench.reps", "count", "higher"),
        ("bench.host_s_min", "s", "lower"),
        ("bench.host_s_median", "s", "lower"),
        ("bench.host_s_iqr", "s", "lower"),
        ("bench.host_raw_s_median", "s", "lower"),
        ("bench.calib_ms_median", "ms", "lower"),
        ("bench.peak_rss_mb", "MB", "lower"),
        ("bench.trace_overhead_ratio", "ratio", "lower"),
        ("bench.gen_late_ms", "ms", "lower"),
        # End-to-end in nature, but defined on one workload only (0 on
        # the others), and the contract wants every end-to-end metric on
        # every workload; compare.py bounds them all the same.
        ("failed_ops_share", "share", "lower"),
        ("sim_slo_rate_ops_s", "1/s", "higher"),
        ("sim_unavail_s", "s", "lower"),
        ("sim_rejoin_s", "s", "lower"),
    ]
    + [(f"bench.ladder.p99_ms.r{rate}", "ms", "lower")
       for rate in LADDER_RATES]
    + [(f"bench.ladder.shed.r{rate}", "count", "lower")
       for rate in LADDER_RATES])

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_spec(workloads, run_seconds: int) -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def percentile(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending sequence; 0 if empty."""
    if not ordered:
        return 0.0
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def counters(load: Load) -> Dict[str, float]:
    """Public counters of the cluster, summed; callers take deltas over
    the timed region so preload and boot are not charged to the load."""
    cluster = load.cluster
    stats = cluster.stats()
    nodes = list(stats["nodes"].values())
    replicas = [r for node in cluster.nodes.values()
                for r in node.replicas.values()]
    epochs: Dict[int, int] = {}
    for r in replicas:
        epochs[r.cohort_id] = max(epochs.get(r.cohort_id, 0), r.epoch)
    return {
        "msgs": stats["network"]["messages_sent"],
        "dropped": stats["network"]["messages_dropped"],
        "forces": sum(n["log_forces"] for n in nodes),
        "log_bytes": sum(n["log_bytes"] for n in nodes),
        "device_ops": sum(node.device.ops_performed
                          for node in cluster.nodes.values()),
        "proposes": sum(n["propose_batches_sent"] for n in nodes),
        "records": sum(n["records_batched"] for n in nodes),
        "handled": sum(n["proposes_handled"] for n in nodes),
        "flushes": sum(n["flushes"] for n in nodes),
        "compactions": sum(r.engine.compactions for r in replicas),
        "catchup_chunks": sum(r.catchup_chunks_ingested for r in replicas),
        "expiries": cluster.coord.expired_sessions,
        "epochs": sum(epochs.values()),
        "retries": sum(c.retries for c in load.clients),
    }


def sim_summary(load: Load, digest: str, before: Dict[str, float],
                after: Dict[str, float]) -> dict:
    """Everything about one repetition that the seed alone determines;
    ``before``/``after`` are :func:`counters` around the timed region."""
    read, write = sorted(load.read_lat), sorted(load.write_lat)
    both = sorted(read + write)
    window = load.last_done - (load.first_due or 0.0)
    return {
        "digest": digest,
        "attempted": load.attempted, "failed": load.failed,
        "shed": load.shed, "executed": load.executed,
        "writes": load.writes, "samples": len(both),
        "p50_ms": percentile(both, 50) * 1e3,
        "p99_ms": percentile(both, 99) * 1e3,
        "ops_per_s": _ratio(len(both), window),
        "read_p50_ms": percentile(read, 50) * 1e3,
        "read_p99_ms": percentile(read, 99) * 1e3,
        "write_p50_ms": percentile(write, 50) * 1e3,
        "write_p99_ms": percentile(write, 99) * 1e3,
        "delta": {k: after[k] - before[k] for k in after},
        "extras": dict(load.extras),
    }


def phase_medians(tracer, since: float) -> Dict[str, float]:
    """Simulated-clock median of each request phase, in ms, over the
    completed traces that began at or after simulated time ``since``
    (the start of the timed region: preload is traced too)."""
    samples: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    for view in collect_traces(tracer):
        if view.completed and view.root.start >= since:
            for phase, seconds in phase_durations(view).items():
                if phase in samples:
                    samples[phase].append(seconds)
    return {phase: statistics.median(v) * 1e3 if v else 0.0
            for phase, v in samples.items()}


def end_to_end(sim: dict, setups: List[RefClock],
               timeds: List[RefClock]) -> Dict[str, float]:
    """Host-clock values are medians over the repetitions, in seconds at
    reference speed (calibrate.py)."""
    return {
        "setup_s": statistics.median(c.ref_s for c in setups),
        "host_ops_per_s": sim["executed"] / statistics.median(
            c.ref_s for c in timeds),
        "sim_p50_ms": sim["p50_ms"],
        "sim_p99_ms": sim["p99_ms"],
        "sim_ops_per_s": sim["ops_per_s"],
    }


def per_layer(sim: dict, timeds: List[RefClock], traced: dict,
              ladder: Dict[int, dict], slo_rate: float,
              peak_rss_mb: float) -> Dict[str, float]:
    ops, writes, d = sim["executed"], sim["writes"], sim["delta"]
    hosts = [c.ref_s for c in timeds]
    t_ops = traced["executed"]
    total_self = sum(s for s, _ in traced["layers"].values())
    out: Dict[str, float] = {}
    for layer, (seconds, calls) in traced["layers"].items():
        out[f"{layer}.self_share"] = _ratio(seconds, total_self)
        out[f"{layer}.calls_per_op"] = _ratio(calls, t_ops)
    quartiles = (statistics.quantiles(hosts, n=4) if len(hosts) > 1
                 else [hosts[0]] * 3)
    out.update({
        "sim.kernel.events_per_op": _ratio(traced["heap_pushes"], t_ops),
        "sim.network.msgs_per_op": _ratio(d["msgs"], ops),
        "sim.network.dropped": d["dropped"],
        "sim.disk.forces_per_op": _ratio(d["forces"], ops),
        "sim.disk.device_ops_per_op": _ratio(d["device_ops"], ops),
        "sim.disk.group_commit_factor": _ratio(d["forces"],
                                               d["device_ops"]),
        "storage.wal.appends_per_op": _ratio(traced["wal_appends"], t_ops),
        "storage.wal.log_bytes_per_user_byte":
            _ratio(d["log_bytes"], writes * VALUE_SIZE),
        "storage.engine.applies_per_op":
            _ratio(traced["engine_applies"], t_ops),
        "storage.engine.gets_per_op": _ratio(traced["engine_gets"], t_ops),
        "storage.engine.flushes": d["flushes"],
        "storage.engine.compactions": d["compactions"],
        "core.replication.proposes_per_write": _ratio(d["proposes"], writes),
        "core.replication.records_per_propose":
            _ratio(d["records"], d["proposes"]),
        "core.replication.handle_propose_per_write":
            _ratio(d["handled"], writes),
        "core.api.retries_per_op": _ratio(d["retries"], ops),
        "coord.requests_per_op": _ratio(traced["coord_requests"], t_ops),
        "coord.session_expiries": d["expiries"],
        "core.recovery.epoch_bumps": d["epochs"],
        "core.recovery.catchup_chunks": d["catchup_chunks"],
        "core.recovery.unavail_fast_detect_s":
            sim["extras"].get("unavail_fast_detect_s", 0.0),
        "bench.read.p50_ms": sim["read_p50_ms"],
        "bench.read.p99_ms": sim["read_p99_ms"],
        "bench.write.p50_ms": sim["write_p50_ms"],
        "bench.write.p99_ms": sim["write_p99_ms"],
        "bench.samples": sim["samples"],
        "bench.reps": len(hosts),
        "bench.host_s_min": min(hosts),
        "bench.host_s_median": statistics.median(hosts),
        "bench.host_s_iqr": quartiles[2] - quartiles[0],
        "bench.host_raw_s_median": statistics.median(
            c.raw_s for c in timeds),
        "bench.calib_ms_median": statistics.median(
            k for c in timeds for k in c.kernel_s) * 1e3,
        "bench.peak_rss_mb": peak_rss_mb,
        "bench.trace_overhead_ratio":
            _ratio(traced["host_s"] / t_ops,
                   statistics.median(hosts) / ops),
        # The simulated generator wakes exactly at each due time.
        "bench.gen_late_ms": 0.0,
        "failed_ops_share": _ratio(sim["failed"], sim["attempted"]),
        "sim_slo_rate_ops_s": slo_rate,
        "sim_unavail_s": sim["extras"].get("unavail_s", 0.0),
        "sim_rejoin_s": sim["extras"].get("rejoin_s", 0.0),
    })
    for phase, ms in traced["phases"].items():
        out[f"obs.phase.{phase}_ms"] = ms
    for rate in LADDER_RATES:
        rung = ladder.get(rate, {"p99_ms": 0.0, "shed": 0})
        out[f"bench.ladder.p99_ms.r{rate}"] = rung["p99_ms"]
        out[f"bench.ladder.shed.r{rate}"] = rung["shed"]
    return {name: out[name] for name, *_ in PER_LAYER}   # catalogue order
