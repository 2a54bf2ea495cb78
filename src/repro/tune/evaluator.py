"""The Evaluator half of the Evaluator/Solver tuner.

One *trial* evaluates one knob overlay: build the profile's base config,
apply the overlay, run one fully traced closed-loop load point on a
fresh deterministic cluster, and fold the result into (metrics, phase
shares, scalar score).  Determinism is the load-bearing property — the
same (profile, overlay, seed) triple always produces bit-identical
numbers, because the simulator is seeded and request tracing provably
does not perturb simulated time (PR 5).  That is what lets coordinate
descent compare trials pairwise without repetitions, and what makes a
tuning run reproducible from its ledger.

The per-trial budget is capped by the profile's evaluator shape
(``threads * (warmup + ops)`` operations); ``scale`` shrinks it the
same way benchmark scales do, so CI can exercise the full search loop
in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.config import SpinnakerConfig
from .objective import objective_score
from .profiles import TuneProfile
from .registry import Value, apply_values

__all__ = ["TrialEval", "scaled_shape", "evaluate"]


@dataclass(frozen=True)
class TrialEval:
    """Outcome of one trial evaluation."""

    #: LoadPoint-derived metrics: throughput, p50_ms, mean_ms, p95_ms,
    #: ops, errors
    metrics: Dict[str, float]
    #: traced op's ``{phase: share}`` (rounded for ledger stability)
    shares: Dict[str, float]
    #: scalar objective, lower is better
    score: float

    def to_json(self) -> dict:
        return {"metrics": self.metrics, "shares": self.shares,
                "score": self.score}


def scaled_shape(profile: TuneProfile, scale: float):
    """(threads, ops_per_thread, warmup) for one trial at ``scale``."""
    threads = max(2, int(round(profile.threads * scale)))
    ops = max(6, int(round(profile.ops_per_thread * min(1.0, scale))))
    warmup = max(2, int(round(profile.warmup_ops * min(1.0, scale))))
    return threads, ops, warmup


def build_config(profile: TuneProfile,
                 values: Dict[str, Value]) -> SpinnakerConfig:
    return apply_values(profile.base_config(), values)


def evaluate(profile: TuneProfile, values: Dict[str, Value],
             seed: int = 1, scale: float = 1.0) -> TrialEval:
    """Run one deterministic trial and score it."""
    # Imported here: bench.harness reads this package's active tuned
    # overlay, so the module-level dependency must stay one-way.
    from ..bench.harness import traced_point
    from ..bench.workload import write_workload
    from ..obs import phase_summary
    from . import profiles

    cfg = build_config(profile, values)
    threads, ops, warmup = scaled_shape(profile, scale)
    topology = (profile.topology(profile.n_nodes)
                if profile.topology is not None else None)
    # An armed --tuned-profile overlay would silently override the very
    # knob values this trial probes (the harness lays it over every
    # config); suspend it for the duration of the trial.
    saved, profiles._active = profiles._active, None
    try:
        point, tracer = traced_point(
            write_workload(), threads, ops, warmup_ops=warmup,
            n_nodes=profile.n_nodes, config=cfg, seed=seed,
            topology=topology,
            placement=(profile.placement if topology is not None
                       else "ring"))
    finally:
        profiles._active = saved
    summary = phase_summary(tracer)
    op_entry = summary.get(profile.objective.op, {})
    phases = op_entry.get("phases", {})
    metrics = {
        "throughput": round(point.throughput, 3),
        "mean_ms": round(point.mean_ms, 4),
        "p50_ms": round(point.p50_ms, 4),
        "p95_ms": round(point.p95_ms, 4),
        "ops": point.ops,
        "errors": point.errors,
    }
    score = objective_score(metrics, phases, profile.objective)
    shares = {name: round(float(row["share"]), 4)
              for name, row in phases.items()}
    return TrialEval(metrics=metrics, shares=shares,
                     score=round(score, 6))
