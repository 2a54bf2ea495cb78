"""The tuner's scalar objective.

A trial's score combines the evaluator's end-to-end metrics (the same
numbers ``BENCH_report.json`` summarizes: p50 latency, sustained
throughput, errors) with the per-phase latency attribution ``repro.obs``
produces for the run.  The phase term is what makes the objective
*targeted*: the profile names the phases that dominate its latency
(fig9 SATA: ``log_force`` at 0.70 share), and a fraction
(``phase_emphasis``) of the mean time spent in those phases is charged
again on top of the end-to-end p50 — a millisecond saved in the
dominating phase is worth a bit more than one saved anywhere else,
steering the search toward the hardware's actual bottleneck without
letting attribution wins outvote real end-to-end latency.

The phase term deliberately charges the focus phases' *absolute* mean
time, not their share of the total.  An earlier share-based form
(``p50 * (1 + emphasis * share)``) was gameable: a knob that *adds*
latency in a non-focus phase (say, holding writes for company) shrinks
the focus phases' relative share and can lower the score while making
every real metric worse.  Absolute time is immune — adding time
elsewhere cannot reduce it.

Scores are minimized.  The formula is deliberately simple enough to
hand-compute (``tests/tune/test_objective.py`` does exactly that)::

    score = p50_ms + phase_emphasis * focus_ms
            - throughput_weight * throughput / 1000
            + error_penalty * errors / max(ops, 1)

where ``focus_ms`` is the summed mean latency of the spec's focus
phases for the traced op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["ObjectiveSpec", "focus_ms", "objective_score"]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Weights for one profile's objective (see module docstring)."""

    #: phases whose mean time is charged on top of p50 (the ones that
    #: dominate this profile's latency, per BENCH_report.json)
    focus_phases: Tuple[str, ...] = ("log_force",)
    #: extra cost per ms spent in the focus phases.  Deliberately a
    #: *steering* weight, well below 1.0: at 1.0 the focus term rivals
    #: p50 itself and the search will trade real end-to-end latency for
    #: attribution wins (e.g. holding writes for company shrinks
    #: log_force's mean while making every client wait longer).
    phase_emphasis: float = 0.25
    #: ms of p50 one kreq/s of throughput is worth
    throughput_weight: float = 0.5
    #: ms added per unit error *rate* — any failed op must dominate
    error_penalty: float = 1000.0
    #: which traced op the phase table comes from
    op: str = "write"

    def to_json(self) -> dict:
        return {"focus_phases": list(self.focus_phases),
                "phase_emphasis": self.phase_emphasis,
                "throughput_weight": self.throughput_weight,
                "error_penalty": self.error_penalty,
                "op": self.op}


def focus_ms(phases: Dict[str, dict], spec: ObjectiveSpec) -> float:
    """Summed mean latency (ms) of the spec's focus phases.

    ``phases`` is one op's ``{phase: {mean_ms, share, ...}}`` mapping in
    the shape :func:`repro.obs.phase_summary` produces (and
    ``BENCH_report.json`` embeds).  Missing phases contribute 0.
    """
    return sum(float(phases[p]["mean_ms"]) for p in spec.focus_phases
               if p in phases)


def objective_score(metrics: Dict[str, float], phases: Dict[str, dict],
                    spec: ObjectiveSpec) -> float:
    """Scalar score (lower is better) for one trial.

    ``metrics`` needs ``p50_ms``, ``throughput``, ``errors`` and
    ``ops``; ``phases`` is the traced op's phase table (may be empty —
    e.g. an all-errors trial traces nothing — in which case the phase
    term is 0 and the error penalty does the judging).
    """
    latency = (float(metrics["p50_ms"])
               + spec.phase_emphasis * focus_ms(phases, spec))
    throughput = (spec.throughput_weight
                  * float(metrics["throughput"]) / 1000.0)
    errors = (spec.error_penalty * float(metrics.get("errors", 0))
              / max(float(metrics.get("ops", 0)), 1.0))
    return latency - throughput + errors

