"""The Solver half: deterministic coordinate descent over knob grids.

The search starts from the profile's hand-tuned defaults (trial 0 — the
baseline every later trial is compared against), then walks the
profile's searched knobs in registry order.  For each knob it evaluates
every candidate value from the registry grid (skipping the current
value — already measured) and adopts the best candidate iff it beats
the incumbent score by ``min_improvement``.  A knob whose ``gate`` is
off in the incumbent is skipped: with ``propose_batching`` off the
batch shape is dead, and each probe would re-measure the incumbent.
Passes repeat until a full pass adopts nothing (converged) or the trial
budget runs out.

Everything is deterministic given ``(profile, seed, budget)``: the
grids are declarative, the walk order is the registry order, the
evaluator is a seeded simulation, and ties break toward the incumbent.
Re-running a tuner seed reproduces the ledger bit-for-bit
(``tests/tune/test_search.py`` proves it).

The *ledger* records every trial — knob, value, full overlay, score,
metrics, phase shares, and the best-score-so-far trajectory — so a
tuning run can be audited or diffed without re-running anything.
``TUNING.md`` walks through reading one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .evaluator import TrialEval, evaluate, scaled_shape
from .profiles import TuneProfile, get_profile
from .registry import Value, get_knob

__all__ = ["Trial", "TuneResult", "tune"]


@dataclass
class Trial:
    """One evaluated configuration."""

    index: int
    #: knob being probed; None for the baseline trial
    knob: Optional[str]
    #: candidate value probed (None for the baseline trial)
    value: Optional[Value]
    #: the full overlay evaluated (baseline: {})
    values: Dict[str, Value]
    eval: TrialEval
    #: whether this candidate was adopted into the incumbent config
    adopted: bool = False
    best_so_far: float = 0.0

    def to_json(self) -> dict:
        out = {"trial": self.index, "knob": self.knob,
               "value": self.value, "values": dict(self.values),
               "adopted": self.adopted,
               "best_so_far": self.best_so_far}
        out.update(self.eval.to_json())
        return out


@dataclass
class TuneResult:
    """A finished (or budget-exhausted) tuning run."""

    profile: str
    seed: int
    scale: float
    trials: List[Trial] = field(default_factory=list)
    best_values: Dict[str, Value] = field(default_factory=dict)
    best_score: float = 0.0
    baseline_score: float = 0.0
    #: a full pass adopted nothing (vs. budget exhaustion)
    converged: bool = False
    passes_run: int = 0
    #: the profile object the run used (None -> registry lookup by name)
    profile_spec: Optional[TuneProfile] = None

    @property
    def baseline(self) -> Trial:
        return self.trials[0]

    @property
    def best_trial(self) -> Trial:
        best = self.trials[0]
        for t in self.trials[1:]:
            if t.eval.score < best.eval.score:
                best = t
        return best

    def to_json(self) -> dict:
        profile = self.profile_spec or get_profile(self.profile)
        threads, ops, warmup = scaled_shape(profile, self.scale)
        return {
            "profile": self.profile,
            "seed": self.seed,
            "scale": self.scale,
            "evaluator": {"n_nodes": profile.n_nodes,
                          "threads": threads, "ops_per_thread": ops,
                          "warmup_ops": warmup,
                          "placement": profile.placement,
                          "multi_dc": profile.topology is not None},
            "objective": profile.objective.to_json(),
            "searched": list(profile.searched),
            "trials": [t.to_json() for t in self.trials],
            "baseline_score": self.baseline_score,
            "best_score": self.best_score,
            "best_values": dict(sorted(self.best_values.items())),
            "converged": self.converged,
            "passes_run": self.passes_run,
        }

    def write_ledger(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def tune(profile_name: str, seed: int = 1, max_trials: int = 48,
         passes: int = 3, scale: float = 1.0,
         min_improvement: float = 1e-6,
         start: Optional[Dict[str, Value]] = None,
         profile: Optional[TuneProfile] = None) -> TuneResult:
    """Run coordinate descent for one profile; see module docstring.

    ``max_trials`` is the hard evaluation budget (baseline included);
    ``passes`` bounds full sweeps over the searched knobs.  ``start``
    seeds the incumbent overlay — the default empty overlay starts from
    the hand-tuned config; fig-tune's recovery arm starts from a
    deliberately detuned one.  ``profile`` overrides the registry
    lookup (tests inject tiny profiles).

    Identical configurations reached twice (a later pass re-probing a
    grid point) are served from a memo instead of re-simulating — the
    evaluator is deterministic, so the memo changes nothing but the
    budget spent.
    """
    prof = profile if profile is not None else get_profile(profile_name)
    result = TuneResult(profile=profile_name, seed=seed, scale=scale,
                        profile_spec=prof)

    current: Dict[str, Value] = dict(start or {})
    base_cfg = prof.base_config()
    memo: Dict[tuple, TrialEval] = {}

    def run_trial(values: Dict[str, Value]) -> TrialEval:
        key = tuple(sorted(values.items()))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = evaluate(prof, values, seed=seed,
                                       scale=scale)
        return hit

    base = run_trial(current)
    best = base.score
    result.trials.append(Trial(0, None, None, dict(current), base,
                               adopted=True, best_so_far=best))
    result.baseline_score = base.score

    out_of_budget = False
    for pass_no in range(passes):
        improved_this_pass = False
        for knob_name in prof.searched:
            knob = get_knob(knob_name)
            if knob.gate is not None and not current.get(
                    knob.gate, getattr(base_cfg, knob.gate)):
                continue    # gated off: every probe scores the incumbent
            incumbent = current.get(knob_name,
                                    getattr(base_cfg, knob_name))
            best_cand: Optional[Value] = None
            best_cand_score = best
            best_cand_trial: Optional[Trial] = None
            for cand in knob.candidates:
                if cand == incumbent:
                    continue
                probe = dict(current)
                probe[knob_name] = cand
                key = tuple(sorted(probe.items()))
                cached = key in memo
                if not cached and len(result.trials) >= max_trials:
                    out_of_budget = True
                    break
                ev = run_trial(probe)
                trial = None
                if not cached:
                    trial = Trial(len(result.trials), knob_name, cand,
                                  probe, ev)
                    result.trials.append(trial)
                if ev.score < best_cand_score - min_improvement:
                    best_cand, best_cand_score = cand, ev.score
                    best_cand_trial = trial
                if trial is not None:
                    trial.best_so_far = min(best, best_cand_score)
            if best_cand is not None:
                current[knob_name] = best_cand
                best = best_cand_score
                improved_this_pass = True
                if best_cand_trial is not None:
                    best_cand_trial.adopted = True
            if out_of_budget:
                break
        result.passes_run = pass_no + 1
        if out_of_budget:
            break
        if not improved_this_pass:
            result.converged = True
            break

    result.best_values = dict(current)
    result.best_score = best
    return result
