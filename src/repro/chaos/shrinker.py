"""Deterministic shrinking of failing fault schedules.

Because a chaos run is a pure function of ``(seed, config, schedule)``,
a schedule that violates an invariant can be minimized offline: replay
subsets until no event can be removed without the violation vanishing
(the classic ddmin / delta-debugging loop).  The result is the shortest
fault sequence that still breaks the cluster — usually two or three
events instead of dozens — printed as a ready-to-paste regression test.

ddmin state machine (granularity ``g``, current schedule ``S``)::

    START (g=2) ──▶ TRY: drop one of g chunks of S, replay the rest
      TRY ──still fails──▶ S := subset, g := max(g-1, 2), restart TRY
      TRY ──all chunks needed, chunk > 1──▶ g := min(|S|, 2g), TRY
      TRY ──all chunks needed, chunk == 1──▶ DONE (1-minimal)
      any ──replay budget exhausted──▶ DONE (best-so-far)

Invariants:

- **Failure is preserved.** ``fails(S)`` holds on entry and after every
  accepted reduction; the returned schedule always still reproduces.
- **Replays are pure.** Every candidate runs in a fresh simulator from
  the same ``(seed, config)``; no state leaks between replays, so the
  shrink itself is deterministic and its output reproducible.
- **Budgeted.** At most ``max_runs`` cluster replays; exhaustion returns
  the best reduction so far instead of looping on a stubborn schedule.

Failure cases:

- *Flaky predicate*: impossible here by construction — a violation is a
  function of the schedule, so "fails once, passes on retry" cannot
  happen; if it ever does, the simulator's determinism is the bug (see
  ``repro lint``).
- *Interdependent faults*: ddmin yields a 1-minimal (no single event
  removable), not a global minimum; a pair of mutually-required faults
  survives together, which is exactly what the regression test should
  capture.
- *Original run passes*: nothing to shrink; ``ShrinkResult.failed`` is
  False and the schedule is returned untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence

from .nemesis import ChaosConfig, ChaosReport, FaultEvent, run_chaos

__all__ = ["ddmin", "shrink_run", "ShrinkResult",
           "format_regression_test"]


def ddmin(items: Sequence, fails: Callable[[List], bool],
          max_runs: int = 64) -> List:
    """Minimize ``items`` such that ``fails(subset)`` stays true.

    ``fails(list(items))`` must already be true.  Classic delta
    debugging: try dropping ever-finer chunks, restarting the pass at
    the current granularity whenever a removal sticks.  ``max_runs``
    bounds the number of ``fails`` evaluations (each one is a whole
    simulated cluster run), returning the best reduction so far.
    """
    current = list(items)
    runs = 0
    granularity = 2
    while len(current) >= 1 and granularity <= max(len(current), 2):
        chunk = max(1, (len(current) + granularity - 1) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            runs += 1
            if runs > max_runs:
                return current
            if fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(current), granularity * 2)
    return current


@dataclass
class ShrinkResult:
    """Outcome of a shrink session."""

    failed: bool                      # did the original run fail at all?
    seed: int
    config: ChaosConfig
    original: List[FaultEvent]
    minimized: List[FaultEvent]
    report: ChaosReport               # report of the minimized replay
    replays: int                      # cluster runs spent shrinking


def shrink_run(seed: int, config: Optional[ChaosConfig] = None
               ) -> ShrinkResult:
    """Run ``(seed, config)``; if an invariant is violated, minimize its
    schedule to the shortest failing fault sequence."""
    config = config or ChaosConfig()
    baseline = run_chaos(seed, config)
    original = list(baseline.schedule)
    if baseline.ok:
        return ShrinkResult(failed=False, seed=seed, config=config,
                            original=original, minimized=original,
                            report=baseline, replays=1)
    replays = [1]

    def fails(candidate: List[FaultEvent]) -> bool:
        replays[0] += 1
        return not run_chaos(seed, config, schedule=candidate).ok

    minimized = ddmin(original, fails)
    final = run_chaos(seed, config, schedule=minimized)
    replays[0] += 1
    return ShrinkResult(failed=True, seed=seed, config=config,
                        original=original, minimized=minimized,
                        report=final, replays=replays[0])


# ---------------------------------------------------------------------------
# Regression-test emission
# ---------------------------------------------------------------------------

def _format_event(ev: FaultEvent) -> str:
    """A FaultEvent constructor call listing only non-default fields."""
    parts = []
    for f in fields(FaultEvent):
        value = getattr(ev, f.name)
        if f.name != "at" and value == f.default:
            continue
        parts.append(f"{f.name}={value!r}")
    return f"        FaultEvent({', '.join(parts)}),"


def format_regression_test(result: ShrinkResult) -> str:
    """A ready-to-paste pytest function replaying the shrunken
    schedule.  It fails today (the violation reproduces) and passes
    once the underlying bug is fixed."""
    cfg = result.config
    # A multi-DC storm replayed on a flat cluster is another storm.
    topology = "".join(f", {name}={getattr(cfg, name)!r}"
                       for name in ("n_dcs", "wan_one_way")
                       if getattr(cfg, name) != getattr(ChaosConfig, name))
    lines = [
        f"def test_chaos_regression_seed{result.seed}():",
        f'    """Shrunken from `python -m repro chaos '
        f"--seed {result.seed} --duration {cfg.duration:g} "
        f"--nodes {cfg.n_nodes} --dcs {cfg.n_dcs}` "
        f"({len(result.original)} -> "
        f'{len(result.minimized)} events)."""',
        "    from repro.chaos import (ChaosConfig, FaultEvent,",
        "                             replay_schedule)",
        "    schedule = [",
    ]
    lines += [_format_event(ev) for ev in result.minimized]
    lines += [
        "    ]",
        f"    config = ChaosConfig(n_nodes={cfg.n_nodes}, "
        f"duration={cfg.duration!r},",
        f"                         mean_fault_gap={cfg.mean_fault_gap!r},"
        f" mean_repair={cfg.mean_repair!r}{topology})",
        f"    report = replay_schedule(seed={result.seed}, "
        f"config=config, schedule=schedule)",
        "    assert report.ok, report.format()",
    ]
    return "\n".join(lines)
