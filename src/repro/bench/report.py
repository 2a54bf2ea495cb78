"""Rendering experiment results as the rows/series the paper reports.

``python -m repro.bench.report [exp ...] [--scale S] [--json FILE]
[--report FILE]`` runs experiments and prints their tables plus
shape-check verdicts; EXPERIMENTS.md records a full-scale run.
``--json`` additionally writes full machine-readable results for
downstream tooling; ``--report`` writes the compact per-experiment
summary (``BENCH_report.json`` at the repo root) that successive PRs
diff to track performance — naming a subset of experiments splices
them into an existing same-scale report instead of replacing it.
Experiments whose registry row has a phase probe embed a ``phases``
section — per-phase latency attribution from ``repro.obs`` (see
OBSERVABILITY.md); ``--refresh-phases FILE`` re-runs only the probes and
rewrites the ``phases`` sections of an existing report without
re-running the (much slower) sweeps.
``--tuned-profile NAME`` applies the checked-in
``configs/tuned-<NAME>.json`` knob overlay to every Spinnaker cluster
the run builds (see TUNING.md); reports tagged with a tuned profile
only merge into reports with the same tag.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Dict, List, Optional

from .experiments import ALL_EXPERIMENTS, ExperimentResult
from .harness import LoadPoint

__all__ = ["render", "to_dict", "summarize", "write_bench_report",
           "refresh_phases", "main"]


def to_dict(result: ExperimentResult) -> dict:
    """A JSON-serializable view of an experiment result."""
    series = {}
    for label, data in result.series.items():
        if data and isinstance(data[0], LoadPoint):
            series[label] = [dataclasses.asdict(p) for p in data]
        else:
            series[label] = list(data)
    out = {
        "experiment": result.exp_id,
        "title": result.title,
        "series": series,
        "checks": dict(result.checks),
        "passed": result.passed,
        "notes": result.notes,
    }
    if result.phases:
        out["phases"] = result.phases
    return out


def summarize(result: ExperimentResult) -> dict:
    """A compact, diff-friendly summary of one experiment.

    Load-point series collapse to the numbers a perf reviewer compares
    across PRs — peak sustained throughput and the latency at the lowest
    load point; row series (recovery tables) are kept verbatim.
    """
    series: Dict[str, object] = {}
    for label, data in result.series.items():
        if data and isinstance(data[0], LoadPoint):
            series[label] = {
                "points": len(data),
                "peak_throughput_rps": round(
                    max(p.throughput for p in data), 1),
                "low_load_mean_ms": round(data[0].mean_ms, 3),
                "low_load_p95_ms": round(data[0].p95_ms, 3),
            }
        else:
            series[label] = list(data)
    out = {
        "title": result.title,
        "passed": result.passed,
        "checks": dict(result.checks),
        "series": series,
        "notes": result.notes,
    }
    if result.phases:
        out["phases"] = result.phases
    return out


def write_bench_report(results: List[ExperimentResult], path: str,
                       scale: float, merge: bool = False,
                       tuned_profile: Optional[str] = None) -> None:
    """Write the cross-PR perf-tracking summary (``BENCH_report.json``).

    With ``merge=True`` (a subset run) the named experiments are spliced
    into the existing report instead of replacing it, so re-running one
    experiment doesn't discard the rest — but only when the scales (and
    any active ``--tuned-profile``) match; a scale or overlay change
    invalidates the old numbers, so the file is rewritten from just
    this run.
    """
    payload = {
        "scale": scale,
        "experiments": {r.exp_id: summarize(r) for r in results},
    }
    if tuned_profile is not None:
        payload["tuned_profile"] = tuned_profile
    if merge:
        try:
            with open(path) as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = None
        if (existing is not None and existing.get("scale") == scale
                and existing.get("tuned_profile") == tuned_profile):
            merged = dict(existing.get("experiments", {}))
            merged.update(payload["experiments"])
            payload["experiments"] = merged
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def refresh_phases(path: str, seed: int = 1) -> List[str]:
    """Re-run every phase probe and splice the results into an existing
    report file, leaving the sweep-derived sections untouched.

    The probes are fixed-size and independent of the report's ``scale``
    (see ``_phase_probe``), so refreshing them does not invalidate the
    recorded curves.  Returns the experiment ids refreshed.
    """
    with open(path) as fh:
        payload = json.load(fh)
    refreshed = []
    for exp_id in sorted(ALL_EXPERIMENTS):
        entry = payload.get("experiments", {}).get(exp_id)
        probe = ALL_EXPERIMENTS[exp_id].probe
        if entry is None or probe is None:
            continue
        entry["phases"] = probe(seed=seed)
        refreshed.append(exp_id)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return refreshed


def _render_phases(phases: Dict[str, dict]) -> List[str]:
    lines = ["  phases (traced probe):"]
    for op in sorted(phases):
        entry = phases[op]
        lines.append(f"    {op}: n={entry['count']}  "
                     f"mean={entry['total_mean_ms']:.2f} ms")
        # built in canonical phase order by phase_summary
        for name, row in entry["phases"].items():  # lint: allow(dict-order)
            lines.append(f"      {name:<14}{row['mean_ms']:>9.3f} ms  "
                         f"{row['share'] * 100:5.1f}%")
    return lines


def _render_points(label: str, points: List[LoadPoint]) -> List[str]:
    lines = [f"  {label}:"]
    lines.append("    threads   load(req/s)   mean(ms)    p95(ms)   ops")
    for p in points:
        lines.append(f"    {p.threads:7d}   {p.throughput:11.0f}   "
                     f"{p.mean_ms:8.2f}   {p.p95_ms:8.2f}   {p.ops:5d}")
    return lines


def _render_rows(label: str, rows: List[dict]) -> List[str]:
    lines = [f"  {label}:"]
    if not rows:
        return lines
    keys = list(rows[0].keys())
    lines.append("    " + "   ".join(f"{k:>16s}" for k in keys))
    for row in rows:
        lines.append("    " + "   ".join(
            f"{row[k]:16.3f}" if isinstance(row[k], float)
            else f"{row[k]:16}" for k in keys))
    return lines


def render(result: ExperimentResult) -> str:
    """Human-readable experiment report: series tables + check verdicts."""
    lines = [f"== {result.exp_id}: {result.title} =="]
    for label, data in result.series.items():
        if data and isinstance(data[0], LoadPoint):
            lines.extend(_render_points(label, data))
        else:
            lines.extend(_render_rows(label, data))
    if result.phases:
        lines.extend(_render_phases(result.phases))
    if result.notes:
        lines.append(f"  notes: {result.notes}")
    for check, ok in result.checks.items():
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {check}")
    lines.append(f"  => {'SHAPE OK' if result.passed else 'SHAPE MISMATCH'}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    scale = 1.0
    json_path = None
    report_path = None
    refresh_path = None
    tuned_profile = None
    names: List[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--scale":
            scale = float(next(it))
        elif arg == "--json":
            json_path = next(it)
        elif arg == "--report":
            report_path = next(it)
        elif arg == "--refresh-phases":
            refresh_path = next(it)
        elif arg == "--tuned-profile":
            tuned_profile = next(it)
        else:
            names.append(arg)
    if refresh_path is not None:
        refreshed = refresh_phases(refresh_path)
        print(f"refreshed phases of {', '.join(refreshed)} "
              f"in {refresh_path}")
        return 0
    subset = bool(names)
    if not names:
        names = list(ALL_EXPERIMENTS)
    status = 0
    collected = []
    results = []
    if tuned_profile is not None:
        from ..tune.profiles import (activate_tuned_profile,
                                     clear_tuned_profile)
        activate_tuned_profile(tuned_profile)
        print(f"tuned profile {tuned_profile!r} active: every Spinnaker "
              f"cluster gets the configs/tuned-{tuned_profile}.json "
              f"overlay\n")
    try:
        for name in names:
            fn = ALL_EXPERIMENTS.get(name)
            if fn is None:
                print(f"unknown experiment {name!r}; "
                      f"choices: {', '.join(ALL_EXPERIMENTS)}")
                return 2
            result = fn(scale=scale)
            print(render(result))
            print()
            collected.append(to_dict(result))
            results.append(result)
            if not result.passed:
                status = 1
    finally:
        if tuned_profile is not None:
            clear_tuned_profile()
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump({"scale": scale, "results": collected}, fh,
                      indent=2)
        print(f"wrote {json_path}")
    if report_path is not None:
        write_bench_report(results, report_path, scale, merge=subset,
                           tuned_profile=tuned_profile)
        print(f"wrote {report_path}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
