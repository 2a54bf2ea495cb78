#!/usr/bin/env python3
"""perfbench: the repo's benchmark — four workloads, two clocks, one ledger.

Report mode (what a person runs; ≈2 min on 2 cores)::

    python3 perfbench/run.py [--seed N] [--workload W] [--reps K] [--quick]
                             [--out FILE]

starts one fresh interpreter per workload, sequentially, prints every
metric by name with its unit, and writes a self-describing result file
for ``compare.py``.

Single-run mode (what the benchmark driver runs; ``BENCHMARK.json``)::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this interpreter and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.

Every repetition of a run is the *same* deterministic simulation: the
``sim_*`` metrics and counts come from it and repeat exactly per seed
(``sim_digest`` proves it, and the run fails if two repetitions
disagree); only the host clock is sampled repeatedly.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

BENCH_ROOT = Path(__file__).resolve().parent
REPO_ROOT = BENCH_ROOT.parent
SRC_ROOT = REPO_ROOT / "src"
if not (SRC_ROOT / "repro").is_dir():
    sys.exit(f"perfbench: {SRC_ROOT}/repro not found — run from a checkout "
             f"of the repository")
sys.path.insert(0, str(SRC_ROOT))

from repro.obs import RequestTracer  # noqa: E402
from repro.sim import LatencyModel  # noqa: E402

import layers  # noqa: E402
import metrics  # noqa: E402
from calibrate import RefClock  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = 15       # host seconds of timed work per run (BENCHMARK.json)
MIN_REPS = 3
SETUP_SAMPLES = 25     # set-ups timed per run, if that takes no more than
SETUP_EXTRA_S = 2.0    # this many host seconds beyond the repetitions' own
QUICK_SCALE = 0.1      # --quick: a tenth of the operations
TRACED_SCALE = 1 / 3   # the traced repetition: a third of the operations


class Failed(Exception):
    """A correctness or determinism gate tripped."""


def set_up(name: str, seed: int, scale: float, tracer=None):
    """Cluster build, boot, preload and generator start, on the clock."""
    workload = WORKLOADS[name]
    gc.collect()     # not on the clock: the previous repetition's cluster
    setup = RefClock()
    with setup.span():
        load = workload.start(workload.build(seed, tracer), scale)
    return setup, load


def run_rep(name: str, seed: int, scale: float, traced: bool = False):
    """One repetition: set up, run the timed region, check the outputs.

    Returns ``(setup, timed, sim, phases, profile)`` — two
    :class:`~calibrate.RefClock` readings, the repetition's
    simulated-clock summary, and two that are None unless ``traced``.
    """
    workload = WORKLOADS[name]
    tracer = RequestTracer(sample_every=1) if traced else None
    setup, load = set_up(name, seed, scale, tracer)
    cluster = load.cluster
    before, sim_start = metrics.counters(load), cluster.sim.now
    profile = cProfile.Profile() if traced else None
    # Collect, then freeze the survivors: the timed region pays for the
    # garbage it makes, not for re-scanning the cluster it was handed.
    gc.collect()
    gc.freeze()
    timed = RefClock()
    try:
        # Sliced, so each calibration pair sees the machine its span saw.
        while not load.done():
            if cluster.sim.now - sim_start > 3600.0:
                raise Failed(f"{name}: load still running after an hour "
                             f"of simulated time")
            with timed.span():
                if profile:
                    profile.enable()
                cluster.run(workload.slice_s)
                if profile:
                    profile.disable()
    finally:
        gc.unfreeze()
    # Counters, digest and phases first: wrap_up's read-backs are traffic.
    after, digest = metrics.counters(load), load.digest()
    phases = metrics.phase_medians(tracer, sim_start) if traced else None
    problems = load.problems + load.wrap_up()
    problems += [f"handler process died: {f!r}"
                 for f in cluster.all_failures()]
    if problems:
        raise Failed(f"{name}: {len(problems)} correctness failure(s): "
                     + "; ".join(problems[:5]))
    sim = metrics.sim_summary(load, digest, before, after)
    return setup, timed, sim, phases, profile


def timed_reps(name: str, seed: int, scale: float, seconds: float,
               reps: Optional[int]):
    """Identical untraced repetitions until ``seconds`` of timed host work
    are in (or exactly ``reps`` of them).  Returns the simulated-clock
    summary they share and the host-clock readings of each."""
    first, setups, timeds = None, [], []
    while (len(timeds) < reps if reps else len(timeds) < MIN_REPS
           or sum(t.raw_s for t in timeds) < seconds):
        setup, timed, sim, _, _ = run_rep(name, seed, scale)
        if first is None:
            first = sim
        elif sim["digest"] != first["digest"]:
            raise Failed(f"{name}: repetition {len(timeds) + 1} has "
                         f"sim_digest {sim['digest'][:12]}, the first had "
                         f"{first['digest'][:12]} — the simulation is not "
                         f"deterministic")
        setups.append(setup)
        timeds.append(timed)
    # Set-up takes milliseconds where nothing is preloaded: sample it
    # alone a few more times so that its median is steady too.
    while (not reps and len(setups) < SETUP_SAMPLES
           and sum(c.raw_s for c in setups[len(timeds):]) < SETUP_EXTRA_S):
        setups.append(set_up(name, seed, scale)[0])
    return first, setups, timeds


def traced_rep(name: str, seed: int, scale: float) -> dict:
    """One repetition under cProfile with every request traced."""
    _, timed, sim, phases, profile = run_rep(
        name, seed, scale * TRACED_SCALE, traced=True)
    stats = pstats.Stats(profile).stats
    return {
        "host_s": timed.ref_s,
        "executed": sim["executed"],
        "layers": layers.fold(stats, SRC_ROOT / "repro", BENCH_ROOT),
        "heap_pushes": layers.calls_to(
            stats, "~", "<built-in method _heapq.heappush>"),
        "wal_appends": layers.calls_to(stats, "storage/wal.py", "append",
                                       "append_batch"),
        "engine_applies": layers.calls_to(stats, "storage/engine.py",
                                          "apply"),
        "engine_gets": layers.calls_to(stats, "storage/engine.py", "get"),
        "coord_requests": layers.calls_to(stats, "coord/service.py",
                                          "_on_request"),
        "phases": phases,
    }


def run_ladder(seed: int, scale: float):
    """``mixed_openloop`` at each ladder rate, once: p99 and shed per
    rung, and the highest rate up to which every rung meets the SLO."""
    workload = WORKLOADS["mixed_openloop"]
    rungs: Dict[int, dict] = {}
    slo_rate, holding = 0.0, True
    for rate in workloads.LADDER_RATES:
        cluster = workload.build(seed)
        load = workloads.start_mixed(
            cluster, rate, workloads.LADDER_MEASURED_S * scale)
        cluster.run_until(load.done, limit=3600.0, step=1.0,
                          what=f"ladder rung {rate}")
        if load.problems or cluster.all_failures():
            raise Failed(f"mixed_openloop ladder rung {rate}: "
                         f"{load.problems[:3]} {cluster.all_failures()[:3]}")
        p99_ms = metrics.percentile(
            sorted(load.read_lat + load.write_lat), 99) * 1e3
        rungs[rate] = {"p99_ms": p99_ms, "shed": load.shed}
        holding = holding and workloads.meets_slo(load, p99_ms)
        if holding:
            slo_rate = float(rate)
    return rungs, slo_rate


def src_digest() -> str:
    """sha256 over the simulator's sources: two result files with the same
    ``src_digest`` and seed must carry the same ``sim_digest``."""
    h = hashlib.sha256()
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC_ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def header(seed: int) -> dict:
    net = LatencyModel()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "latency_model": {"base_s": net.base,
                          "bandwidth_bytes_per_s": net.bandwidth,
                          "jitter_s": net.jitter},
        "log_profiles": {w.name: w.log_profile().name
                         for w in WORKLOADS.values()},
        "src_digest": src_digest(),
    }


def format_header(head: dict) -> str:
    net = head["latency_model"]
    profiles = " ".join(f"{w}={p}" for w, p in head["log_profiles"].items())
    return (f"perfbench seed={head['seed']} nproc={head['nproc']} "
            f"python={head['python']} "
            f"LatencyModel(base={net['base_s'] * 1e6:.0f}us, "
            f"bandwidth={net['bandwidth_bytes_per_s'] / 1e6:.0f}MB/s, "
            f"jitter={net['jitter_s'] * 1e6:.0f}us) "
            f"log: {profiles} src={head['src_digest'][:12]}")


def format_metrics(values: Dict[str, float], sim: dict) -> str:
    lines = []
    for name, value in values.items():
        note = ""
        if name in ("sim_p50_ms", "sim_p99_ms"):
            note = f"  n={sim['samples']}"
        elif name == "failed_ops_share":
            note = f"  {sim['failed']} of {sim['attempted']} attempted"
        lines.append(f"  {name:<44}{value:>16.6g} {metrics.UNITS[name]}"
                     f"{note}")
    return "\n".join(lines)


def single_run(args) -> int:
    """One workload in this interpreter; the driver's contract."""
    name, seed = args.workload, args.seed
    scale = QUICK_SCALE if args.quick else 1.0
    head = header(seed)
    print(format_header(head))
    print(f"workload {name}: {WORKLOADS[name].why}")
    try:
        sim, setups, timeds = timed_reps(name, seed, scale, args.seconds,
                                         args.reps)
        values = metrics.end_to_end(sim, setups, timeds)
        if args.trace:
            ladder, slo_rate = (run_ladder(seed, scale)
                                if name == "mixed_openloop" else ({}, 0.0))
            traced = traced_rep(name, seed, scale)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            layer_values = metrics.per_layer(sim, timeds, traced, ladder,
                                             slo_rate, rss_mb)
    except Failed as failure:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
        return 1
    print(format_metrics(values, sim))
    if args.trace:
        print(format_metrics(layer_values, sim))
    print(f"  sim_digest {sim['digest']}  reps={len(timeds)}")
    if args.out:
        record = {"header": head, "workload": name, "quick": args.quick,
                  "sim_digest": sim["digest"], "reps": len(timeds),
                  "attempted": sim["attempted"], "failed": sim["failed"],
                  "samples": sim["samples"], "end_to_end": values,
                  "per_layer": layer_values if args.trace else {}}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    emitted = layer_values if args.trace else values
    print(json.dumps({
        "correct": True, "attempted": sim["attempted"],
        "failed": sim["failed"],
        "metrics": {n: {"value": v, "unit": metrics.UNITS[n]}
                    for n, v in emitted.items()}}))
    return 0


def report(args) -> int:
    """Every selected workload, each in a fresh interpreter so heap state
    left by one cannot tax the next; collects their records."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=REPO_ROOT) as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "1",
                   "--out", str(out)]
            if args.reps:
                cmd += ["--reps", str(args.reps)]
            if args.quick:
                cmd.append("--quick")
            sys.stdout.flush()
            if subprocess.run(cmd).returncode != 0:
                print(f"perfbench: workload {name} failed; no result "
                      f"file written", file=sys.stderr)
                return 1
            records[name] = json.loads(out.read_text())
    if args.out:
        first = records[names[0]]
        result = {"header": first["header"], "quick": args.quick,
                  "workloads": {
                      name: {k: v for k, v in rec.items()
                             if k not in ("header", "workload", "quick")}
                      for name, rec in records.items()}}
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"perfbench: wrote {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="host seconds of timed work per workload")
    parser.add_argument("--reps", type=int,
                        help="exactly this many repetitions instead")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the operations, 1 repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single-run mode: 0 end-to-end, 1 per-layer")
    parser.add_argument("--out", help="write the result file here")
    args = parser.parse_args(argv)
    if args.quick and not args.reps:
        args.reps = 1
    if args.trace is None:
        return report(args)
    if not args.workload:
        parser.error("--trace needs --workload")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
