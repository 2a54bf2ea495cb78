"""Command-line entry point.

``python -m repro``            — overview + experiment list
``python -m repro bench ...``  — run experiments (see repro.bench.report)
``python -m repro demo``       — a 30-second guided failover demo
``python -m repro chaos``      — randomized nemesis + invariant audit
                                 (--seed N --duration S [--nodes K]
                                 [--shrink]); same seed, same output
``python -m repro lint``       — determinism & protocol static checks
                                 ([path] [--json] [--rule R]
                                 [--write-baseline]); exits nonzero on
                                 new findings
``python -m repro trace``      — causal request tracing: span trees and
                                 per-phase latency attribution
                                 ([--phases] [--scale S] [--workload W]
                                 [--disk D]); see OBSERVABILITY.md
``python -m repro profile``    — cProfile a named experiment at small
                                 scale, print the hot-path report
                                 ([experiment] [--scale S] [--sort KEY]
                                 [--limit N])
``python -m repro tune``       — offline self-tuning of protocol knobs
                                 (coordinate descent over the knob
                                 registry, phase-weighted objective,
                                 deterministic per seed; [--profile P]
                                 [--seed N] [--max-trials K]
                                 [--ledger F] [--write-config]); see
                                 TUNING.md
"""

from __future__ import annotations

import sys


def _overview() -> None:
    from .bench.experiments import ALL_EXPERIMENTS
    print(__doc__)
    print("Experiments (python -m repro bench <name> [--scale S]):")
    for exp in ALL_EXPERIMENTS.values():
        print(f"  {exp.exp_id:<22s} {exp.title}")


def _demo() -> None:
    from .core import SpinnakerCluster, SpinnakerConfig
    from .sim.disk import DiskProfile
    from .sim.process import drive
    from .sim.tracing import Tracer

    tracer = Tracer()
    config = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                             commit_period=0.3)
    cluster = SpinnakerCluster(n_nodes=5, config=config, seed=7,
                               tracer=tracer)
    cluster.start()
    client = cluster.client()

    def session():
        yield from client.put(b"demo", b"v", b"hello")
        got = yield from client.get(b"demo", b"v", consistent=True)
        return got

    got = drive(cluster, session(), limit=30.0, what="demo ops")
    print(f"wrote and read back: {got.value!r}\n")
    t_kill = cluster.sim.now
    victim = cluster.kill_leader(0)
    cluster.run_until(lambda: cluster.leader_of(0) is not None,
                      limit=30.0, what="failover")
    print(f"killed {victim}; new leader of cohort 0: "
          f"{cluster.leader_of(0)}")
    print("\nprotocol trace of the failover:")
    print(tracer.format(since=t_kill))


def _chaos(rest) -> int:
    import argparse

    from .chaos import (ChaosConfig, format_regression_test, run_chaos,
                        shrink_run)

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Randomized nemesis with invariant auditing. "
                    "Deterministic: the same seed and flags reproduce "
                    "the run byte-for-byte.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=30.0,
                        help="storm length in simulated seconds")
    parser.add_argument("--nodes", type=int, default=5)
    parser.add_argument("--mean-fault-gap", type=float, default=2.0,
                        help="MTTF budget (mean seconds between faults)")
    parser.add_argument("--mean-repair", type=float, default=1.5,
                        help="MTTR budget (mean outage seconds)")
    parser.add_argument("--dcs", type=int, default=1,
                        help="datacenters to spread the cluster over "
                             "(>1 adds WAN links, DC-spread replica "
                             "placement, and DC-level fault kinds)")
    parser.add_argument("--wan-one-way", type=float, default=0.02,
                        help="base one-way WAN propagation delay (s)")
    parser.add_argument("--shrink", action="store_true",
                        help="on violation, minimize the schedule and "
                             "print a regression test")
    args = parser.parse_args(rest)
    config = ChaosConfig(n_nodes=args.nodes, duration=args.duration,
                         mean_fault_gap=args.mean_fault_gap,
                         mean_repair=args.mean_repair,
                         n_dcs=args.dcs, wan_one_way=args.wan_one_way)
    report = run_chaos(args.seed, config)
    print(report.format())
    if report.ok:
        return 0
    if args.shrink:
        print("\nshrinking the failing schedule...")
        result = shrink_run(args.seed, config)
        print(f"minimized {len(result.original)} -> "
              f"{len(result.minimized)} events in "
              f"{result.replays} replays\n")
        print(format_regression_test(result))
    return 1


def _profile(rest) -> int:
    import argparse
    import cProfile
    import pstats

    from .bench.experiments import ALL_EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Run one experiment under cProfile and print the "
                    "hottest functions.  Defaults to a small scale: the "
                    "hot paths are the same as at full scale (the same "
                    "code runs, just fewer times), so profiling stays "
                    "cheap enough to iterate on.")
    parser.add_argument("experiment", nargs="?", default="fig9",
                        help="experiment id (see 'python -m repro'); "
                             "default fig9, the write path")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="experiment scale (default 0.05, the "
                             "bench-smoke tier)")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative", "ncalls"],
                        help="stat to sort the report by")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows to print (default 25)")
    args = parser.parse_args(rest)
    fn = ALL_EXPERIMENTS.get(args.experiment)
    if fn is None:
        print(f"unknown experiment {args.experiment!r}; "
              f"choices: {', '.join(ALL_EXPERIMENTS)}")
        return 2
    profiler = cProfile.Profile()
    profiler.enable()
    result = fn(scale=args.scale)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    print(f"profiled {args.experiment} at scale {args.scale}: "
          f"shape {'OK' if result.passed else 'MISMATCH'}")
    return 0


def main(argv) -> int:
    if not argv:
        _overview()
        return 0
    command, rest = argv[0], argv[1:]
    if command == "bench":
        from .bench.report import main as bench_main
        return bench_main(rest)
    if command == "demo":
        _demo()
        return 0
    if command == "chaos":
        return _chaos(rest)
    if command == "lint":
        from .analysis.cli import main as lint_main
        return lint_main(rest)
    if command == "trace":
        from .obs.cli import main as trace_main
        return trace_main(rest)
    if command == "profile":
        return _profile(rest)
    if command == "tune":
        from .tune.cli import main as tune_main
        return tune_main(rest)
    print(f"unknown command {command!r}; try 'bench', 'demo', 'chaos', "
          f"'lint', 'trace', 'profile' or 'tune'")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
