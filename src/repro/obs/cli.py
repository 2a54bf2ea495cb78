"""``python -m repro trace`` — run a traced load and render the result.

Runs one load point of the fig9-style write experiment (or a read /
mixed workload) against a fresh Spinnaker cluster with every request
traced, then prints either the slowest request's span tree (default) or
the per-phase attribution table plus slowest-trace exemplars
(``--phases``).  Deterministic: the same flags print the same bytes.

Examples::

    python -m repro trace                      # slowest write, span tree
    python -m repro trace --phases             # per-phase table
    python -m repro trace --phases --scale 0.05
    python -m repro trace --disk ssd --workload read
    python -m repro trace --trace-id 17        # one specific trace
"""

from __future__ import annotations

import argparse
from typing import List

from ..sim.disk import DiskProfile
from .phases import (collect_traces, format_phase_table, format_trace,
                     phase_summary, slowest_traces)
from .trace import RequestTracer

__all__ = ["main"]

#: ``--disk`` choices -> DiskProfile constructor
_DISKS = {
    "sata": DiskProfile.sata_log,
    "ssd": DiskProfile.ssd_log,
    "memory": DiskProfile.memory_log,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Causal request tracing: run a traced load point "
                    "and render span trees / per-phase latency "
                    "attribution (see OBSERVABILITY.md).")
    parser.add_argument("--phases", action="store_true",
                        help="print the per-phase attribution table "
                             "(plus slowest-trace exemplars) instead of "
                             "a single span tree")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fig9-style load scale; sets thread count "
                             "(default 0.05)")
    parser.add_argument("--workload", choices=("write", "read", "mixed"),
                        default="write")
    parser.add_argument("--disk", choices=sorted(_DISKS), default="sata",
                        help="log-device profile (default sata, as fig9)")
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the scale-derived thread count")
    parser.add_argument("--ops", type=int, default=None,
                        help="measured ops per thread (default from "
                             "scale)")
    parser.add_argument("--sample-every", type=int, default=1,
                        help="trace 1-in-N requests (default 1 = all)")
    parser.add_argument("--slowest", type=int, default=1,
                        help="number of slowest-trace exemplars to "
                             "render (default 1)")
    parser.add_argument("--trace-id", type=int, default=None,
                        help="render this trace id instead of the "
                             "slowest")
    return parser


def _run_traced_load(args) -> RequestTracer:
    from ..bench.harness import scaled_ladder, scaled_ops, traced_point
    from ..bench.workload import (mixed_workload, read_workload,
                                  write_workload)
    from ..core import SpinnakerConfig

    if args.workload == "read":
        workload = read_workload("strong", preload_rows=500)
    elif args.workload == "mixed":
        workload = mixed_workload(0.5, "strong")
    else:
        workload = write_workload()
    # fig9's thread ladder, scaled like `repro bench --scale`: the
    # midpoint of the scaled ladder approximates moderate load.
    ladder = scaled_ladder([4, 8, 16, 32, 64, 96], args.scale)
    threads = (args.threads if args.threads is not None
               else ladder[len(ladder) // 2])
    ops = args.ops if args.ops is not None else scaled_ops(args.scale, 40)
    point, tracer = traced_point(
        workload, threads, ops, n_nodes=args.nodes,
        config=SpinnakerConfig(log_profile=_DISKS[args.disk]()),
        seed=args.seed, sample_every=args.sample_every)
    print(f"ran {args.workload} load: {threads} threads x {ops} ops on "
          f"{args.nodes} nodes ({args.disk} log), "
          f"{point.throughput:.0f} req/s, mean {point.mean_ms:.2f} ms; "
          f"{tracer.sampled} traced / {tracer.skipped} unsampled")
    return tracer


def main(argv: List[str]) -> int:
    args = _build_parser().parse_args(argv)
    tracer = _run_traced_load(args)
    views = collect_traces(tracer)
    if not views:
        print("no completed traces collected")
        return 1
    print()
    if args.phases:
        print(format_phase_table(phase_summary(views)))
        exemplars = slowest_traces(views, k=max(0, args.slowest))
        for view in exemplars:
            print()
            print(f"slowest {view.op}:")
            print(format_trace(view))
        return 0
    if args.trace_id is not None:
        chosen = [v for v in views if v.trace_id == args.trace_id]
        if not chosen:
            print(f"trace {args.trace_id} not found "
                  f"({len(views)} traces collected)")
            return 1
    else:
        chosen = slowest_traces(views, k=max(1, args.slowest))
    for view in chosen:
        print(format_trace(view))
        print()
    return 0
