"""Benchmark harness: workloads, closed-loop clients, and the registry of
experiments, one per table/figure of the paper's evaluation (see
DESIGN.md's index)."""

from .workload import (Workload, VALUE_SIZE, conditional_put_workload,
                       mixed_workload, read_workload, write_workload)
from .harness import (CassandraTarget, LoadPoint, SpinnakerTarget, curves,
                      run_load, sweep)
from .openloop import (MuxedUsers, OpenLoadPoint, PoissonArrivals,
                       run_open_load)
from .experiments import ALL_EXPERIMENTS, ExperimentResult
from .report import render

__all__ = [
    "Workload", "VALUE_SIZE",
    "read_workload", "write_workload", "mixed_workload",
    "conditional_put_workload",
    "SpinnakerTarget", "CassandraTarget", "LoadPoint", "run_load", "sweep",
    "curves",
    "PoissonArrivals",
    "MuxedUsers", "OpenLoadPoint", "run_open_load",
    "ALL_EXPERIMENTS", "ExperimentResult", "render",
]
