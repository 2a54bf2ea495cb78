"""Deterministic discrete-event simulation substrate.

Everything distributed in this reproduction — Spinnaker nodes, the
Cassandra-style baseline, the coordination service, benchmark clients —
runs on this kernel.  See DESIGN.md ("Substitutions") for why a calibrated
simulation stands in for the paper's physical cluster.
"""

from .events import Event, SimulationError, Simulator
from .process import (AllOf, Interrupt, Process, SimHost, Supervisor,
                      Timeout, all_of, drive, spawn, timeout)
from .resources import Charge, Resource, charge, serve
from .rng import RngRegistry
from .network import Endpoint, LatencyModel, Network, Request, RpcTimeout
from .topology import Placement, Topology
from .disk import DiskProfile, LogDevice
from .metrics import Histogram
from .tracing import NullTracer, TraceEvent, Tracer

__all__ = [
    "Simulator", "Event", "SimulationError",
    "Process", "Timeout", "Interrupt", "AllOf", "Supervisor",
    "SimHost",
    "spawn", "timeout", "all_of", "drive",
    "Resource", "Charge", "charge", "serve",
    "RngRegistry",
    "Network", "Endpoint", "LatencyModel", "Request", "RpcTimeout",
    "Topology", "Placement",
    "LogDevice", "DiskProfile",
    "Histogram",
    "Tracer", "NullTracer", "TraceEvent",
]
