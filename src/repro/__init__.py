"""Reproduction of "Using Paxos to Build a Scalable, Consistent, and
Highly Available Datastore" (Rao, Shekita, Tata; VLDB 2011).

Packages:

* :mod:`repro.sim` — deterministic discrete-event simulation substrate
  (network, disks, CPUs, network faults);
* :mod:`repro.storage` — WAL / memtable / SSTable storage engine;
* :mod:`repro.coord` — ZooKeeper-equivalent coordination service;
* :mod:`repro.core` — Spinnaker itself (the paper's contribution);
* :mod:`repro.baseline` — the eventually consistent comparison store;
* :mod:`repro.bench` — workloads and one experiment per table/figure.

Quick start::

    from repro.core import SpinnakerCluster
    cluster = SpinnakerCluster(n_nodes=5, seed=42)
    cluster.start()
    client = cluster.client()

See README.md, DESIGN.md and EXPERIMENTS.md at the repository root.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
