"""Which layer each source file belongs to, and how a profile folds into it.

The traced repetition runs under ``cProfile``: a profiler call record *is*
a span at a function boundary, recorded from outside the program.  A
layer's self time is the summed ``tottime`` of the files this map assigns
to it.  The map is total over the packages perfbench drives — the test
fails when a file appears there without an entry — and anything else
under ``src/repro`` falls through to ``other``.
"""

from __future__ import annotations

import sysconfig
from pathlib import Path
from typing import Dict, Tuple

LAYERS = ("sim.kernel", "sim.network", "sim.disk", "storage.wal",
          "storage.engine", "coord", "core.api", "core.node",
          "core.replication", "core.recovery", "obs", "chaos", "bench",
          "stdlib", "other")

_FILES = {
    "sim.kernel": "sim/events sim/process sim/resources sim/rng "
                  "sim/__init__",
    "sim.network": "sim/network sim/topology",
    "sim.disk": "sim/disk",
    "storage.wal": "storage/wal storage/records storage/lsn",
    "storage.engine": "storage/engine storage/memtable storage/sstable "
                      "storage/bloom storage/compaction storage/snapshot "
                      "storage/__init__",
    "coord": "coord/service coord/client coord/znode coord/recipes "
             "coord/__init__",
    "core.api": "core/api core/partition core/datamodel",
    "core.node": "core/node core/messages core/config core/cluster "
                 "core/__init__",
    "core.replication": "core/replication core/batching core/commitqueue "
                        "core/multiop",
    "core.recovery": "core/election core/recovery core/rebalance "
                     "core/loadbalance",
    "obs": "obs/trace obs/phases obs/cli obs/__init__ sim/tracing",
    "chaos": "chaos/nemesis chaos/invariants chaos/catchup chaos/shrinker "
             "chaos/__init__ sim/failure core/checker",
    "bench": "sim/metrics",
    "other": "core/masterslave",
}

#: ``"sim/events.py"`` -> ``"sim.kernel"``
LAYER_OF_FILE: Dict[str, str] = {
    f"{stem}.py": layer for layer, stems in _FILES.items()
    for stem in stems.split()}

#: the packages the map must cover file by file
MAPPED_PACKAGES = ("sim", "storage", "coord", "core", "obs", "chaos")

_STDLIB = sysconfig.get_paths()["stdlib"]


def layer_of(filename: str, src_root: Path, bench_root: Path) -> str:
    """The layer a profiler record's ``filename`` is charged to."""
    if filename.startswith(("~", "<")) or filename.startswith(_STDLIB):
        return "stdlib"        # built-ins, frozen importlib, the library
    path = Path(filename)
    if bench_root in path.parents:
        return "bench"
    if src_root in path.parents:
        return LAYER_OF_FILE.get(
            path.relative_to(src_root).as_posix(), "other")
    return "other"


def fold(stats: dict, src_root: Path,
         bench_root: Path) -> Dict[str, Tuple[float, int]]:
    """``pstats`` entries -> ``{layer: (self seconds, calls)}``."""
    out = {layer: (0.0, 0) for layer in LAYERS}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct,
                                   _callers) in stats.items():
        layer = layer_of(filename, src_root, bench_root)
        seconds, calls = out[layer]
        out[layer] = (seconds + tottime, calls + ncalls)
    return out


def calls_to(stats: dict, file_suffix: str, *funcs: str) -> int:
    """Exact call count of the named functions of one file (``"~"`` is
    the profiler's file name for built-ins)."""
    return sum(ncalls for (filename, _line, func), (_cc, ncalls, *_rest)
               in stats.items()
               if filename.endswith(file_suffix) and func in funcs)
