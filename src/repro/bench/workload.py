"""Workload definitions (§9, Appendices C & D).

The paper's workloads:

* **reads** — each client reads 4 KB values from random rows (§9.1);
* **writes** — each client writes 4 KB values into rows with consecutive
  keys (§9.2);
* **mixed** — a read/write mix at a fixed write percentage (§D.3);
* **conditional put** — values first inserted, then atomically replaced
  via the conditional-put API (§D.5).

Loads are swept by doubling the number of threads per client node
(Appendix C); the *measured* completed requests/second is the x-axis.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List

__all__ = ["Workload", "VALUE_SIZE", "read_workload", "write_workload",
           "mixed_workload", "conditional_put_workload", "ZipfSampler"]


#: the skew of every zipfian workload: the YCSB default
ZIPF_THETA = 0.99


class ZipfSampler:
    """Zipfian index sampler (YCSB-style skew; not in the paper, used by
    the skew ablation to show leader hot-spotting).

    Index ``i`` (0-based) is drawn with probability proportional to
    ``1 / (i + 1) ** theta``.
    """

    def __init__(self, n: int, theta: float = ZIPF_THETA):
        if n < 1:
            raise ValueError("n must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        weights = [1.0 / (i + 1) ** theta for i in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample(self, rng) -> int:
        """Draw an index using ``rng.random()``."""
        return bisect.bisect_left(self._cdf, rng.random())

    def probability(self, index: int) -> float:
        lo = self._cdf[index - 1] if index > 0 else 0.0
        return self._cdf[index] - lo

#: the paper uses 4 KB values everywhere
VALUE_SIZE = 4096


@dataclass
class Workload:
    """One benchmark workload.

    ``read_mode``/``write_mode`` name consistency levels and are
    interpreted by the target adapter: for Spinnaker reads,
    ``"strong"``/``"timeline"``; for baseline reads, ``"quorum"``/
    ``"weak"``; for baseline writes, ``"quorum"``/``"weak"``; Spinnaker
    writes ignore the mode (there is only one kind) unless it is
    ``"conditional"``.
    """

    name: str
    write_fraction: float = 0.0
    read_mode: str = "strong"
    write_mode: str = "default"
    value_size: int = VALUE_SIZE
    #: rows preloaded before measurement (the read working set — cached
    #: in memory, as in the paper's read experiments)
    preload_rows: int = 2000
    #: "uniform" (the paper's workloads) or "zipfian" (skew ablation,
    #: at ZIPF_THETA)
    key_distribution: str = "uniform"

    def validate(self) -> "Workload":
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.value_size < 0:
            raise ValueError("value_size must be >= 0")
        if self.key_distribution not in ("uniform", "zipfian"):
            raise ValueError(
                f"unknown key distribution {self.key_distribution!r}")
        return self

    def key_chooser(self, keys, rng):
        """A zero-arg callable drawing keys per the distribution."""
        if self.key_distribution == "zipfian":
            sampler = ZipfSampler(len(keys))
            return lambda: keys[sampler.sample(rng)]
        return lambda: rng.choice(keys)


def read_workload(read_mode: str, preload_rows: int = 2000) -> Workload:
    """§9.1: 100% reads of 4 KB values from random (preloaded) rows."""
    return Workload(name=f"read-{read_mode}", write_fraction=0.0,
                    read_mode=read_mode,
                    preload_rows=preload_rows).validate()


def write_workload(write_mode: str = "default") -> Workload:
    """§9.2: 100% writes of 4 KB values to consecutive keys."""
    return Workload(name=f"write-{write_mode}", write_fraction=1.0,
                    write_mode=write_mode, preload_rows=0).validate()


def mixed_workload(write_fraction: float, read_mode: str) -> Workload:
    """§D.3: mixed reads and writes at a given write percentage."""
    return Workload(name=f"mixed-{int(write_fraction * 100)}w-{read_mode}",
                    write_fraction=write_fraction, read_mode=read_mode,
                    preload_rows=2000).validate()


def conditional_put_workload() -> Workload:
    """§D.5: atomically replace preloaded values via conditional put."""
    return Workload(name="conditional-put", write_fraction=1.0,
                    read_mode="strong", write_mode="conditional",
                    preload_rows=2000).validate()
