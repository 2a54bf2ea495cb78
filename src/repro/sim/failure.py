"""Failure injection.

Drives the availability experiments (Table 1, Fig. 1, the Appendix B
recovery walk-through) and the fault-tolerance tests.  A schedule is a
list of timed actions against objects that expose ``crash()`` /
``restart()`` (nodes) or against the network (partitions).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from .events import Simulator

__all__ = ["FailureSchedule"]


class FailureSchedule:
    """Timed crash/restart/partition actions, applied to a simulator."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.log: List[Tuple[float, str]] = []

    def _run(self, at: float, label: str, fn: Callable[[], Any]) -> None:
        def action() -> None:
            self.log.append((self.sim.now, label))
            fn()
        self.sim.call_at(at, action)

    # -- node failures ----------------------------------------------------
    def crash_at(self, at: float, target: Any,
                 label: Optional[str] = None) -> None:
        name = label or getattr(target, "name", repr(target))
        self._run(at, f"crash {name}", target.crash)

    def restart_at(self, at: float, target: Any,
                   label: Optional[str] = None) -> None:
        name = label or getattr(target, "name", repr(target))
        self._run(at, f"restart {name}", target.restart)

    def crash_for(self, at: float, duration: float, target: Any,
                  label: Optional[str] = None) -> None:
        """Crash at ``at`` and restart ``duration`` seconds later."""
        self.crash_at(at, target, label)
        self.restart_at(at + duration, target, label)

    def lose_disk_at(self, at: float, target: Any,
                     label: Optional[str] = None) -> None:
        """Permanent media failure: the node restarts with no local data.

        ``target`` must expose ``lose_disk()`` (Spinnaker nodes do); the
        follower-recovery path then skips local recovery and goes straight
        to catch-up (§6.1).
        """
        name = label or getattr(target, "name", repr(target))
        self._run(at, f"lose-disk {name}", target.lose_disk)

    # -- network failures -----------------------------------------------
    def partition_at(self, at: float, network: Any, a: str, b: str,
                     symmetric: bool = True) -> None:
        arrow = "|" if symmetric else ">"
        self._run(at, f"partition {a}{arrow}{b}",
                  lambda: network.block(a, b, symmetric=symmetric))

    def heal_at(self, at: float, network: Any,
                a: Optional[str] = None, b: Optional[str] = None) -> None:
        self._run(at, f"heal {a or 'all'}",
                  lambda: network.heal(a, b))

    def partition_for(self, at: float, duration: float, network: Any,
                      a: str, b: str, symmetric: bool = True) -> None:
        """Partition at ``at`` and heal the pair ``duration`` later."""
        self.partition_at(at, network, a, b, symmetric=symmetric)
        self.heal_at(at + duration, network, a, b)

    def drop_burst(self, at: float, duration: float, network: Any,
                   a: str, b: str, rate: float,
                   symmetric: bool = True) -> None:
        """Make the ``a``/``b`` link lossy for a window of time."""
        self._run(at, f"drop {a}~{b} p={rate:g}",
                  lambda: network.set_drop_rate(a, b, rate,
                                                symmetric=symmetric))
        self._run(at + duration, f"drop-end {a}~{b}",
                  lambda: network.set_drop_rate(a, b, 0.0,
                                                symmetric=symmetric))

    def latency_spike(self, at: float, duration: float, network: Any,
                      extra: float) -> None:
        """Add ``extra`` seconds to every message for a window of time.

        Spikes are additive, so overlapping spikes compose and unwind
        deterministically.
        """
        def _raise() -> None:
            network.extra_delay += extra

        def _lower() -> None:
            network.extra_delay = max(0.0, network.extra_delay - extra)

        self._run(at, f"slow +{extra:g}s", _raise)
        self._run(at + duration, f"slow-end -{extra:g}s", _lower)
