"""Network faults, each applied now and undone after its duration.

The chaos nemesis (:mod:`repro.chaos.nemesis`) is the one fault
injector: its applier picks each scheduled fault, finds a leader,
crashes nodes, wipes disks and expires sessions itself, and hands the
link faults to the functions here.  Each one applies its fault to a
:class:`~repro.sim.network.Network`, logs it through ``note`` and
schedules its own repair ``duration`` seconds on — one heap entry,
logged through ``note`` again when it runs.

A repair undoes its link state outright, not by a count:
``Network.block`` is a set, so a heal also clears a later overlapping
fault on the same link.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from .network import Network

__all__ = ["partition", "partition_dc", "drop_burst", "latency_spike",
           "wan_degrade"]

Note = Callable[[str], None]


def partition(net: Network, a: str, b: str, duration: float, note: Note,
              symmetric: bool = True) -> None:
    """Cut ``a``/``b`` (only ``a`` → ``b`` if not ``symmetric``).  The
    heal undoes exactly that: a one-way block heals one way, so an
    overlapping reverse block keeps its own life."""
    net.block(a, b, symmetric=symmetric)
    arrow = "|" if symmetric else ">"
    note(f"partition {a}{arrow}{b} for {duration:.2f}s")

    def heal() -> None:
        net.heal(a, b, symmetric=symmetric)
        note(f"healed {a}{arrow}{b}")
    net.sim.schedule(duration, heal)


def partition_dc(net: Network, dc: str, duration: float,
                 note: Note) -> None:
    """Cut every endpoint in datacenter ``dc`` off from every other."""
    if net.topology is None:
        note("partition-dc: no topology, skipped")
        return
    inside, outside = _split_by_dc(net, dc)
    pairs = [(a, b) for a in inside for b in outside]
    for a, b in pairs:
        net.block(a, b)
    note(f"partition-dc {dc}: isolated {len(inside)} "
         f"endpoints for {duration:.2f}s")

    def heal() -> None:
        for a, b in pairs:
            net.heal(a, b)
        note(f"healed partition-dc {dc}")
    net.sim.schedule(duration, heal)


def drop_burst(net: Network, a: str, b: str, rate: float, duration: float,
               note: Note) -> None:
    """Make the ``a``/``b`` link drop a ``rate`` share of messages."""
    net.set_drop_rate(a, b, rate)
    note(f"drop-burst {a}~{b} p={rate:.2f} for {duration:.2f}s")

    def end() -> None:
        net.set_drop_rate(a, b, 0.0)
        note(f"drop-burst {a}~{b} ended")
    net.sim.schedule(duration, end)


def latency_spike(net: Network, extra: float, duration: float,
                  note: Note) -> None:
    """Add ``extra`` seconds to every message.  Spikes add up, so
    overlapping ones compose and unwind in any order."""
    net.extra_delay += extra
    note(f"latency-spike +{extra * 1e3:.1f}ms for {duration:.2f}s")

    def end() -> None:
        net.extra_delay = max(0.0, net.extra_delay - extra)
        note(f"latency-spike -{extra * 1e3:.1f}ms ended")
    net.sim.schedule(duration, end)


def wan_degrade(net: Network, dc_a: str, dc_b: str, extra: float,
                duration: float, note: Note) -> None:
    """Add ``extra`` seconds to the ``dc_a`` → ``dc_b`` WAN direction
    only: routes degrade asymmetrically."""
    if net.topology is None:
        note("wan-degrade: no topology, skipped")
        return
    pairs = _wan_pairs(net, dc_a, dc_b)
    for a, b in pairs:
        net.set_extra_delay(a, b, extra, symmetric=False)
    note(f"wan-degrade {dc_a}>{dc_b} +{extra * 1e3:.1f}ms "
         f"for {duration:.2f}s")

    def end() -> None:
        for a, b in pairs:
            net.set_extra_delay(a, b, 0.0, symmetric=False)
        note(f"wan-degrade {dc_a}>{dc_b} ended")
    net.sim.schedule(duration, end)


def _split_by_dc(net: Network, dc: str) -> Tuple[List[str], List[str]]:
    """(endpoints in ``dc``, endpoints elsewhere), sorted by name."""
    inside: List[str] = []
    outside: List[str] = []
    for name in sorted(net._endpoints):
        (inside if net.topology.dc_of(name) == dc else outside).append(name)
    return inside, outside


def _wan_pairs(net: Network, dc_a: str,
               dc_b: str) -> List[Tuple[str, str]]:
    """Every ordered endpoint pair from ``dc_a`` to ``dc_b``."""
    names = sorted(net._endpoints)
    a_side = [n for n in names if net.topology.dc_of(n) == dc_a]
    b_side = [n for n in names if net.topology.dc_of(n) == dc_b]
    return [(a, b) for a in a_side for b in b_side]
