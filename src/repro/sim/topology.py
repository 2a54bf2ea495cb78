"""Hierarchical network topology: datacenters, racks, and WAN links.

The flat :class:`~repro.sim.network.Network` models one rack-local
switch — every pair of endpoints shares a single
:class:`~repro.sim.network.LatencyModel`.  A :class:`Topology` upgrades
that to the three link classes of a geo-replicated deployment:

* **intra-rack** — both endpoints on the same (dc, rack) pair; the
  1-GbE rack switch of the paper's testbed (Appendix C);
* **intra-dc** — same datacenter, different racks; a couple of extra
  switch hops and an aggregation layer;
* **wan** — different datacenters; milliseconds to tens of
  milliseconds of propagation, with *asymmetric* per-direction delay
  (real inter-DC routes are rarely symmetric — see "The Performance of
  Paxos in the Cloud", PAPERS.md).

Each link class has its own latency/bandwidth/jitter model; the WAN
class additionally adds a fixed one-way propagation delay per ordered
``(src_dc, dst_dc)`` pair.  Endpoints not explicitly placed fall into
``(default_dc, default_rack)``, so a topology-bearing network behaves
exactly like the flat one until somebody is actually placed remotely.

Determinism: :meth:`Topology.delay` draws exactly **one** jitter sample
per message from the network RNG stream — the same draw count as the
flat path — so flat and hierarchical runs with the same seed consume
RNG state in the same pattern, and a run without a topology is
bit-identical to pre-topology builds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .network import LatencyModel

__all__ = ["Placement", "Topology"]


class Placement:
    """Where one endpoint lives: a (datacenter, rack) pair."""

    __slots__ = ("dc", "rack")

    def __init__(self, dc: str, rack: str):
        self.dc = dc
        self.rack = rack

    def __repr__(self) -> str:
        return f"Placement({self.dc!r}, {self.rack!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Placement)
                and self.dc == other.dc and self.rack == other.rack)


class Topology:
    """Per-link-class latency for a multi-datacenter deployment.

    ``wan_delays`` maps ordered ``(src_dc, dst_dc)`` pairs to a fixed
    one-way propagation delay in seconds; directions may differ
    (asymmetric routes).  Pairs not in the map fall back to
    ``wan_one_way``.  ``preferred_dc`` marks the datacenter hosting the
    client majority — placement policies put leaders there (see
    ``core/partition.py``); it has no effect on message delays.
    """

    def __init__(self,
                 intra_rack: Optional[LatencyModel] = None,
                 intra_dc: Optional[LatencyModel] = None,
                 wan: Optional[LatencyModel] = None,
                 wan_one_way: float = 0.025,
                 wan_delays: Optional[Dict[Tuple[str, str], float]] = None,
                 preferred_dc: Optional[str] = None,
                 default_dc: str = "dc0",
                 default_rack: str = "rack0"):
        self.intra_rack = intra_rack or LatencyModel()
        self.intra_dc = intra_dc or LatencyModel(
            base=250e-6, bandwidth_bytes_per_sec=125e6, jitter=60e-6)
        # The WAN model carries switching cost + serialization + jitter;
        # propagation lives in the per-direction delay map below.
        self.wan = wan or LatencyModel(
            base=400e-6, bandwidth_bytes_per_sec=50e6, jitter=500e-6)
        self.wan_one_way = wan_one_way
        self.wan_delays: Dict[Tuple[str, str], float] = dict(
            wan_delays or {})
        self.preferred_dc = preferred_dc
        self.default = Placement(default_dc, default_rack)
        self._placements: Dict[str, Placement] = {}

    @classmethod
    def round_robin(cls, n_nodes: int, n_dcs: int = 3,
                    wan_one_way: float = 0.025,
                    asymmetry: float = 0.0) -> "Topology":
        """``node0..`` dealt round-robin over ``dc0..``, ``dc0`` preferred.

        Each direction's WAN delay sits 0, 1/3, 2/3 or 1 x ``asymmetry``
        above ``wan_one_way``, picked from the pair's indices: routes are
        asymmetric, yet the same arguments always give the same matrix.
        """
        delays = {}
        for i in range(n_dcs):
            for j in range(n_dcs):
                if i != j:
                    skew = ((3 * i + j) % 4) / 3.0
                    delays[(f"dc{i}", f"dc{j}")] = (
                        wan_one_way * (1.0 + asymmetry * skew))
        topo = cls(wan_one_way=wan_one_way, wan_delays=delays,
                   preferred_dc="dc0")
        for i in range(n_nodes):
            topo.place(f"node{i}", f"dc{i % n_dcs}")
        return topo

    # -- placement ------------------------------------------------------
    def place(self, name: str, dc: str, rack: Optional[str] = None) -> None:
        """Pin endpoint ``name`` to a datacenter (and optionally rack)."""
        self._placements[name] = Placement(
            dc, rack if rack is not None else f"{dc}-rack0")

    def placement_of(self, name: str) -> Placement:
        """The endpoint's placement; unplaced endpoints share the
        default (dc, rack) so they behave exactly as on a flat network."""
        return self._placements.get(name, self.default)

    def dc_of(self, name: str) -> str:
        return self.placement_of(name).dc

    def same_dc(self, a: str, b: str) -> bool:
        return self.dc_of(a) == self.dc_of(b)

    def dcs(self) -> List[str]:
        """All datacenters with at least one placed endpoint, sorted."""
        return sorted({p.dc for p in self._placements.values()}
                      | {self.default.dc})

    # -- delays ---------------------------------------------------------
    def wan_delay(self, src_dc: str, dst_dc: str) -> float:
        """Fixed one-way propagation delay ``src_dc`` → ``dst_dc``."""
        return self.wan_delays.get((src_dc, dst_dc), self.wan_one_way)

    def delay(self, src: str, dst: str, size_bytes: int, rng) -> float:
        """One-way delay for one message.  Draws exactly one jitter
        sample from ``rng`` regardless of link class (same RNG
        consumption pattern as the flat network path)."""
        a, b = self.placement_of(src), self.placement_of(dst)
        if a.dc != b.dc:
            return (self.wan.delay(size_bytes, rng)
                    + self.wan_delay(a.dc, b.dc))
        if a.rack != b.rack:
            return self.intra_dc.delay(size_bytes, rng)
        return self.intra_rack.delay(size_bytes, rng)

    def wan_rtt(self, dc_a: str, dc_b: str) -> float:
        """Nominal WAN round trip of a 256-byte message between two
        datacenters."""
        transfer = 256 / self.wan.bandwidth if self.wan.bandwidth else 0.0
        one_way = self.wan.base + transfer
        return (2 * one_way + self.wan_delay(dc_a, dc_b)
                + self.wan_delay(dc_b, dc_a))

    def min_wan_rtt(self) -> float:
        """The smallest nominal WAN RTT between any two placed DCs —
        the floor any cross-DC round trip must pay."""
        dcs = self.dcs()
        rtts = [self.wan_rtt(a, b)
                for i, a in enumerate(dcs) for b in dcs[i + 1:]]
        return min(rtts) if rtts else 0.0

    def rtt_bound(self, size_bytes: int = 4096) -> float:
        """Upper estimate of any round trip in this topology: twice the
        worst padded one-way delay over every link class and WAN
        direction.  Timeout derivation uses this (``core/api.py``,
        ``coord/client.py``) so per-try budgets scale with the WAN
        instead of assuming a LAN."""
        worst = 0.0
        for model in (self.intra_rack, self.intra_dc):
            transfer = (size_bytes / model.bandwidth
                        if model.bandwidth else 0.0)
            worst = max(worst, model.base + transfer + 3.0 * model.jitter)
        transfer = (size_bytes / self.wan.bandwidth
                    if self.wan.bandwidth else 0.0)
        wan_fixed = self.wan.base + transfer + 3.0 * self.wan.jitter
        worst_prop = self.wan_one_way
        for pair in sorted(self.wan_delays):
            worst_prop = max(worst_prop, self.wan_delays[pair])
        worst = max(worst, wan_fixed + worst_prop)
        return 2.0 * worst
