"""Traditional 2-way synchronous master-slave replication (§1.1, Fig. 1).

This module exists to demonstrate *why* Spinnaker uses Paxos: with
master-slave pairs there are failure sequences where the database becomes
unavailable — or silently loses committed writes — with only one node
down at a time.

The protocol modeled here is the textbook one: all writes go to the
master; the master ships the log record to the slave and forces its own
commit record **only after the slave forces it first**.  If the slave is
down, the master continues alone (that is the availability choice that
creates the trap).  Policies on failover:

* ``"safe"`` — a node only serves if it *knows* it has the latest
  database state.  A slave that restarts while the master is down cannot
  know what it missed, so the pair becomes unavailable (Fig. 1d).
* ``"unsafe"`` — the surviving node always serves.  Reads can return
  stale data and committed writes are lost if the master never returns.
* ``"block"`` — writes are refused whenever either node is down; never
  loses data, never serves stale data, but availability suffers on
  *every* single-node failure.

Compare with Spinnaker (§8.1): a Paxos cohort keeps serving through any
single failure *and* any failure sequence that leaves a majority alive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.disk import DiskProfile, LogDevice
from ..sim.events import Simulator
from ..sim.network import Network
from ..sim.rng import RngRegistry

__all__ = ["MasterSlavePair", "MSUnavailable"]


class MSUnavailable(Exception):
    """The pair cannot serve the request under the configured policy."""


class _MSNode:
    """One half of the pair: a log, a key-value state, and liveness."""

    def __init__(self, sim: Simulator, rng: RngRegistry, name: str):
        self.sim = sim
        self.name = name
        self.device = LogDevice(sim, rng, f"{name}-log",
                                profile=DiskProfile.ssd_log())
        self.alive = True
        self.last_lsn = 0
        self.log: List[Tuple[int, bytes, bytes]] = []   # (lsn, key, value)
        self.state: Dict[bytes, bytes] = {}
        #: True while this node is certain it holds the latest committed
        #: state.  Cleared when the node restarts after downtime — it
        #: cannot know what it missed.
        self.in_sync = True

    def force_write(self, lsn: int, key: bytes, value: bytes):
        """Durably log and apply one write; generator (yields the force)."""
        ev = self.device.force(128 + len(key) + len(value))
        yield ev
        self.last_lsn = lsn
        self.log.append((lsn, key, value))
        self.state[key] = value

    def crash(self) -> None:
        self.alive = False
        self.device.crash()

    def restart(self) -> None:
        self.alive = True
        self.device.restart()
        self.in_sync = False  # may have missed writes while down


class MasterSlavePair:
    """A 2-way synchronously replicated store with pluggable failover."""

    POLICIES = ("safe", "unsafe", "block")

    def __init__(self, sim: Simulator, network: Network, rng: RngRegistry,
                 policy: str = "safe"):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.sim = sim
        self.policy = policy
        self.master = _MSNode(sim, rng, "ms-master")
        self.slave = _MSNode(sim, rng, "ms-slave")
        self._next_lsn = 0
        self.writes_committed = 0

    # ------------------------------------------------------------------
    def _acting(self) -> _MSNode:
        """Which node serves requests right now (or raise)."""
        if self.policy == "block":
            if not (self.master.alive and self.slave.alive):
                raise MSUnavailable("a node is down and policy is 'block'")
            return self.master
        if self.policy == "safe":
            # Only a node that can prove it holds the latest state may
            # serve.  Fig. 1(d): a node that restarted while its peer was
            # down cannot prove that.
            for node in (self.master, self.slave):
                if node.alive and node.in_sync:
                    return node
            raise MSUnavailable(
                "no live node can prove it has the latest state")
        # "unsafe": any survivor serves, stale or not.
        for node in (self.master, self.slave):
            if node.alive:
                return node
        raise MSUnavailable("both nodes down")

    # ------------------------------------------------------------------
    def write(self, key: bytes, value: bytes):
        """Replicated write; generator — ``yield from`` me.

        Returns the commit LSN.  Raises :class:`MSUnavailable` per the
        failover policy.
        """
        node = self._acting()
        self._next_lsn += 1
        lsn = self._next_lsn
        other = self.slave if node is self.master else self.master
        if other.alive:
            if other.last_lsn < node.last_lsn:
                # Peer rejoined while we stayed current: log-ship the gap
                # (one force covers the batch), after which it is in sync.
                for old_lsn, old_key, old_value in node.log:
                    if old_lsn > other.last_lsn:
                        other.log.append((old_lsn, old_key, old_value))
                        other.state[old_key] = old_value
                ev = other.device.force(4096)
                yield ev
                other.last_lsn = node.last_lsn
                other.in_sync = True
            # Synchronous replication: the peer forces first.
            yield from other.force_write(lsn, key, value)
        yield from node.force_write(lsn, key, value)
        if not other.alive:
            other.in_sync = False  # it is now missing this write
        self.writes_committed += 1
        return lsn

    def read(self, key: bytes) -> Optional[bytes]:
        """Read from whichever node is serving (no generator needed)."""
        return self._acting().state.get(key)

    # ------------------------------------------------------------------
    def available_for_writes(self) -> bool:
        try:
            self._acting()
            return True
        except MSUnavailable:
            return False

    def lost_writes(self) -> List[int]:
        """LSNs committed but missing from every live node's log."""
        live_lsns: set = set()
        for node in (self.master, self.slave):
            if node.alive:
                live_lsns.update(lsn for lsn, _k, _v in node.log)
        return [lsn for lsn in range(1, self._next_lsn + 1)
                if lsn not in live_lsns]
