"""Key-based range partitioning and cohort placement (§4).

Like Bigtable and PNUTS, Spinnaker distributes the rows of a table across
the cluster using range partitioning.  Each node is assigned a *base key
range*, which is replicated on the next N-1 nodes (N = 3 by default) —
chained declustering [16].  The group of nodes replicating one key range
is a **cohort**; cohorts overlap: with nodes A..E, A-B-C serve A's base
range, B-C-D serve B's, and so on.

Keys here are unsigned integers hashed/encoded by the client API layer
from row keys; the keyspace defaults to ``[0, 2**32)``.  A request is
routed once, by its client, and carries the result (a server locates
the key again only when its layout version differs from the request's);
:func:`key_of` is memoised and lookups bisect precomputed range bounds
(:class:`_Layout`: the live layout and its snapshots).

Elastic membership: the layout is *versioned* and mutable.  The paper
defers "adding nodes" to future work (§10); here a
:class:`MembershipChange` — committed by the affected cohort as an
ordinary log record (see :mod:`repro.core.rebalance`) — splits a cohort
or replaces its member set, bumping :attr:`RangePartitioner.version`.
Clients route off an immutable :class:`CohortMap` snapshot and refresh
it when a node answers ``wrong-node`` with a newer ``map_version``.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["KeyRange", "Cohort", "CohortMap", "MembershipChange",
           "RangePartitioner", "key_of", "preference_order",
           "MEMBERSHIP_KEY", "INTERNAL_KEY_PREFIX"]

KEYSPACE = 1 << 32

#: Keys under this prefix are internal bookkeeping rows: scans skip
#: them and split snapshots do not carry them.
INTERNAL_KEY_PREFIX = b"\x00spinnaker/"
#: Row key of membership-change log records.
MEMBERSHIP_KEY = INTERNAL_KEY_PREFIX + b"membership"


@lru_cache(maxsize=1 << 16)
def key_of(row_key: bytes) -> int:
    """Map an opaque row key to the integer keyspace (order-oblivious).

    Real Spinnaker range-partitions the raw key order; hashing here keeps
    the benchmark workloads uniformly spread without a key sampler, while
    ``RangePartitioner`` still sees proper ranges.  Use
    :func:`ordered_key_of` (``SpinnakerConfig.order_preserving_keys``)
    when range scans matter more than automatic spread.

    Memoised (workloads revisit keys; a stale-routed request is located
    again by the server).
    The cache size is a constant, not a knob: a miss just digests again.
    """
    digest = hashlib.sha256(row_key).digest()
    return int.from_bytes(digest[:4], "big")


def ordered_key_of(row_key: bytes) -> int:
    """Order-preserving key mapping: the row key's first four bytes,
    big-endian.  Byte-lexicographic key order then agrees with keyspace
    order at 4-byte-prefix granularity, so a scan visits cohorts in key
    order (rows sharing a 4-byte prefix always land in one cohort)."""
    return int.from_bytes(row_key[:4].ljust(4, b"\x00"), "big")


@dataclass(frozen=True)
class KeyRange:
    """Half-open key interval [lo, hi)."""

    lo: int
    hi: int

    def contains(self, key: int) -> bool:
        return self.lo <= key < self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"


@dataclass(frozen=True)
class Cohort:
    """One replicated key range: id, range, and its member nodes.

    ``members[0]`` is the node whose *base* range this is — the bootstrap
    leader preference, not a protocol invariant (leadership moves on
    failures).
    """

    cohort_id: int
    key_range: KeyRange
    members: Tuple[str, ...]


@dataclass(frozen=True)
class MembershipChange:
    """One elastic-membership step, committed as a cohort log record.

    ``version`` is the cohort-map version this change produces; a change
    applies only against version - 1, which makes replay and duplicate
    commits idempotent.  Two kinds:

    * ``split`` — cohort ``cohort_id`` keeps ``[lo, split_key)``; a new
      cohort ``new_cohort_id`` takes ``[split_key, hi)`` with members
      ``new_members`` (two of which must be members of the source cohort,
      so they can seed the new replica from local data).
    * ``replace`` — cohort ``cohort_id``'s member set becomes
      ``new_members`` (same key range).
    """

    version: int
    kind: str                       # "split" | "replace"
    cohort_id: int
    new_members: Tuple[str, ...]
    split_key: Optional[int] = None
    new_cohort_id: Optional[int] = None
    #: pre-change member set (replace only): lets retries re-notify the
    #: retired member, which the post-switch commit broadcast skips
    old_members: Tuple[str, ...] = ()

    def encode(self) -> bytes:
        return json.dumps({
            "version": self.version, "kind": self.kind,
            "cohort_id": self.cohort_id,
            "new_members": list(self.new_members),
            "split_key": self.split_key,
            "new_cohort_id": self.new_cohort_id,
            "old_members": list(self.old_members),
        }, sort_keys=True).encode()

    @staticmethod
    def decode(data: bytes) -> "MembershipChange":
        obj = json.loads(data.decode())
        return MembershipChange(
            version=obj["version"], kind=obj["kind"],
            cohort_id=obj["cohort_id"],
            new_members=tuple(obj["new_members"]),
            split_key=obj.get("split_key"),
            new_cohort_id=obj.get("new_cohort_id"),
            old_members=tuple(obj.get("old_members", ())))


def preference_order(members: Sequence[str], topology) -> Tuple[str, ...]:
    """Leader-preference order for a cohort's members.

    With a placed topology that names a ``preferred_dc`` (the
    datacenter hosting the client majority), replicas in that DC come
    first — the election's announce stagger follows this order, so at
    bootstrap (when every candidate ties on n.lst) leadership lands
    next to the clients and strong writes start from the cheap side of
    the WAN.  Ties keep member order; without a topology this is the
    member tuple unchanged (bit-identical flat behavior).  Pure timing
    bias: whenever logs differ, the max-n.lst rule dominates.
    """
    if topology is None or topology.preferred_dc is None:
        return tuple(members)
    preferred = topology.preferred_dc
    return tuple(sorted(members,
                        key=lambda m: topology.dc_of(m) != preferred))


class _Layout:
    """Lookups shared by the live layout and its snapshots: ``cohorts``
    is sorted by range and the ranges tile the keyspace, so a key's
    cohort is found by bisecting the precomputed lower bounds
    (``_reindex`` refreshes them whenever ``cohorts`` changes)."""

    def _reindex(self) -> None:
        self._by_id: Dict[int, Cohort] = {
            c.cohort_id: c for c in self.cohorts}
        self._lows: List[int] = [c.key_range.lo for c in self.cohorts]

    def _index(self, key: int) -> int:
        """Index (position, not id) of the cohort containing ``key``."""
        if not 0 <= key < self.keyspace:
            raise ValueError(f"key {key} outside keyspace")
        return bisect_right(self._lows, key) - 1

    def locate(self, row_key: bytes) -> Cohort:
        """The cohort responsible for a row key (via the key mapper)."""
        return self.cohorts[self._index(self.key_mapper(row_key))]

    def cohort_for_key(self, key: int) -> Cohort:
        return self.cohorts[self._index(key)]

    def cohorts_for_range(self, start_key: bytes,
                          end_key: Optional[bytes]) -> List[Cohort]:
        """Cohorts intersecting [start_key, end_key), in key order.

        Requires an order-preserving key mapper.
        """
        if not self.order_preserving:
            raise ValueError("range queries need ordered_key_of; "
                             "construct the partitioner (or cluster) "
                             "with order-preserving keys")
        lo = self.key_mapper(start_key)
        hi = self.key_mapper(end_key) if end_key else self.keyspace - 1
        return self.cohorts[self._index(lo):
                            self._index(min(hi, self.keyspace - 1)) + 1]

    def cohort(self, cohort_id: int) -> Cohort:
        return self._by_id[cohort_id]

    def cohort_or_none(self, cohort_id: int) -> Optional[Cohort]:
        return self._by_id.get(cohort_id)

    def __len__(self) -> int:
        return len(self.cohorts)


class CohortMap(_Layout):
    """An immutable, versioned snapshot of the cohort layout.

    This is what clients route off: cheap to hand out, safe to keep
    using after the live layout moves on (stale routing is corrected by
    ``wrong-node`` replies carrying the server's ``map_version``).
    ``leader_hints`` seeds cold leader caches with the last leader the
    layout layer heard about per cohort — a hint, never a guarantee.
    """

    def __init__(self, version: int, cohorts: Sequence[Cohort],
                 keyspace: int, key_mapper,
                 leader_hints: Optional[Dict[int, str]] = None):
        self.version = version
        self.cohorts: List[Cohort] = list(cohorts)   # sorted by range.lo
        self.keyspace = keyspace
        self.key_mapper = key_mapper
        self.order_preserving = key_mapper is ordered_key_of
        self.leader_hints: Dict[int, str] = dict(leader_hints or {})
        self._reindex()

    def leader_hint(self, cohort_id: int) -> Optional[str]:
        return self.leader_hints.get(cohort_id)


class RangePartitioner(_Layout):
    """Builds and answers questions about the cluster's cohort layout.

    ``key_mapper`` converts row keys (bytes) to keyspace integers:
    :func:`key_of` (hashing; default) spreads any workload uniformly,
    :func:`ordered_key_of` preserves key order and enables range scans.

    The layout starts at ``version`` 1 and mutates only through
    :meth:`apply_change` — the apply side of a committed
    :class:`MembershipChange` log record.  All lookups answer from the
    current version.
    """

    def __init__(self, nodes: Sequence[str], replication_factor: int = 3,
                 keyspace: int = KEYSPACE, key_mapper=key_of,
                 topology=None, placement: str = "ring"):
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if len(nodes) < replication_factor:
            raise ValueError(
                f"need at least {replication_factor} nodes, "
                f"got {len(nodes)}")
        if placement not in ("ring", "spread", "local"):
            raise ValueError(f"unknown placement policy {placement!r}")
        if placement != "ring" and topology is None:
            raise ValueError(
                f"placement {placement!r} needs a topology")
        if placement == "local" and topology.preferred_dc is None:
            raise ValueError(
                "placement 'local' needs topology.preferred_dc")
        self.nodes = list(nodes)
        self.replication_factor = replication_factor
        self.keyspace = keyspace
        self.key_mapper = key_mapper
        self.order_preserving = key_mapper is ordered_key_of
        self.topology = topology
        self.placement = placement
        self.version = 1
        #: last leader the layout layer heard about, per cohort — seeds
        #: client leader caches (a hint only; elections move leadership)
        self.leader_hints: Dict[int, str] = {}
        self.cohorts: List[Cohort] = []
        n = len(self.nodes)
        step, remainder = divmod(keyspace, n)
        lo = 0
        for i, _node in enumerate(self.nodes):
            hi = lo + step + (1 if i < remainder else 0)
            self.cohorts.append(Cohort(i, KeyRange(lo, hi),
                                       self._members_for(i)))
            lo = hi
        self._reindex()

    def _members_for(self, i: int) -> Tuple[str, ...]:
        """Member set of base cohort ``i``.  ``members[0]`` is always
        ``nodes[i]`` (the base-range owner) under every policy.

        * ``ring`` — chained declustering: the next N-1 nodes in ring
          order (the paper's placement; topology-oblivious).
        * ``spread`` — walk the ring but prefer nodes in datacenters
          the cohort does not cover yet: every cohort spans as many DCs
          as the replication factor allows, so a whole-DC outage never
          takes a majority (cross-DC quorum; writes pay the WAN).
        * ``local`` — put a majority in ``topology.preferred_dc`` and
          spread the rest: strong writes commit inside the client DC
          (local quorum, LAN-speed), at the price of losing write
          availability if the preferred DC goes dark.
        """
        n = len(self.nodes)
        rf = self.replication_factor
        ring = [self.nodes[(i + j) % n] for j in range(n)]
        if self.topology is None or self.placement == "ring":
            return tuple(ring[:rf])
        dc_of = self.topology.dc_of
        members = [ring[0]]
        if self.placement == "local":
            preferred = self.topology.preferred_dc
            local_needed = rf // 2 + 1
            local = sum(1 for m in members if dc_of(m) == preferred)
            for cand in ring[1:]:
                if len(members) == rf or local >= local_needed:
                    break
                if dc_of(cand) == preferred and cand not in members:
                    members.append(cand)
                    local += 1
        # Cover unseen datacenters first ("spread", and the remainder
        # of "local"), then fill from the ring.
        seen = {dc_of(m) for m in members}
        for cand in ring[1:]:
            if len(members) == rf:
                break
            if cand not in members and dc_of(cand) not in seen:
                members.append(cand)
                seen.add(dc_of(cand))
        for cand in ring[1:]:
            if len(members) == rf:
                break
            if cand not in members:
                members.append(cand)
        return tuple(members)

    def _reindex(self) -> None:
        super()._reindex()
        self._by_node: Dict[str, List[Cohort]] = {}
        for cohort in self.cohorts:
            for member in cohort.members:
                self._by_node.setdefault(member, []).append(cohort)

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        """Register a node that owns no cohorts yet (it gains some when a
        :class:`MembershipChange` naming it commits)."""
        if name not in self.nodes:
            self.nodes.append(name)

    def next_cohort_id(self) -> int:
        return max(c.cohort_id for c in self.cohorts) + 1

    def apply_change(self, change: MembershipChange) -> bool:
        """Mutate the layout to ``change.version``; returns True if this
        call applied it, False if it was already applied (or is from the
        future — the caller sequences changes, so that cannot happen in
        a correct run; we refuse rather than corrupt the map)."""
        if change.version != self.version + 1:
            return False
        cohort = self._by_id.get(change.cohort_id)
        if cohort is None:
            raise ValueError(f"no cohort {change.cohort_id}")
        idx = self.cohorts.index(cohort)
        if change.kind == "split":
            if not cohort.key_range.contains(change.split_key):
                raise ValueError(
                    f"split key {change.split_key} outside {cohort}")
            if change.new_cohort_id in self._by_id:
                raise ValueError(
                    f"cohort id {change.new_cohort_id} already in use")
            left = Cohort(cohort.cohort_id,
                          KeyRange(cohort.key_range.lo, change.split_key),
                          cohort.members)
            right = Cohort(change.new_cohort_id,
                           KeyRange(change.split_key, cohort.key_range.hi),
                           change.new_members)
            self.cohorts[idx:idx + 1] = [left, right]
        elif change.kind == "replace":
            self.cohorts[idx] = Cohort(cohort.cohort_id, cohort.key_range,
                                       change.new_members)
        else:
            raise ValueError(f"unknown change kind {change.kind!r}")
        for member in change.new_members:
            self.add_node(member)
        self.version = change.version
        self._reindex()
        return True

    def record_leader(self, cohort_id: int, name: str) -> None:
        """Remember the cohort's latest known leader (routing hint)."""
        self.leader_hints[cohort_id] = name

    def snapshot(self) -> CohortMap:
        """An immutable routing snapshot of the current layout."""
        return CohortMap(self.version, list(self.cohorts), self.keyspace,
                         self.key_mapper, self.leader_hints)

    # ------------------------------------------------------------------
    def cohorts_of_node(self, node: str) -> List[Cohort]:
        """The cohorts this node participates in (3 with N=3)."""
        return list(self._by_node.get(node, []))

    def peers_of(self, node: str, cohort_id: int) -> List[str]:
        return [m for m in self._by_id[cohort_id].members if m != node]
