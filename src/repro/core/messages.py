"""Protocol messages exchanged between clients and Spinnaker nodes.

Client-facing messages (``ClientGet``/``ClientWrite``) and the replication
protocol messages of Fig. 4 (``Propose``/``Ack``/``Commit``) plus the
recovery traffic of §6 (``CatchupRequest``/``CatchupChunk``/
``TakeoverState``).  All are
frozen dataclasses (:func:`~repro.values.value_type`: slotted, with a
cheap ``__init__``); the network layer delivers object references, so
immutability matters.

A client operation carries its **routing stamp**: ``cohort_id``, the
cohort the client's map located the key in, and ``map_version``, that
map's version.  Layout changes are totally ordered by version, so a
server at the same version finds the replica by ``cohort_id`` without
locating the key again; at any other version (or for a hand-built
message left at the defaults, "not routed") it locates by key.

A strong ``ClientGet`` or ``ClientWrite`` re-sent after a try timed out
carries a **hold**: ``timed_out``, the members this operation
timed out on, and ``hold``, how long the client will wait for news of
a leader.  A replica whose only answer would name one of them, name no
leader, or name itself while still in takeover keeps the request for up
to ``hold`` seconds and answers as soon as it learns of a leader; it
never serves a held request (PROTOCOL.md, *Client messages*).  A
``ClientScan`` is never held.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..storage.lsn import LSN
from ..storage.records import WriteRecord
from ..values import value_type
from .partition import Cohort, MembershipChange

__all__ = [
    "ClientGet", "ClientScan", "ClientWrite", "WriteOp",
    "Propose", "Ack", "Commit",
    "CatchupRequest", "CatchupChunk", "TakeoverState",
    "GetCohortMap",
    "MigrationStart", "MigrationPrepare",
]


# ---------------------------------------------------------------------------
# Client operations
# ---------------------------------------------------------------------------

@value_type
class ClientGet:
    key: bytes
    colname: bytes
    consistent: bool          # §3: strong (True) vs timeline (False)
    #: optional causal-tracing context (see ``repro.obs``); None when the
    #: request is unsampled or tracing is off.
    trace: Optional[object] = None
    cohort_id: Optional[int] = None   # routing stamp (module docstring)
    map_version: int = 0
    timed_out: Tuple[str, ...] = ()   # hold (module docstring)
    hold: float = 0.0


@value_type
class ClientScan:
    """Ordered range read over one cohort's key range (extension; needs
    order-preserving keys).  The client splits a multi-cohort scan into
    one of these per cohort, in key order.  A server on a newer layout
    than ``map_version`` answers ``wrong-node``: the cohort's range may
    have shrunk, and rows the client expects from it live elsewhere."""

    cohort_id: int
    start_key: bytes
    end_key: Optional[bytes]   # exclusive; None = end of cohort range
    limit: int
    consistent: bool
    trace: Optional[object] = None   # repro.obs TraceContext, if sampled
    map_version: int = 0             # 0: not routed, served as addressed


@value_type
class WriteOp:
    """One write: put / delete / conditionalPut / conditionalDelete (§3,
    §5.1).  ``expected_version`` is None for unconditional writes;
    ``tombstone`` selects delete."""

    key: bytes
    colname: bytes
    value: Optional[bytes]
    tombstone: bool = False
    expected_version: Optional[int] = None


@value_type
class ClientWrite:
    """The one client-write request: a tuple of ops on one cohort,
    committed as one transaction.  A single-column write is one op, a
    multi-column put (§3) one op per column, a multi-operation
    transaction (§8.2) one op per buffered write.  The ops' log records
    are forced as one batch and replicated with one propose, so
    recovery can never surface a prefix; a version mismatch on any op
    writes nothing."""

    ops: Tuple[WriteOp, ...]
    trace: Optional[object] = None   # repro.obs TraceContext, if sampled
    cohort_id: Optional[int] = None  # routing stamp (module docstring)
    map_version: int = 0
    timed_out: Tuple[str, ...] = ()  # hold (module docstring)
    hold: float = 0.0

    @property
    def key(self) -> bytes:
        """Routing key (all ops must live in the same cohort)."""
        return self.ops[0].key


# ---------------------------------------------------------------------------
# Replication (Fig. 4)
# ---------------------------------------------------------------------------

@value_type
class Propose:
    cohort_id: int
    epoch: int
    records: Tuple[WriteRecord, ...]    # group of writes (multi-op batch)
    prev: LSN     # just below records[0] in the leader's stream (PROTOCOL.md)
    #: commit-info piggybacking (§D.1 optimization, off by default)
    committed_lsn: Optional[LSN] = None


@value_type
class Ack:
    cohort_id: int
    epoch: int
    lsn: LSN          # highest LSN of the proposed batch, now durable
    sender: str = ""  # acking follower (acks are cumulative per sender)


@value_type
class Commit:
    """Asynchronous commit message: apply pending writes up to ``lsn``."""

    cohort_id: int
    epoch: int
    lsn: LSN


# ---------------------------------------------------------------------------
# Recovery (§6)
# ---------------------------------------------------------------------------

@value_type
class CatchupRequest:
    """Where one follower stands in the chunked catch-up (§6.1).

    On the wire (follower → leader) it is the follower's whole part:
    "I am ``RECOVERING``; catch me up".  The leader answers by pushing
    chunks and keeps one of these per stream as its paging cursor.

    ``floor`` is the follower's durable catch-up floor (state at or
    below it is already installed from shipped SSTables); ``seen`` is
    the volatile paging token — the max ``max_lsn`` of tables shipped
    so far from the generation named by ``source``.  The leader ships
    the next chunk after ``seen`` when ``source`` matches its own
    ``(leader, manifest_id)`` generation, and otherwise restarts paging
    from ``floor`` — so a flush/compaction under an in-flight catch-up
    never replays a stale token, and nothing below the durable floor is
    ever re-shipped.
    """

    cohort_id: int
    follower: str
    follower_cmt: LSN
    floor: LSN = LSN.zero()
    seen: LSN = LSN.zero()
    source: Optional[Tuple[str, int]] = None


@value_type
class CatchupChunk:
    """Leader → follower: one bounded page of committed state.

    ``sstables`` carries the next slice of the leader's snapshot
    manifest (ascending ``(max_lsn, min_lsn, table_id)`` order) when the
    log rolled past the follower; ``floor`` is the new **safe floor**
    the follower may durably advance to after installing them — every
    surviving cell at or below it is contained in shipped tables, even
    with overlapping compacted tables still unshipped.  ``snapshot_seen``
    is the next paging token, valid only for ``source``.

    ``valid_lsns`` lists every live LSN in (valid_after, valid_upto] in
    the leader's log: any record the follower holds in that window that
    is *not* listed was discarded by a leader change and must be
    logically truncated into the skipped-LSN list (§6.1.1).  Windowing
    the truncation per chunk keeps it sound under paging — LSNs above
    ``valid_upto`` are judged by later chunks.

    ``more`` announces further chunks.  ``final`` marks the complete
    page the leader built with client writes closed: nothing can commit
    behind it, so it — and only it — promotes a ``RECOVERING`` follower.
    """

    cohort_id: int
    epoch: int
    committed_lsn: LSN
    source: Tuple[str, int]
    sstables: Tuple
    snapshot_seen: LSN
    floor: LSN
    records: Tuple[WriteRecord, ...]
    valid_lsns: Tuple[LSN, ...]
    valid_after: LSN
    valid_upto: LSN
    more: bool
    final: bool = False
    trace: Optional[object] = None   # repro.obs TraceContext, if sampled


@value_type
class TakeoverState:
    """Leader → follower, opening a catch-up push (Fig. 6, line 4):
    report your f.cmt and durable catch-up floor."""

    cohort_id: int
    epoch: int


# ---------------------------------------------------------------------------
# Elastic membership (rebalance protocol)
# ---------------------------------------------------------------------------

@value_type
class GetCohortMap:
    """Client → any node: send me your current routing snapshot.  Sent
    after a ``wrong-node`` reply whose ``map_version`` outruns the
    client's snapshot."""


@value_type
class MigrationStart:
    """Rebalancer → source-cohort leader: execute one
    :class:`~repro.core.partition.MembershipChange`.  Idempotent — the
    leader skips the Paxos round when the change's version has already
    been applied and only re-runs the side effects (prepare + publish)."""

    cohort_id: int
    change: MembershipChange


@value_type
class MigrationPrepare:
    """Migration leader → joining node: instantiate a replica for
    ``cohort`` ahead of the membership switch, so the joiner can follow
    the cohort's elections and catch up through the ordinary §6
    machinery.  ``base_epoch`` floors the new replica's epoch at the
    source cohort's, keeping every post-switch LSN above the shipped
    snapshot (Appendix B ordering)."""

    cohort: Cohort
    base_epoch: int
    map_version: int
