"""Messages for the eventually consistent baseline (§2.3, §9).

Clients talk to a *coordinator* (any replica of the key); the coordinator
fans out to replicas.  There is no leader, no propose/ack ordering, and
no commit message — consistency comes only from last-write-wins
timestamps plus read repair and hinted handoff.
"""

from __future__ import annotations

from typing import Optional

from ..values import value_type

__all__ = ["CoordWrite", "CoordRead", "ReplicaWrite", "ReplicaRead",
           "ReplicaReadResult"]


@value_type
class CoordWrite:
    """Client → coordinator."""

    key: bytes
    colname: bytes
    value: Optional[bytes]
    consistency: str          # "weak" (W=1) or "quorum" (W=2)
    tombstone: bool = False


@value_type
class CoordRead:
    """Client → coordinator."""

    key: bytes
    colname: bytes
    consistency: str          # "weak" (R=1) or "quorum" (R=2)


@value_type
class ReplicaWrite:
    """Coordinator → replica (also used for hint replay & read repair)."""

    group_id: int
    key: bytes
    colname: bytes
    value: Optional[bytes]
    timestamp: float          # LWW conflict-resolution timestamp
    seq: int                  # coordinator-unique tiebreak
    tombstone: bool = False


@value_type
class ReplicaRead:
    """Coordinator → replica."""

    group_id: int
    key: bytes
    colname: bytes


@value_type
class ReplicaReadResult:
    value: Optional[bytes]
    timestamp: float
    seq: int
    tombstone: bool
    found: bool
    replica: str
