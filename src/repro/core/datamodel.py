"""Spinnaker's data model and client-visible result/error types (§3).

Data is organized into rows; each row is identified by its key and
contains columns with values and store-managed version numbers.  Keys,
column names and values are opaque bytes.  Version numbers are
monotonically increasing integers assigned by the cohort leader and are
the basis of the optimistic concurrency control offered by
``conditionalPut``/``conditionalDelete``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..values import value_type

__all__ = [
    "GetResult", "PutResult", "Consistency",
    "DatastoreError", "VersionMismatch", "NotLeader", "Unavailable",
    "RequestTimeout",
]


class Consistency:
    """Read consistency levels (§3): the ``consistent`` flag of ``get``."""

    STRONG = "strong"      # routed to the leader; always the latest value
    TIMELINE = "timeline"  # any replica; possibly stale, never out of order


@value_type
class GetResult:
    """A read result: the value and its version number."""

    value: Optional[bytes]
    version: int
    found: bool = True

    @classmethod
    def not_found(cls) -> "GetResult":
        return cls(None, 0, False)


@value_type
class PutResult:
    """A write acknowledgement: the version number that was written."""

    version: int


class DatastoreError(Exception):
    """Base class for errors returned by the datastore API."""

    code = "error"


class VersionMismatch(DatastoreError):
    """conditionalPut/Delete: the supplied version is no longer current."""

    code = "version-mismatch"

    def __init__(self, expected: int, actual: int):
        super().__init__(f"expected version {expected}, found {actual}")
        self.expected = expected
        self.actual = actual


class NotLeader(DatastoreError):
    """The contacted node is not the cohort's leader.

    Carries the node's best guess at the current leader so smart clients
    can re-route without consulting the coordination service (which must
    stay off the critical path, §4.2).
    """

    code = "not-leader"

    def __init__(self, leader_hint: Optional[str] = None):
        super().__init__(f"not leader (hint: {leader_hint})")
        self.leader_hint = leader_hint


class Unavailable(DatastoreError):
    """The cohort cannot serve the request (no quorum / mid-takeover)."""

    code = "unavailable"


class RequestTimeout(DatastoreError):
    """The client gave up waiting."""

    code = "timeout"


def row_to_dict(cells: Dict[bytes, "object"]) -> Dict[bytes, GetResult]:
    """Convert engine cells to client-visible results, hiding tombstones."""
    out: Dict[bytes, GetResult] = {}
    for col, cell in cells.items():
        if cell.tombstone:
            continue
        out[col] = GetResult(value=cell.value, version=cell.version)
    return out
