"""Spinnaker's data model and client-visible result/error types (§3).

Data is organized into rows; each row is identified by its key and
contains columns with values and store-managed version numbers.  Keys,
column names and values are opaque bytes.  Version numbers are
monotonically increasing integers assigned by the cohort leader and are
the basis of the optimistic concurrency control offered by
``conditionalPut``/``conditionalDelete``.
"""

from __future__ import annotations

from typing import Optional

from ..values import value_type

__all__ = ["GetResult", "PutResult", "DatastoreError", "VersionMismatch",
           "RequestTimeout"]


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


class RequestTimeout(DatastoreError):
    """The client gave up waiting."""

    code = "timeout"

