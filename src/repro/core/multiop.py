"""Multi-operation transactions — the §8.2 future-work extension.

"The basic idea would be to let a transaction create multiple log
records, but only invoke the replication protocol for a batch of log
records at commit time."  This module implements exactly that for
transactions scoped to a single cohort (the natural unit in a sharded
store): buffered writes, atomically forced as one log batch, replicated
with one propose, committed contiguously by the commit queue.  Nothing
on the server is specific to it: ``commit`` sends the buffered ops as
the same :class:`~repro.core.messages.ClientWrite` a single ``put``
sends, through the same handler — a transaction is that path with more
records.

Usage::

    txn = Transaction(client)
    txn.put(b"account:1", b"balance", b"90")
    txn.put(b"account:2", b"balance", b"110")
    result = yield from txn.commit()

Atomicity guarantees:

* the leader forces all the transaction's log records in one device
  operation (``SharedLog.append_batch``), so a crash can never persist a
  prefix;
* followers do the same on the propose path;
* the commit queue commits in LSN order, and a batch becomes ready as a
  unit, so readers never observe a partially applied transaction at any
  replica.

Known limitation (shared with the paper's sketch): a leader failure in
the middle of takeover re-proposals resolves records one at a time, so a
transaction interrupted *there* could commit partially if a second
failure hits mid-batch; a redo/undo pass (§8.2) would close that window.
"""

from __future__ import annotations

from typing import List, Optional

from .api import SpinnakerClient
from .datamodel import DatastoreError
from .messages import WriteOp

__all__ = ["Transaction"]


class Transaction:
    """Buffers writes for a single-cohort, multi-row atomic commit."""

    def __init__(self, client: SpinnakerClient):
        self.client = client
        self._ops: List[WriteOp] = []
        self._cohort_id: Optional[int] = None
        self.committed = False

    # ------------------------------------------------------------------
    def _check_cohort(self, key: bytes) -> None:
        cohort = self.client.partitioner.locate(key)
        if self._cohort_id is None:
            self._cohort_id = cohort.cohort_id
        elif cohort.cohort_id != self._cohort_id:
            raise DatastoreError(
                f"cross-cohort transaction: key {key!r} lives in cohort "
                f"{cohort.cohort_id}, transaction started in "
                f"{self._cohort_id}")

    def _add(self, op: WriteOp) -> "Transaction":
        if self.committed:
            raise DatastoreError("transaction already committed")
        self._check_cohort(op.key)
        self._ops.append(op)
        return self

    # ------------------------------------------------------------------
    def put(self, key: bytes, colname: bytes,
            value: bytes) -> "Transaction":
        return self._add(WriteOp(key=key, colname=colname, value=value))

    def delete(self, key: bytes, colname: bytes) -> "Transaction":
        return self._add(WriteOp(key=key, colname=colname, value=None,
                               tombstone=True))

    def conditional_put(self, key: bytes, colname: bytes, value: bytes,
                        version: int) -> "Transaction":
        return self._add(WriteOp(key=key, colname=colname, value=value,
                               expected_version=version))

    # ------------------------------------------------------------------
    def commit(self):
        """``yield from`` me: atomically commit every buffered op."""
        if self.committed:
            raise DatastoreError("transaction already committed")
        if not self._ops:
            raise DatastoreError("empty transaction")
        result = yield from self.client._write(tuple(self._ops), op="txn")
        self.committed = True
        return result

    def __len__(self) -> int:
        return len(self._ops)
