"""Proposal batching: amortize per-message write costs where they queue.

Spinnaker's Fig. 4 write path pays, for every client write, one leader
log force, one ``Propose`` round-trip per follower, and one follower CPU
slice.  The leader never holds a write back to share a propose with
later ones: ``CohortReplica._replicate`` forces and proposes each write
group in the event it is admitted — one commit-queue entry, one
``SharedLog.append_batch`` force and one ``Propose`` to the peers, the
force *in parallel* with the propose (§5).  A multi-operation
transaction (§8.2) is one group: one force, one propose, all or
nothing.

Amortizing happens where the queue forms, never by waiting for company:

* at the leader, the log device's group commit folds the forces that
  queue behind a busy device into one device operation;
* at a follower, ``propose_batching`` folds the proposes from one
  leader and epoch that queue for a busy CPU into one slice
  (``CohortReplica.handle_propose``, receive-side batching), and
  follower group commit folds the forces queued behind its device;
* a new leader re-proposes its uncommitted tail in chunks
  (``chunk_groups``), one record per propose with batching off.

``propose_batch_max_records`` and :data:`MAX_BATCH_BYTES` cap a folded
slice and a takeover chunk alike.  A cumulative ack for a batch's top
LSN covers every earlier pending write (``CommitQueue.add_ack_upto``),
which is sound because a follower logs a propose only on top of its
``prev`` (PROTOCOL.md, *The prefix rule*).

Leadership changes: each force's completion carries the generation of
the leader that issued it; a crash or step-down bumps the generation,
so a stale completion marks nothing forced and commits nothing.
"""

from __future__ import annotations

from typing import List, Sequence

from ..storage.records import WriteRecord

__all__ = ["chunk_groups", "MAX_BATCH_BYTES"]

#: byte cap of one batch, beside ``propose_batch_max_records``
MAX_BATCH_BYTES = 64 * 1024


def chunk_groups(groups: Sequence[Sequence[WriteRecord]],
                 max_records: int,
                 max_bytes: int = MAX_BATCH_BYTES
                 ) -> List[List[WriteRecord]]:
    """Pack indivisible record groups into batches within the limits.

    Groups are never split: a single group larger than either limit
    still forms its own (oversized) batch.  Order is preserved, so
    batches stay LSN-contiguous.
    """
    batches: List[List[WriteRecord]] = []
    cur: List[WriteRecord] = []
    cur_bytes = 0
    for group in groups:
        nbytes = 0
        for record in group:
            nbytes += record.size
        if cur and (len(cur) + len(group) > max_records
                    or cur_bytes + nbytes > max_bytes):
            batches.append(cur)
            cur, cur_bytes = [], 0
        cur.extend(group)
        cur_bytes += nbytes
    if cur:
        batches.append(cur)
    return batches
