"""Leader-side force + propose, batched: amortize per-message write costs.

The :class:`ProposalBatcher` is the only owner of the leader's WAL
force and propose fan-out: every record group the leader replicates is
submitted here (``CohortReplica._replicate``), and ``_send`` is the one
place that forces and proposes it.  With ``propose_batching`` off every
submitted group flushes on its own — the same code, batches of one
group.  With it on:

Spinnaker's Fig. 4 write path pays, for every client write, one leader
log force, one ``Propose`` round-trip per follower, and one follower CPU
slice.  The log device already amortizes forces (group commit), so at
high load the throughput knee is set by the per-*message* overheads.
The :class:`ProposalBatcher` closes that gap on the propose path:
record groups from independent client writes are coalesced into a
single multi-record ``Propose`` — one batched WAL force
(``SharedLog.append_batch``, all-or-nothing) and one cumulative ack per
peer (``CommitQueue.add_ack_upto`` already treats an ack for a batch's
top LSN as covering every earlier pending write, which is sound because
proposes travel over in-order channels).

Batching must not tax an idle cohort, so the one policy is adaptive:

* a group flushes **immediately** while the pipeline is uncongested —
  even with a force in flight, an independent force+propose overlaps
  it and the log device's own group commit absorbs slow media, so the
  low- and mid-load latency profiles are untouched;
* under queuing pressure (several older writes still waiting in the
  commit queue ahead of the buffer), arriving groups coalesce: they
  ride out an in-flight batched force and flush when it completes, or
  — with no force outstanding — a bounded window
  ``propose_batch_window`` opens so company can accumulate.  Commits
  are strictly LSN-ordered, so waiting behind an already-congested
  queue adds little client-visible latency; the window closes early
  (``on_progress``) if the congestion drains first.

Groups submitted together (multi-operation transactions, §8.2) are
indivisible: they always share one force and one propose, preserving
the no-partial-persistence guarantee even when batches are repacked.

Buffer state machine (per leader replica)
-----------------------------------------
::

    EMPTY --submit--> BUFFERED --immediate/limit flush--> EMPTY
    BUFFERED --pressure & force in flight--> RIDING (flush when the
             in-flight force's callback fires)
    BUFFERED --pressure & no force in flight--> WINDOW(timer)
    WINDOW --timer expiry | on_progress drain | limit--> flush -> EMPTY
    any state --clear() on crash/step-down--> EMPTY (generation += 1)

Invariants
----------
- Groups submitted together are indivisible: ``chunk_groups`` never
  splits one, so a multi-operation transaction (§8.2) always shares one
  force and one propose — no partial persistence.
- Buffered records are already in the commit queue but never logged or
  proposed; ``clear()`` drops them from the queue so a later commit
  message cannot commit a phantom.
- ``_inflight_forces`` counts only forces issued by the current
  generation: the generation guard makes a stale force callback (from
  before a crash or step-down) a no-op, so it can neither corrupt the
  accounting nor flush the next incarnation's buffer.
- Batches are LSN-contiguous (submission order is LSN order and order
  is preserved), so a single cumulative ack covers a whole batch.

Failure cases: leadership lost with a window pending → the timer is
cancelled and the buffer dropped; leadership lost with a force in
flight → the force completes against a bumped generation and is
ignored; a flush discovering the replica is no longer leader clears
instead of sending.

Tracing: ``_send`` gives every traced member group a ``log_force`` span
over the shared batched force, batching on or off (see
``OBSERVABILITY.md`` on reading shared-force spans).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..storage.records import WriteRecord

__all__ = ["ProposalBatcher", "chunk_groups", "MAX_BATCH_BYTES"]

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


class ProposalBatcher:
    """Coalesces one leader replica's outgoing record groups."""

    __slots__ = ("replica", "_groups", "_buffered_records",
                 "_buffered_bytes", "_inflight_forces", "_window", "_gen",
                 "batches_sent", "records_batched", "max_batch_records",
                 "windows_opened")

    #: commit-queue entries older than the buffer head that count as
    #: congestion; below this the pipelined fast path is kept (a write
    #: may still overlap its immediate predecessors in flight)
    PRESSURE_DEPTH = 2

    def __init__(self, replica):
        self.replica = replica
        self._groups: List[Tuple[WriteRecord, ...]] = []
        self._buffered_records = 0
        self._buffered_bytes = 0
        self._inflight_forces = 0
        #: pending batch-window timer (a Simulator.schedule handle)
        self._window: Optional[list] = None
        self._gen = 0
        # counters (surfaced in cluster stats / benchmarks)
        self.batches_sent = 0
        self.records_batched = 0
        self.max_batch_records = 0
        self.windows_opened = 0

    # ------------------------------------------------------------------
    def submit(self, records: Sequence[WriteRecord]) -> None:
        """Queue one indivisible record group for batched replication.

        The records are already in the commit queue; the batcher owns
        their WAL force and propose fan-out from here.
        """
        cfg = self.replica.node.config
        self._groups.append(tuple(records))
        self._buffered_records += len(records)
        for record in records:
            self._buffered_bytes += record.size
        if (not cfg.propose_batching
                or self._buffered_records >= cfg.propose_batch_max_records
                or self._buffered_bytes >= MAX_BATCH_BYTES):
            # A limit is reached — or batching is off, where every
            # submitted group flushes on its own.
            self._flush()
        elif not self._under_pressure():
            # Uncongested pipeline: never delay a write — even with a
            # force in flight, an independent force+propose overlaps it
            # (the log device's own group commit absorbs slow media).
            self._flush()
        elif self._inflight_forces > 0:
            # Congested and a batched force is already in flight: ride
            # it out; its completion callback flushes us (group commit
            # at the propose level).
            pass
        else:
            self._open_window()

    def on_progress(self) -> None:
        """Commit queue advanced: flush early once the congestion that
        opened the window has drained."""
        if (self._window is not None and self._groups
                and self._inflight_forces == 0
                and not self._under_pressure()):
            self._flush()

    def clear(self) -> None:
        """Leadership lost (crash or step-down): buffered records were
        never logged nor proposed — drop them from the commit queue so a
        later commit message cannot commit a phantom."""
        self._gen += 1
        self._inflight_forces = 0
        self._cancel_window()
        groups, self._groups = self._groups, []
        self._buffered_records = self._buffered_bytes = 0
        for group in groups:
            for record in group:
                self.replica.queue.drop(record.lsn)

    # ------------------------------------------------------------------
    def _under_pressure(self) -> bool:
        head = self._groups[0][0].lsn
        depth = self.replica.queue.pending_older_than(
            head, limit=self.PRESSURE_DEPTH)
        return depth >= self.PRESSURE_DEPTH

    def _open_window(self) -> None:
        if self._window is not None:
            return
        replica = self.replica
        self.windows_opened += 1
        self._window = replica.node.sim.schedule(
            replica.node.config.propose_batch_window, self._window_expired)

    def _window_expired(self) -> None:
        self._window = None
        if self._groups:
            self._flush()

    def _cancel_window(self) -> None:
        if self._window is not None:
            self.replica.node.sim.cancel(self._window)
            self._window = None

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        self._cancel_window()
        replica = self.replica
        node, cfg = replica.node, replica.node.config
        if not replica.is_leader or not node.alive:
            self.clear()
            return
        groups, self._groups = self._groups, []
        self._buffered_records = self._buffered_bytes = 0
        for batch in chunk_groups(groups, cfg.propose_batch_max_records):
            self._send(batch)

    def _send(self, batch: List[WriteRecord]) -> None:
        replica = self.replica
        node = replica.node
        lsns = [record.lsn for record in batch]
        if replica._traces:
            # Every traced member group gets its own ``log_force`` span
            # over the shared batched force: identical [start, end] per
            # member, exactly one span per trace — each request sees the
            # full force it waited on, and per-trace sums never count a
            # force twice.
            tracer = node.request_tracer
            shared = sum(1 for lsn in lsns if lsn in replica._traces)
            for lsn in lsns:
                state = replica._traces.get(lsn)
                if state is not None and state.force_span is None:
                    state.force_span = tracer.start(
                        state.ctx, "log_force", node.name,
                        batch_records=len(batch), traced_members=shared)
        # Counted before the append: a log without a device completes
        # the force inside it.
        self._inflight_forces += 1
        gen = self._gen

        def _forced() -> None:
            if gen != self._gen:
                return      # a crash/step-down reset the pipeline
            self._inflight_forces -= 1
            if replica._traces:
                for lsn in lsns:
                    replica._trace_force_done(lsn)
            for lsn in lsns:
                replica.queue.mark_forced(lsn)
            replica._advance()
            if self._groups and self._window is None:
                self._flush()

        node.wal.append_batch(batch, then=_forced)
        replica.send_propose(batch)
        self.batches_sent += 1
        self.records_batched += len(batch)
        if len(batch) > self.max_batch_records:
            self.max_batch_records = len(batch)
