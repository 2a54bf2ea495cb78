"""Leader-side force + propose, batched: amortize per-message write costs.

The :class:`ProposalBatcher` is the only owner of the leader's WAL
force and propose fan-out: every write group the leader replicates is
submitted here as its commit-queue entry (``CohortReplica._replicate``),
and ``_send`` is the one place that forces, proposes, marks and traces
a batch, by walking its entries.  With ``propose_batching`` off every
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
a follower logs a propose only on top of its ``prev``).

Batching must not tax an idle cohort, so the one policy is adaptive:

* a group flushes **immediately** while the pipeline is uncongested —
  even with a force in flight, an independent force+propose overlaps
  it and the log device's own group commit absorbs slow media, so the
  low- and mid-load latency profiles are untouched;
* under queuing pressure (several older writes still waiting in the
  commit queue ahead of the buffer), arriving groups coalesce in a
  window of at most ``propose_batch_window``, which opens at the first
  held group.  The window is the bound: the buffer flushes at its
  expiry or sooner — when one of the batcher's in-flight forces
  completes (group commit at the propose level), when the congestion
  drains with none in flight (``on_progress``), or at a limit.  A held
  write never waits out a slow force, whose follower forces would then
  set the commit.

Buffer state machine (per leader replica)
-----------------------------------------
::

    EMPTY --submit--> BUFFERED --immediate/limit flush--> EMPTY
    BUFFERED --pressure--> WINDOW(timer: propose_batch_window)
    WINDOW --timer expiry | in-flight force done | drain with no force
           in flight | limit--> flush (cancels the timer) -> EMPTY
    any state --clear() on crash/step-down--> EMPTY (generation += 1)

Invariants
----------
- Groups submitted together are indivisible: a batch is whole entries,
  so a multi-operation transaction (§8.2) always shares one force and
  one propose — no partial persistence.
- Between calls the buffer is below both limits (the submit that
  reaches one flushes it), so at a flush only the last group can
  overflow a limit; it then travels alone — ``chunk_groups``'s packing.
- Buffered entries are the commit queue's own entries, never logged or
  proposed; ``clear()`` drops their records from the queue so a later
  commit message cannot commit a phantom.
- ``_inflight_forces`` counts only forces issued by the current
  generation: the generation guard makes a stale force callback (from
  before a crash or step-down) a no-op, so it can neither corrupt the
  accounting nor flush the next incarnation's buffer.
- Batches are LSN-contiguous (submission order is LSN order and order
  is preserved), so a single cumulative ack covers a whole batch, and
  each continues the last: its ``prev`` is the last one's top.

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

from typing import List, Optional, Sequence

from ..storage.records import WriteRecord
from .commitqueue import PendingWrite

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
    """Coalesces one leader replica's outgoing write groups."""

    __slots__ = ("replica", "_entries", "_buffered_records",
                 "_buffered_bytes", "_inflight_forces", "_window", "_gen",
                 "batches_sent", "records_batched", "max_batch_records",
                 "windows_opened")

    #: pending records older than the buffer head that count as
    #: congestion; below this the pipelined fast path is kept (a write
    #: may still overlap its immediate predecessors in flight)
    PRESSURE_DEPTH = 2

    def __init__(self, replica):
        self.replica = replica
        self._entries: List[PendingWrite] = []
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
    def submit(self, entry: PendingWrite) -> None:
        """Buffer one write group, already in the commit queue: the
        batcher owns its WAL force and propose fan-out from here."""
        cfg = self.replica.node.config
        self._entries.append(entry)
        self._buffered_records += len(entry.records)
        for record in entry.records:
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
        elif self._window is None:
            # Congested: hold for company, at most the window.
            self._open_window()

    def on_progress(self) -> None:
        """Commit queue advanced: flush early once the congestion that
        opened the window has drained."""
        if (self._window is not None and self._entries
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
        entries, self._entries = self._entries, []
        self._buffered_records = self._buffered_bytes = 0
        for entry in entries:
            for record in entry.records:
                self.replica.queue.drop(record.lsn)

    # ------------------------------------------------------------------
    def _under_pressure(self) -> bool:
        head = self._entries[0].records[0].lsn
        depth = self.replica.queue.pending_older_than(
            head, limit=self.PRESSURE_DEPTH)
        return depth >= self.PRESSURE_DEPTH

    def _open_window(self) -> None:
        replica = self.replica
        self.windows_opened += 1
        self._window = replica.node.sim.schedule(
            replica.node.config.propose_batch_window, self._window_expired)

    def _window_expired(self) -> None:
        self._window = None
        if self._entries:
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
        entries, self._entries = self._entries, []
        over = (self._buffered_records > cfg.propose_batch_max_records
                or self._buffered_bytes > MAX_BATCH_BYTES)
        self._buffered_records = self._buffered_bytes = 0
        if over and len(entries) > 1:
            self._send(entries[:-1])    # the last group overflowed them
            entries = entries[-1:]
        self._send(entries)

    def _send(self, entries: List[PendingWrite]) -> None:
        replica = self.replica
        node = replica.node
        records = (entries[0].records if len(entries) == 1 else
                   [record for entry in entries for record in entry.records])
        shared = 0
        for entry in entries:
            if entry.ctx is not None:
                shared += 1
        if shared:
            # Every traced member group gets its own ``log_force`` span
            # over the shared batched force: identical [start, end] per
            # member, exactly one span per trace — each request sees the
            # full force it waited on, and per-trace sums never count a
            # force twice.
            tracer = node.request_tracer
            for entry in entries:
                if entry.ctx is not None:
                    entry.force_span = tracer.start(
                        entry.ctx, "log_force", node.name,
                        batch_records=len(records), traced_members=shared)
        # Counted before the append: a log without a device completes
        # the force inside it.
        self._inflight_forces += 1
        gen = self._gen

        def _forced() -> None:
            if gen != self._gen:
                return      # a crash/step-down reset the pipeline
            self._inflight_forces -= 1
            for entry in entries:
                entry.forced = True
                if entry.ctx is not None:     # quorum_wait starts
                    node.request_tracer.finish(entry.force_span)
                    entry.force_done = node.sim.now
            replica._advance()
            if self._entries:
                self._flush()   # group commit at the propose level

        node.wal.append_batch(records, then=_forced)
        replica.send_propose(records, entries)
        self.batches_sent += 1
        self.records_batched += len(records)
        if len(records) > self.max_batch_records:
            self.max_batch_records = len(records)
