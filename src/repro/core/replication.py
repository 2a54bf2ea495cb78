"""The replication protocol state machine (§5, Fig. 4).

One :class:`CohortReplica` exists per (node, key range) pair and owns the
node's role in that cohort — leader or follower — plus the commit queue,
storage engine and protocol handlers.

Steady state (Fig. 4):

* a client write — one :class:`~repro.core.messages.ClientWrite`
  carrying one op (put, delete, conditional put) or several (a
  multi-column put, a §8.2 transaction) — reaches the **leader**, whose
  one handler, :meth:`CohortReplica.handle_client_write`, turns the ops
  into log records and hands them to :meth:`CohortReplica._replicate`:
  commit queue first, then the :class:`~repro.core.batching.
  ProposalBatcher` forces them as one batch *and in parallel* sends one
  propose message to both followers;
* each **follower** forces a log record, appends to its commit queue, and
  acks;
* after its own force plus at least one ack, the leader applies the write
  to its memtable (committing it) and replies to the client — there is no
  separate commit record, recovery re-proposals guarantee durability;
* periodically, the leader sends an asynchronous **commit message**; the
  followers apply pending writes up to the given LSN and save that
  last-committed LSN with a non-forced log write.

Strongly consistent reads are served only by the leader; timeline reads
by any replica (possibly stale until the next commit message).

Each of those messages is handled by plain functions, one per step
between two waits: ``handle_client_write`` → ``_admit_write`` →
``_stage_write`` → ``_reply_write`` at the leader, ``handle_propose`` →
``_log_propose`` → ``_ack_propose`` at a follower, ``handle_get`` →
``_serve_get`` (and ``handle_scan`` → ``_serve_scan``) for a read.  A
step that must wait names the next and parks it with ``node.charge``
(a CPU slice) or ``node.after`` (a force, a commit, the write gate);
the node runs it only in the incarnation that parked it, so every step
after the first starts by re-checking the role it acts in (PROTOCOL.md
has the step table and the crash argument per waiting point).

Tracing: when a client request carries a
:class:`~repro.obs.trace.TraceContext`, the leader attributes its side
of the write to spans — ``route`` (arrival to pipeline entry),
``propose`` (pipeline entry to propose fan-out), ``log_force`` (force
submit to durable), ``replicate_rtt`` (propose to first covering ack)
and ``quorum_wait`` (local durability to group commit) — tracked in
``_traces`` keyed by the write group's top LSN, and truncated on crash
or step-down.  See ``OBSERVABILITY.md``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sim.events import Event
from ..sim.process import timeout
from ..storage.lsn import LSN
from ..storage.records import CommitMarker, WriteRecord
from .batching import ProposalBatcher
from .commitqueue import CommitQueue
from .config import (COMMIT_APPLY_SERVICE, CONDITIONAL_CHECK_SERVICE,
                     ELECTION_RETRY, EXTRA_OP_SERVICE, PROPOSE_RECORD_SERVICE,
                     READ_SERVICE, SCAN_ROW_SERVICE, STRONG_READ_OVERHEAD,
                     WRITE_FOLLOWER_SERVICE, WRITE_LEADER_SERVICE)
from .datamodel import GetResult, PutResult
from .messages import (Ack, CatchupRequest, ClientGet, ClientWrite, Commit,
                       Propose)
from .partition import INTERNAL_KEY_PREFIX, MEMBERSHIP_KEY, Cohort

__all__ = ["CohortReplica", "Role"]

_BY_LSN = attrgetter("lsn")


class Role:
    """Replica roles; OFFLINE only while the node is down."""

    LEADER = "leader"
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    RECOVERING = "recovering"
    OFFLINE = "offline"


def _unawaited() -> None:
    """What runs after a force no step waits on by itself."""


def _err(code: str, hint: Optional[str] = None) -> Dict:
    return {"ok": False, "code": code, "hint": hint}


def _wan_hop(node, ctx) -> Dict:
    """Extra fields for a ``route`` span: ``{"wan_hop": True}`` when the
    serving node sits in a different datacenter than the request's
    origin (the client crossed the WAN to reach us — see
    OBSERVABILITY.md).  Empty on flat networks and local serves."""
    topo = node.network.topology
    if topo is not None and not topo.same_dc(ctx.origin, node.name):
        return {"wan_hop": True}
    return {}


class _WriteTrace:
    """Leader-side trace state for one in-flight write group."""

    __slots__ = ("ctx", "propose_span", "force_span", "rtt_span",
                 "force_done")

    def __init__(self, ctx):
        self.ctx = ctx
        self.propose_span = None
        self.force_span = None
        self.rtt_span = None
        self.force_done = None


class CohortReplica:
    """This node's participation in one cohort."""

    def __init__(self, node, cohort: Cohort):
        self.node = node
        self.cohort = cohort
        self.cohort_id = cohort.cohort_id
        self.engine = node.make_engine(cohort.cohort_id)
        self.queue = CommitQueue(acks_needed=node.config.majority - 1)
        self.batcher = ProposalBatcher(self)
        self.role = Role.RECOVERING
        self.epoch = 0
        self.leader: Optional[str] = None
        self.open_for_writes = False
        self.committed_lsn = LSN.zero()
        self.next_seq = 1
        self.electing = False
        self.candidate_path: Optional[str] = None
        #: fires when the last holder of the write block releases it
        self.write_block: Optional[Event] = None
        self._write_blockers = 0
        self._last_commit_broadcast = LSN.zero()
        self.last_broadcast_at = 0.0   # benchmarks time failovers off this
        # Records at or below this LSN may be absent from the local log:
        # they arrived as shipped SSTables during catch-up (§6.1), not as
        # log records.  The log-prefix auditors respect this floor.
        # Advanced durably per catch-up chunk (CatchupMarker), so a crash
        # mid-install resumes from the last applied chunk.
        self.catchup_floor = LSN.zero()
        #: leader: peers a ``push_catchup`` is streaming to right now
        self.catching_up: Set[str] = set()
        #: recovering: the process asking the leader to catch us up
        self._catchup_asker = None
        #: set while this leader is executing a membership change
        self.migrating = False
        #: in-flight request-trace state, write-group top LSN -> state;
        #: insertion order == LSN order (writes enter in LSN order)
        self._traces: Dict[LSN, _WriteTrace] = {}
        #: a memtable flush of this replica is running (node.maybe_flush)
        self._flushing = False
        # counters
        self.writes_served = 0
        self.reads_served = 0
        self.proposes_handled = 0
        self.resyncs = 0
        self.catchup_chunks_ingested = 0
        self.catchup_tables_ingested = 0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.role == Role.LEADER

    def peers(self) -> List[str]:
        return [m for m in self.cohort.members if m != self.node.name]

    def set_leader(self, leader: Optional[str]) -> None:
        self.leader = leader
        if leader == self.node.name:
            self.role = Role.LEADER
        elif self.role in (Role.LEADER, Role.CANDIDATE):
            self.role = Role.FOLLOWER

    def alloc_lsn(self) -> LSN:
        lsn = LSN(self.epoch, self.next_seq)
        self.next_seq += 1
        return lsn

    def latest_version(self, key: bytes, colname: bytes) -> int:
        """Current version of a column, *including* pipelined pending
        writes, so version numbers stay monotonic under concurrency."""
        pending = self.queue.latest_pending_for(key, colname)
        if pending is not None:
            return 0 if pending.tombstone else pending.version
        return self.engine.version_of(key, colname)

    # ------------------------------------------------------------------
    # Write blocking (the §6.1 "momentarily blocks new writes")
    # ------------------------------------------------------------------
    def block_writes(self) -> None:
        """Hold client writes at the gate.  Holders nest (a handoff or
        rebalance drain can overlap a catch-up's final page): writes
        resume when the last one calls :meth:`unblock_writes`."""
        self._write_blockers += 1
        if self.write_block is None:
            self.write_block = Event(self.node.sim)

    def unblock_writes(self) -> None:
        if self._write_blockers == 0:
            return      # a step-down or crash already released everyone
        self._write_blockers -= 1
        if self._write_blockers == 0:
            self._release_write_block()

    def _release_write_block(self) -> None:
        self._write_blockers = 0
        block, self.write_block = self.write_block, None
        if block is not None and not block.triggered:
            block.succeed()

    # ------------------------------------------------------------------
    # Leader: client writes
    # ------------------------------------------------------------------
    def handle_client_write(self, req, unblocked: bool = False) -> None:
        """A ClientWrite arrives: the one leader write path (Fig. 4),
        ``handle_client_write`` → ``_admit_write`` → ``_stage_write`` →
        ``_reply_write``.  Every op commits or none does (§3, §8.2).
        Held at the write gate, it re-enters here ``unblocked``."""
        node = self.node
        if (self.role != Role.LEADER
                or (unblocked and not self.open_for_writes)):
            req.respond(_err("not-leader", self.leader), size=64)
        elif not self.open_for_writes:
            req.respond(_err("unavailable", self.leader), size=64)
        elif self.write_block is not None:
            node.after(self.write_block, self.handle_client_write, req, True)
        else:
            # The layout the request was dispatched under, for
            # ``_admit_write`` to compare.  The gate is where a
            # migration holds writes while the layout moves: one that
            # waited there is routed under no version (0 matches none).
            node.charge(WRITE_LEADER_SERVICE
                        + EXTRA_OP_SERVICE * (len(req.payload.ops) - 1),
                        self._admit_write, req,
                        0 if unblocked else node.partitioner.version)

    def _admit_write(self, req, map_version: int) -> None:
        """The leader's CPU slice is spent: are we still the leader, and
        still the owner of every key?"""
        node = self.node
        if self.role != Role.LEADER or not self.open_for_writes:
            req.respond(_err("not-leader", self.leader), size=64)
            return
        # A membership change may have moved keys while we waited (the
        # migration drain ends exactly here).  Routing key gone: the
        # client re-routes off a fresh map.  Only a later op gone: the
        # request now spans cohorts and cannot be one transaction.
        # Dispatch found the routing key ours; it still is, without
        # locating it again, while the layout is the one dispatch saw
        # and this is still the node's replica of the cohort.
        moved = (map_version != node.partitioner.version
                 or node.replicas.get(self.cohort_id) is not self)
        conditional = False
        for i, op in enumerate(req.payload.ops):
            if (i or moved) and node.replica_for_key(op.key) is not self:
                if i:
                    req.respond(_err("cross-cohort"), size=64)
                else:
                    node.wrong_node(req)
                return
            if op.expected_version is not None:
                conditional = True
        # Conditional writes pay a read + version compare first (§5.1).
        if conditional:
            node.charge(CONDITIONAL_CHECK_SERVICE, self._stage_write, req)
        else:
            self._stage_write(req)

    def _stage_write(self, req) -> None:
        """Version the ops, turn them into log records and replicate
        them; ``_reply_write`` runs when the last one commits."""
        node, cfg = self.node, self.node.config
        msg: ClientWrite = req.payload
        ops = msg.ops
        # Versions continue from the newest pending write to the column;
        # ``staged`` extends that to earlier ops of this same request.
        staged: Dict[Tuple[bytes, bytes], int] = {}
        versions: List[int] = []
        for op in ops:
            cell = (op.key, op.colname)
            actual = staged.get(cell)
            if actual is None:
                actual = self.latest_version(op.key, op.colname)
            if (op.expected_version is not None
                    and op.expected_version != actual):
                req.respond({"ok": False, "code": "version-mismatch",
                             "expected": op.expected_version,
                             "actual": actual}, size=64)
                return
            versions.append(actual + 1)
            staged[cell] = 0 if op.tombstone else actual + 1
        ctx = msg.trace
        if ctx is not None:
            self._trace_route(ctx)
        # LSNs only now: a rejected request must not leave a seq gap.
        records = [WriteRecord(
            self.alloc_lsn(), self.cohort_id, op.key, op.colname,
            None if op.tombstone else op.value, version, node.sim.now,
            op.tombstone)
            for op, version in zip(ops, versions)]
        if cfg.parallel_force_and_propose:
            self._replicate(records, node.guarded(self._reply_write, req,
                                                  records), ctx=ctx)
        else:
            # Ablation: force the leader's log *before* proposing, as a
            # naive implementation would — serializing the two disk
            # forces on the critical path.
            node.wal.append_batch(records, then=node.guarded(
                self._propose_logged, req, records, node.sim.now))

    def _propose_logged(self, req, records: List[WriteRecord],
                        force_start: float) -> None:
        """The serialized ablation's second half: the leader's force is
        done, only now propose."""
        node = self.node
        ctx = req.payload.trace
        if ctx is not None:
            node.request_tracer.span_at(
                ctx, "log_force", node.name, start=force_start,
                batch_records=len(records), traced_members=1)
        self._replicate(records, node.guarded(self._reply_write, req, records),
                        already_logged=True, ctx=ctx)

    def _reply_write(self, req, records: List[WriteRecord]) -> None:
        """Every record of the request has committed."""
        self.writes_served += 1
        req.respond({"ok": True, "result": PutResult(records[-1].version)},
                    size=64)

    def _replicate(self, records: List[WriteRecord],
                   then: Callable[[], None], already_logged: bool = False,
                   ctx=None) -> None:
        """Fig. 4, leader side: queue the group, then force + propose in
        parallel — both owned by the :class:`ProposalBatcher`, which
        keeps a submitted group indivisible (one force, one propose).
        ``already_logged`` records are durable here (takeover
        re-proposals, the serialized ablation) and are only proposed.

        ``then()`` runs when every record has committed — inside the
        commit, with no event between (a process that must wait passes
        its own event's ``succeed``).  ``ctx`` (a sampled request's trace
        context) registers the write group in ``_traces`` for per-phase
        attribution.
        """
        node = self.node
        remaining = len(records)
        top = records[-1].lsn
        state = None
        if ctx is not None:
            state = _WriteTrace(ctx)
            state.propose_span = node.request_tracer.start(
                ctx, "propose", node.name, records=len(records),
                queue_depth=len(self.queue))
            self._traces[top] = state

        def on_commit(_record: WriteRecord) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                if state is not None:
                    self._finish_write_trace(top)
                then()

        for record in records:
            self.queue.add(record, on_commit=on_commit)
        if already_logged:
            if state is not None:
                state.force_done = node.sim.now
            for record in records:
                self.queue.mark_forced(record.lsn)
            self._advance()
            self.send_propose(records)
        else:
            self.batcher.submit(records)

    def send_propose(self, records: Sequence[WriteRecord],
                     to: Optional[Sequence[str]] = None) -> None:
        """Fan one (possibly multi-record) propose out to the peers (or
        just ``to``).  With the cohort open, a peer under catch-up is
        skipped: ``RECOVERING``, it would drop the propose, and its push
        ends by re-proposing the pending queue to it.  A takeover's
        pushes carry no pending queue, so its re-proposals (cohort still
        closed) go to every peer; one round commits before the next is
        proposed, so a cumulative ack never covers a dropped record."""
        node, cfg = self.node, self.node.config
        propose = Propose(
            self.cohort_id, self.epoch, tuple(records),
            self.committed_lsn if cfg.piggyback_commits else None)
        size = 64
        for record in records:
            size += record.size
        if self._traces:
            tracer = node.request_tracer
            for record in records:
                state = self._traces.get(record.lsn)
                if state is None:
                    continue
                if state.propose_span is not None:
                    tracer.finish(state.propose_span,
                                  batch=len(records))
                if state.rtt_span is None:
                    state.rtt_span = tracer.start(
                        state.ctx, "replicate_rtt", node.name,
                        peers=len(self.peers()))
        for peer in to or self.peers():
            if self.open_for_writes and peer in self.catching_up:
                continue
            node.endpoint.request(peer, propose, size, then=self._on_ack)

    def _on_ack(self, ack) -> None:
        """A propose's reply (a crash of our endpoint drops it first)."""
        # lint: allow(stale-epoch) — Ack LSNs embed the epoch (App. B)
        if not isinstance(ack, Ack) or ack.cohort_id != self.cohort_id:
            return
        self.queue.add_ack_upto(ack.lsn, ack.sender)
        self._trace_acked(ack.lsn)
        self._advance()

    def _advance(self) -> None:
        """Commit the ready prefix; apply and notify."""
        committed = self.queue.advance_leader()
        for record in committed:
            self.engine.apply(record)
        if committed:
            self.committed_lsn = self.queue.committed_lsn
            for record in committed:
                if record.key == MEMBERSHIP_KEY:
                    self.node.on_membership_commit(record)
            self.node.maybe_flush(self)
            self.batcher.on_progress()

    # ------------------------------------------------------------------
    # Request tracing (no-ops unless a request carried a TraceContext;
    # every hook is guarded so the untraced path costs one branch)
    # ------------------------------------------------------------------
    def _trace_route(self, ctx) -> None:
        """Close the ``route`` phase: client send (this attempt) up to
        the instant the write enters the replication pipeline."""
        node = self.node
        start = (ctx.last_sent_at if ctx.last_sent_at is not None
                 else ctx.root.start)
        node.request_tracer.span_at(ctx, "route", node.name, start=start,
                                    **_wan_hop(node, ctx))

    def _trace_force_done(self, lsn: LSN) -> None:
        """The write group topped by ``lsn`` is locally durable: close
        its ``log_force`` span and stamp the ``quorum_wait`` start."""
        state = self._traces.get(lsn)
        if state is None:
            return
        if state.force_span is not None:
            self.node.request_tracer.finish(state.force_span)
        if state.force_done is None:
            state.force_done = self.node.sim.now

    def _trace_acked(self, lsn: LSN) -> None:
        """A follower ack covering ``lsn`` arrived: close the
        ``replicate_rtt`` span of every group it covers (acks are
        cumulative; ``_traces`` is in ascending top-LSN order)."""
        if not self._traces:
            return
        tracer = self.node.request_tracer
        for top, state in self._traces.items():
            if top > lsn:
                break
            span = state.rtt_span
            if span is not None and span.end is None:
                tracer.finish(span)

    def _finish_write_trace(self, top: LSN) -> None:
        """The whole group committed: emit ``quorum_wait`` (local
        durability to group commit) and ``commit_apply``, close any
        straggler spans, and stamp the reply rendezvous."""
        state = self._traces.pop(top, None)
        if state is None:
            return
        node = self.node
        tracer = node.request_tracer
        now = node.sim.now
        ctx = state.ctx
        if state.propose_span is not None:
            tracer.finish(state.propose_span)
        if state.rtt_span is not None:
            tracer.finish(state.rtt_span)
        start = state.force_done if state.force_done is not None else now
        tracer.span_at(ctx, "quorum_wait", node.name, start=start, end=now)
        # The leader applies committed records inline in _advance (no
        # queueing in this sim), so the span is a zero-length marker.
        tracer.span_at(ctx, "commit_apply", node.name, start=now, end=now)
        ctx.server_done_at = now

    def _clear_traces(self) -> None:
        """Crash / step-down: close in-flight write traces as truncated
        so half-finished phases are visible in the trace, not leaked."""
        if not self._traces:
            return
        tracer = self.node.request_tracer
        for state in self._traces.values():
            for span in (state.propose_span, state.force_span,
                         state.rtt_span):
                if span is not None:
                    tracer.truncate(span)
        self._traces.clear()

    # ------------------------------------------------------------------
    # Leader: periodic commit messages
    # ------------------------------------------------------------------
    def commit_loop(self):
        """Long-running leader process: broadcast commit messages."""
        node, cfg = self.node, self.node.config
        epoch = self.epoch
        while self.is_leader and self.epoch == epoch:
            yield timeout(node.sim, cfg.commit_period)
            if not self.is_leader or self.epoch != epoch:
                return
            self.broadcast_commit()

    def broadcast_commit(self) -> None:
        self.last_broadcast_at = self.node.sim.now
        lsn = self.committed_lsn
        if lsn <= self._last_commit_broadcast:
            return
        node = self.node
        node.wal.append(CommitMarker(lsn=lsn, cohort_id=self.cohort_id,
                                     committed_lsn=lsn), force=False)
        msg = Commit(cohort_id=self.cohort_id, epoch=self.epoch, lsn=lsn)
        for peer in self.peers():
            node.endpoint.send(peer, msg, size=48)
        self._last_commit_broadcast = lsn

    # ------------------------------------------------------------------
    # Follower: proposes and commits
    # ------------------------------------------------------------------
    def handle_propose(self, req) -> None:
        """A Propose arrives (Fig. 4, follower): ``handle_propose`` →
        ``_log_propose`` → ``_ack_propose``."""
        msg: Propose = req.payload
        if msg.epoch < self.epoch:
            return  # stale leader; no ack
        if self.role == Role.RECOVERING:
            return  # not caught up: accepting would create log gaps (§6.1)
        if msg.epoch > self.epoch:
            self.epoch = msg.epoch
            self.set_leader(req.src)
        self.node.charge(WRITE_FOLLOWER_SERVICE
                         + PROPOSE_RECORD_SERVICE * (len(msg.records) - 1),
                         self._log_propose, req)

    def _log_propose(self, req) -> None:
        """The follower's CPU slice is spent: queue the records, force
        what the log lacks; ``_ack_propose`` runs when they are durable."""
        if self.role not in (Role.FOLLOWER, Role.CANDIDATE):
            return
        node = self.node
        records, wal, cohort_id = req.payload.records, node.wal, self.cohort_id
        missing = wal.missing(cohort_id, records)
        # Queue first, so the ack follows on every log — one without a
        # device completes a force inside the append.  What ``missing``
        # holds is neither logged nor skipped, so appending it changes
        # neither the skipped list nor the commit point read here.  A
        # takeover re-proposal at or below our f.cmt (we heard a commit
        # point the new leader had not) is applied already: queued, it
        # would sit at the head for good — nothing commits there again.
        skipped = wal.skipped_lsns(cohort_id)
        committed = self.committed_lsn
        for record in records:
            if record.lsn not in skipped and record.lsn > committed:
                self.queue.add(record)
        if not missing:
            self._ack_propose(req)
            return
        ack = node.guarded(self._ack_propose, req)
        last = wal.last_lsn(cohort_id)
        if (len(missing) == len(records) > 1
                and min(missing, key=_BY_LSN).lsn > last):
            # Multi-operation transaction: force atomically (§8.2).
            wal.append_batch(missing, then=ack)
            return
        # ``backfill``: a takeover re-proposal may fill a gap below our
        # last LSN (we logged later records, missed this one).  The ack
        # waits on the last force: the device completes forces in the
        # order they were asked for.
        for record in missing:
            wal.append(record, True, record.lsn <= last,
                       ack if record is missing[-1] else _unawaited)

    def _ack_propose(self, req) -> None:
        """Every record of the propose is in the log: take its commit
        point, ack its top LSN."""
        msg: Propose = req.payload
        records = msg.records
        if msg.committed_lsn is not None:
            self._apply_commit_info(msg.committed_lsn)
        self.proposes_handled += 1
        top = (records[0] if len(records) == 1      # the common case
               else max(records, key=_BY_LSN))
        req.respond(Ack(self.cohort_id, self.epoch, top.lsn, self.node.name),
                    size=48)

    def handle_commit(self, src: str, msg: Commit) -> None:
        """Synchronous handler for the one-way commit message."""
        if msg.epoch < self.epoch:
            return
        if self.role == Role.RECOVERING:
            # Not caught up: we may lack the records this commit covers
            # (proposes are dropped while recovering), so advancing f.cmt
            # here would hide them from catch-up forever.  Catch-up
            # delivers the same commit point with the records (§6.1).
            return
        if msg.epoch > self.epoch:
            self.epoch = msg.epoch
            self.set_leader(src)
        self._apply_commit_info(msg.lsn)

    def _held_through(self, upto: LSN) -> LSN:
        """The largest committable LSN ``<= upto`` such that every LSN in
        ``(committed_lsn, result]`` is locally held (in the log) or
        logically truncated (skip list).

        Sequence numbers of committed, non-skipped records are dense:
        every leader allocates consecutive seqs continuing from its last
        log record, and takeover re-proposals keep their original LSNs.
        A missing seq therefore means a propose this replica never
        received — committing past it would silently lose the record.
        """
        wal = self.node.wal
        held = {rec.lsn.seq: rec.lsn
                for rec in wal.write_records(self.cohort_id,
                                             after=self.committed_lsn,
                                             upto=upto)}
        result = self.committed_lsn
        for seq in range(self.committed_lsn.seq + 1, upto.seq + 1):
            lsn = held.get(seq)
            if lsn is None:
                break
            result = lsn
        return min(result, upto)

    def _apply_commit_info(self, upto: LSN) -> None:
        if upto <= self.committed_lsn:
            return
        verified = (upto if self.is_leader else self._held_through(upto))
        if verified > self.committed_lsn:
            committed = self.queue.apply_commit(verified)
            for record in committed:
                self.engine.apply(record)
            self.committed_lsn = max(self.committed_lsn, verified)
            self.node.wal.append(
                CommitMarker(lsn=verified, cohort_id=self.cohort_id,
                             committed_lsn=verified), force=False)
            if committed:
                for record in committed:
                    if record.key == MEMBERSHIP_KEY:
                        self.node.on_membership_commit(record)
                self.node.charge_background(
                    len(committed) * COMMIT_APPLY_SERVICE)
                self.node.maybe_flush(self)
        if verified < upto:
            # Commit info outran our log: at least one propose in
            # (verified, upto] never reached us (lost message or a gap
            # opened while we were down).  Re-sync from the leader.
            self._start_resync(upto)

    def _start_resync(self, upto: LSN) -> None:
        """Demote to RECOVERING and ask the leader to catch us up.

        Used when a follower detects a log gap below the cohort's commit
        point.  The push delivers the missing records and its final
        page restores FOLLOWER; meanwhile proposes are dropped, which is
        safe (the leader only needs a quorum) and cannot widen the gap.
        """
        if self.role != Role.FOLLOWER:
            return
        self.role = Role.RECOVERING
        self.resyncs += 1
        self.node.trace("resync", "log gap below commit point",
                        cohort=self.cohort_id, cmt=str(self.committed_lsn),
                        upto=str(upto))
        self.request_catchup()

    def request_catchup(self) -> None:
        """Ask the leader for a catch-up push (§6.1), re-asking at
        ``ELECTION_RETRY`` pace until its final page makes us a
        FOLLOWER — on restart (via the leader monitor) and on gap
        resync alike.  Only a voter asks; a prepared joiner is caught
        up by the migration that created it."""
        node = self.node
        if (node.name not in self.cohort.members
                or (self._catchup_asker is not None
                    and self._catchup_asker.is_alive)):
            return

        def _ask():
            while node.alive and self.role == Role.RECOVERING:
                leader = self.leader
                if leader is not None and leader != node.name:
                    node.endpoint.send(leader, CatchupRequest(
                        cohort_id=self.cohort_id, follower=node.name,
                        follower_cmt=self.committed_lsn,
                        floor=self.catchup_floor), size=96)
                yield timeout(node.sim, ELECTION_RETRY)

        self._catchup_asker = node.spawn(
            _ask(), name=f"catchup-ask-{self.cohort_id}")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def handle_get(self, req) -> None:
        """A ClientGet arrives: ``handle_get`` → ``_serve_get``."""
        node = self.node
        msg: ClientGet = req.payload
        if msg.consistent:
            # A leader-elect mid-takeover has not yet re-proposed the
            # (l.cmt, l.lst] tail, so its memtable can miss committed
            # writes — strong reads must wait for takeover to finish
            # (§6.2), exactly like writes do.
            if not (self.role == Role.LEADER and self.open_for_writes):
                req.respond(_err("not-leader", self.leader), size=64)
                return
            service = READ_SERVICE + STRONG_READ_OVERHEAD
        else:
            if self.role == Role.OFFLINE:
                req.respond(_err("unavailable"), size=64)
                return
            service = READ_SERVICE
        # the layout dispatched under, and (only a trace reads it) when
        node.charge(service, self._serve_get, req, node.partitioner.version,
                    node.sim.now if msg.trace is not None else None)

    def _serve_get(self, req, map_version: int,
                   serve_start: Optional[float]) -> None:
        """The read's CPU slice is spent: look the cell up and reply."""
        node = self.node
        msg: ClientGet = req.payload
        if msg.consistent:
            if not (self.role == Role.LEADER and self.open_for_writes):
                req.respond(_err("not-leader", self.leader), size=64)
                return
            # Still ours, without locating the key again, while the
            # layout is the one dispatch saw and this is still the
            # node's replica of the cohort.
            if ((map_version != node.partitioner.version
                 or node.replicas.get(self.cohort_id) is not self)
                    and node.replica_for_key(msg.key) is not self):
                # The key's range migrated away mid-request; our copy is
                # no longer authoritative for strong reads.
                node.wrong_node(req)
                return
        cell = self.engine.get(msg.key, msg.colname)
        if cell is None or cell.tombstone:
            result = GetResult.not_found()
            size = 64
        else:
            result = GetResult(cell.value, cell.version)
            size = 64 + (len(cell.value) if cell.value else 0)
        self.reads_served += 1
        ctx = msg.trace
        if ctx is not None:
            tracer = node.request_tracer
            start = (ctx.last_sent_at if ctx.last_sent_at is not None
                     else ctx.root.start)
            tracer.span_at(ctx, "route", node.name, start=start,
                           end=serve_start, consistent=msg.consistent,
                           **_wan_hop(node, ctx))
            tracer.span_at(ctx, "read_serve", node.name, start=serve_start)
            ctx.server_done_at = node.sim.now
        req.respond({"ok": True, "result": result}, size=size)

    def handle_scan(self, req) -> None:
        """A ClientScan (ordered range read) arrives: ``handle_scan`` →
        ``_serve_scan``."""
        node = self.node
        msg = req.payload
        if 0 < msg.map_version < node.partitioner.version:
            # Planned on an older layout: this cohort's range may have
            # shrunk since, and the client would never ask whoever now
            # holds the rest.  It re-plans off a fresh map.
            node.wrong_node(req)
            return
        if msg.consistent:
            # an *open* leader, for the reason handle_get gives (§6.2)
            if not (self.role == Role.LEADER and self.open_for_writes):
                req.respond(_err("not-leader", self.leader), size=64)
                return
        elif self.role == Role.OFFLINE:
            req.respond(_err("unavailable"), size=64)
            return
        # Scan unbounded, then filter: after a range split the engine
        # still holds rows that migrated away (plus internal-namespace
        # cells), and a pre-filter limit would let them shadow live rows.
        rows = self.engine.scan(msg.start_key, msg.end_key,
                                limit=len(self.engine.memtable.keys())
                                + sum(len(t.keys())
                                      for t in self.engine.sstables) + 1)
        rng = self.cohort.key_range
        mapper = node.partitioner.key_mapper
        rows = [(key, row) for key, row in rows
                if not key.startswith(INTERNAL_KEY_PREFIX)
                and rng.contains(mapper(key))][:msg.limit]
        node.charge(READ_SERVICE
                    + (STRONG_READ_OVERHEAD if msg.consistent else 0)
                    + SCAN_ROW_SERVICE * len(rows),
                    self._serve_scan, req, rows, node.sim.now)

    def _serve_scan(self, req, rows: list, serve_start: float) -> None:
        """The scan's CPU slice is spent: reply with the rows read when
        it arrived."""
        node = self.node
        msg = req.payload
        if msg.consistent and not (self.role == Role.LEADER
                                   and self.open_for_writes):
            req.respond(_err("not-leader", self.leader), size=64)
            return
        ctx = msg.trace
        if ctx is not None:
            tracer = node.request_tracer
            start = (ctx.last_sent_at if ctx.last_sent_at is not None
                     else ctx.root.start)
            tracer.span_at(ctx, "route", node.name, start=start,
                           end=serve_start, consistent=msg.consistent,
                           **_wan_hop(node, ctx))
            tracer.span_at(ctx, "read_serve", node.name, start=serve_start,
                           rows=len(rows))
            ctx.server_done_at = node.sim.now
        payload = [
            (key, {col: (cell.value, cell.version)
                   for col, cell in row.items()})
            for key, row in rows
        ]
        size = 64 + sum(
            len(key) + sum(len(v or b"") + len(c) + 16
                           for c, (v, _ver) in cols.items())
            for key, cols in payload)
        self.reads_served += 1
        req.respond({"ok": True, "result": payload}, size=size)

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        self.role = Role.OFFLINE
        self.open_for_writes = False
        self.leader = None
        self.migrating = False
        self._clear_traces()
        self.batcher.clear()
        self.queue.clear()
        self.engine.crash()
        self.electing = False
        self.candidate_path = None
        self._release_write_block()
        self.catching_up.clear()

    def step_down(self) -> None:
        """Coordination session lost: we can no longer prove leadership
        (the leader znode is gone or about to be).  Drop to RECOVERING;
        the rejoin path re-resolves leadership and catches us up.  Keeps
        all durable and in-memory replica state — unlike a crash."""
        if self.role == Role.OFFLINE:
            return
        self.role = Role.RECOVERING
        self.leader = None
        self.open_for_writes = False
        self.migrating = False
        self._clear_traces()
        self.batcher.clear()
        self.electing = False
        self.candidate_path = None
        self._release_write_block()

    def prepare_restart(self) -> None:
        self.role = Role.RECOVERING
        self.epoch = 0
        self.committed_lsn = LSN.zero()
        self._last_commit_broadcast = LSN.zero()
        # Re-derive the durable catch-up floor from the log's surviving
        # CatchupMarkers, so a crash mid-snapshot-install resumes from
        # the last durably applied chunk.
        self.catchup_floor = self.node.wal.catchup_floor(self.cohort_id)
