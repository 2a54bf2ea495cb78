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
* each **follower** logs the propose on arrival — only on top of the
  ``prev`` it names, so its log stays a prefix of the leader's stream —
  then forces it and acks after a CPU slice, which the proposes queued
  behind busy cores share; its commit queue is its log above f.cmt, not
  a second copy;
* after its own force plus at least one ack, the leader applies the write
  to its memtable (committing it) and replies to the client — there is no
  separate commit record, recovery re-proposals guarantee durability;
* periodically, the leader sends an asynchronous **commit message**; the
  followers apply pending writes up to the given LSN and save that
  last-committed LSN with a non-forced log write.

Strongly consistent reads are served only by the leader; timeline reads
by any replica (possibly stale until the next commit message).

A strong get or write refused here that carries a hold (every re-send
after a timeout, see :mod:`~repro.core.messages`) is answered
``not-leader`` marked ``news`` if the leader it would name is one its
client has not timed out on.  Otherwise — no leader, one it timed out on, or this replica still in
takeover — it is kept, never served: :meth:`CohortReplica.release_held`
answers it with ``news`` once ``set_leader`` names a leader or takeover
opens the cohort, and ``_expire_hold`` with the plain answer when its
``hold`` runs out.  A crash drops what is held.

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
and ``quorum_wait`` (local durability to group commit) — kept on the
write group's commit-queue entry, and truncated on crash or step-down.
See ``OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sim.events import Event
from ..sim.process import timeout
from ..storage.lsn import LSN
from ..storage.records import CommitMarker, WriteRecord
from .batching import MAX_BATCH_BYTES, ProposalBatcher
from .commitqueue import CommitQueue, PendingWrite
from .config import (COMMIT_APPLY_SERVICE, CONDITIONAL_CHECK_SERVICE,
                     ELECTION_RETRY, EXTRA_OP_SERVICE, PROPOSE_RECORD_SERVICE,
                     READ_SERVICE, SCAN_ROW_SERVICE, STRONG_READ_OVERHEAD,
                     WRITE_FOLLOWER_SERVICE, WRITE_LEADER_SERVICE)
from .datamodel import GetResult, PutResult
from .messages import (Ack, CatchupRequest, ClientGet, ClientWrite, Commit,
                       Propose)
from .partition import INTERNAL_KEY_PREFIX, MEMBERSHIP_KEY, Cohort

__all__ = ["CohortReplica", "Role"]

class Role:
    """Replica roles; OFFLINE only while the node is down."""

    LEADER = "leader"
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    RECOVERING = "recovering"
    OFFLINE = "offline"


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


class CohortReplica:
    """This node's participation in one cohort."""

    def __init__(self, node, cohort: Cohort):
        self.node = node
        self.cohort = cohort
        self._peers_of: Optional[Cohort] = None    # what _peers is of
        self._peers: Tuple[str, ...] = ()
        self.cohort_id = cohort.cohort_id
        self.engine = node.make_engine(cohort.cohort_id)
        self.queue = CommitQueue(acks_needed=node.config.majority - 1,
                                 finish_trace=self._finish_write_trace)
        self.batcher = ProposalBatcher(self)
        self.role = Role.RECOVERING
        self.epoch = 0
        self.leader: Optional[str] = None
        self.open_for_writes = False
        self.committed_lsn = LSN.zero()
        #: leader: its last broadcast's top LSN, the next one's ``prev``
        self.proposed_top = LSN.zero()
        #: the epoch whose stream the log is a prefix of (PROTOCOL.md)
        self.accepted_epoch = 0
        self.next_seq = 1
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
        #: a memtable flush of this replica is running (node.maybe_flush)
        self._flushing = False
        # counters
        self.writes_served = 0
        self.reads_served = 0
        self.proposes_handled = 0
        #: follower: its last propose force, ``(wal.force handle, leader,
        #: epoch, proposes)``, which later proposes may join
        self._force_group: Optional[tuple] = None
        #: follower: its last propose CPU slice that queued for a core,
        #: ``[charge, leader, epoch, records, bytes, log bytes, joined]``,
        #: which later proposes from that leader and epoch join while it
        #: still waits (``node.queued``)
        self._cpu_slice: Optional[list] = None
        #: follower: each queued slice by its first propose, until it runs
        self._slices: Dict[object, list] = {}
        self.resyncs = 0
        self.catchup_chunks_ingested = 0
        self.catchup_tables_ingested = 0
        #: held client requests -> the code they were refused with
        self._held: Dict[object, str] = {}
        #: requests held, and how each hold ended
        self.holds = 0
        self.holds_news = 0
        self.holds_expired = 0
        self.holds_crashed = 0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.role == Role.LEADER

    def peers(self) -> Tuple[str, ...]:
        """The cohort's other members — made once per cohort layout: a
        leader fans every propose out to them."""
        cohort = self.cohort
        if cohort is not self._peers_of:
            name = self.node.name
            self._peers = tuple(m for m in cohort.members if m != name)
            self._peers_of = cohort
        return self._peers

    def set_leader(self, leader: Optional[str]) -> None:
        self.leader = leader
        if leader == self.node.name:
            self.role = Role.LEADER
        elif self.role in (Role.LEADER, Role.CANDIDATE):
            self.role = Role.FOLLOWER
        if self._held:
            self.release_held()

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
    # Held requests: a client's wait for leadership news
    # ------------------------------------------------------------------
    def _awaits_news(self, msg) -> bool:
        """Would our answer to ``msg`` name no leader, one its client
        timed out on, or this replica still in takeover?"""
        leader = self.leader
        return (leader is None or leader in msg.timed_out
                or (leader == self.node.name and not self.open_for_writes))

    def _refuse(self, req, code: str) -> None:
        """Refuse the client request ``req`` with ``code`` and our
        leader as hint.  One that asks to be held (``hold``) gets
        ``news`` instead if that leader is one its client has not timed
        out on, and is held otherwise: answered by :meth:`release_held`,
        or by ``_expire_hold`` once its ``hold`` runs out."""
        msg = req.payload
        if not msg.hold:
            req.respond(_err(code, self.leader), size=64)
        elif not self._awaits_news(msg):
            self._news(req)
        else:
            node = self.node
            self._held[req] = code
            self.holds += 1
            node.sim.schedule(msg.hold, node.guarded(self._expire_hold, req))

    def _news(self, req) -> None:
        req.respond({"ok": False, "code": "not-leader", "hint": self.leader,
                     "news": True}, size=64)

    def release_held(self) -> None:
        """A leader is named or takeover opened the cohort: answer each
        held request that now learns something with that ``news``.
        Never served here: the client re-sends it to the leader."""
        held = self._held
        for req in list(held):
            if not self._awaits_news(req.payload):
                del held[req]
                self.holds_news += 1
                self._news(req)

    def _expire_hold(self, req) -> None:
        """``req``'s hold ran out with no news: today's answer."""
        code = self._held.pop(req, None)
        if code is not None:
            self.holds_expired += 1
            req.respond(_err(code, self.leader), size=64)

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
            self._refuse(req, "not-leader")
        elif not self.open_for_writes:
            self._refuse(req, "unavailable")
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
        now = node.sim.now
        records = []
        for op, version in zip(ops, versions):
            records.append(WriteRecord(
                self.alloc_lsn(), self.cohort_id, op.key, op.colname,
                None if op.tombstone else op.value, version, now,
                op.tombstone))
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
        """Fig. 4, leader side: queue the group as one commit-queue
        entry, then force + propose in parallel — both owned by the
        :class:`ProposalBatcher`, which keeps a submitted group
        indivisible (one force, one propose).  ``already_logged``
        records are durable here (takeover re-proposals, the serialized
        ablation) and are only proposed.

        ``then()`` runs when every record has committed — inside the
        commit, with no event between (a process that must wait passes
        its own event's ``succeed``).  ``ctx`` (a sampled request's trace
        context) makes the entry carry its per-phase trace.
        """
        node = self.node
        entry = PendingWrite(records, then, ctx)
        if ctx is not None:
            entry.propose_span = node.request_tracer.start(
                ctx, "propose", node.name, records=len(records),
                queue_depth=len(self.queue))
        self.queue.add(entry)
        if already_logged:
            entry.forced = True
            if ctx is not None:
                entry.force_done = node.sim.now
            self._advance()
            self.send_propose(records, (entry,))
        else:
            self.batcher.submit(entry)

    def send_propose(self, records: Sequence[WriteRecord],
                     entries: Sequence[PendingWrite]) -> None:
        """Fan one propose of ``records``, those of ``entries``, out to
        the peers on top of ``proposed_top``.  With the cohort open, a
        peer under catch-up is skipped: ``RECOVERING``, it would drop the
        propose, and its push ends by re-proposing the pending queue to
        it.  A takeover's re-proposals (cohort closed) go to every peer."""
        prev, self.proposed_top = self.proposed_top, records[-1].lsn
        self.propose(records, entries, prev, self.peers())

    def propose(self, records: Sequence[WriteRecord],
                entries: Sequence[PendingWrite], prev: LSN,
                to: Sequence[str]) -> None:
        """Send ``to`` one propose of ``records`` on top of ``prev`` —
        on its own, a catch-up's pending tail to the one peer."""
        node, cfg = self.node, self.node.config
        propose = Propose(
            self.cohort_id, self.epoch, tuple(records), prev,
            self.committed_lsn if cfg.piggyback_commits else None)
        size = 64
        for record in records:
            size += record.size
        for entry in entries:
            if entry.ctx is not None:
                tracer = node.request_tracer
                tracer.finish(entry.propose_span, batch=len(records))
                if entry.rtt_span is None:
                    entry.rtt_span = tracer.start(
                        entry.ctx, "replicate_rtt", node.name,
                        peers=len(self.peers()))
        on_ack = self._on_ack
        for peer in to:
            if self.open_for_writes and peer in self.catching_up:
                continue
            node.endpoint.request(peer, propose, size, then=on_ack)

    def _on_ack(self, ack) -> None:
        """A propose's reply (a crash of our endpoint drops it first)."""
        # lint: allow(stale-epoch) — Ack LSNs embed the epoch (App. B)
        if not isinstance(ack, Ack) or ack.cohort_id != self.cohort_id:
            return
        self.queue.add_ack_upto(ack.lsn, ack.sender)
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

    def _finish_write_trace(self, entry: PendingWrite) -> None:
        """The whole traced group committed: emit ``quorum_wait`` (local
        durability to group commit) and ``commit_apply``, close any
        straggler spans, and stamp the reply rendezvous."""
        node = self.node
        tracer = node.request_tracer
        now = node.sim.now
        ctx = entry.ctx
        tracer.finish(entry.propose_span)
        if entry.rtt_span is not None:
            tracer.finish(entry.rtt_span)
        start = entry.force_done if entry.force_done is not None else now
        tracer.span_at(ctx, "quorum_wait", node.name, start=start, end=now)
        # The leader applies committed records inline in _advance (no
        # queueing in this sim), so the span is a zero-length marker.
        tracer.span_at(ctx, "commit_apply", node.name, start=now, end=now)
        ctx.server_done_at = now

    def _clear_traces(self) -> None:
        """Crash / step-down: close in-flight write traces as truncated
        so half-finished phases are visible in the trace, not leaked;
        nothing of them is emitted afterwards."""
        tracer = self.node.request_tracer
        for entry in self.queue:
            if entry.ctx is not None:
                for span in (entry.propose_span, entry.force_span,
                             entry.rtt_span):
                    if span is not None:
                        tracer.truncate(span)
                entry.ctx = None

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
        ``_log_propose`` → ``_ack_propose``.  Logged here, in channel
        order, only on top of its ``prev`` (PROTOCOL.md, *The prefix
        rule*); else a resync.  Its CPU slice follows — unless, with
        ``propose_batching``, this replica's last slice from the same
        leader and epoch still waits for a core: the propose joins that
        slice, within the leader's batch limits, for
        ``PROPOSE_RECORD_SERVICE`` a record (receive-side batching)."""
        msg: Propose = req.payload
        if msg.epoch < self.epoch:
            return  # stale leader; no ack
        if self.role == Role.RECOVERING:
            return  # not caught up: accepting would create log gaps (§6.1)
        if msg.epoch > self.epoch:
            self.epoch = msg.epoch
            self.set_leader(req.src)
        node = self.node
        records = msg.records
        nbytes = node.wal.append_after(self.cohort_id, msg.prev, records,
                                       self.committed_lsn)
        if nbytes is None:
            self._start_resync(records[-1].lsn)
            return
        if msg.epoch > self.accepted_epoch and (
                node.wal.last_lsn(self.cohort_id) <= records[-1].lsn):
            # the log now ends on its stream (PROTOCOL.md, *The prefix rule*)
            self.accepted_epoch = msg.epoch
        slice_ = self._cpu_slice
        if (slice_ is not None and slice_[1] == req.src
                and slice_[2] == msg.epoch
                and self._join_slice(slice_, req, nbytes)):
            return
        charge = node.charge(WRITE_FOLLOWER_SERVICE
                             + PROPOSE_RECORD_SERVICE * (len(records) - 1),
                             self._log_propose, req, nbytes)
        if node.config.propose_batching and node.queued(charge) is not None:
            self._cpu_slice = self._slices[req] = [
                charge, req.src, msg.epoch, len(records),
                sum(record.size for record in records), 0, []]

    def _join_slice(self, slice_: list, req, nbytes: int) -> bool:
        """Fold the propose ``req`` into the queued CPU slice ``slice_``
        iff it still waits for a core and stays within the leader's
        batch limits (``propose_batch_max_records``, ``MAX_BATCH_BYTES``)."""
        charge = self.node.queued(slice_[0])
        if charge is None:
            return False
        records = req.payload.records
        size = sum(record.size for record in records)
        if (slice_[3] + len(records)
                > self.node.config.propose_batch_max_records
                or slice_[4] + size > MAX_BATCH_BYTES):
            return False
        charge.service_time += PROPOSE_RECORD_SERVICE * len(records)
        slice_[3] += len(records)
        slice_[4] += size
        slice_[5] += nbytes
        slice_[6].append(req)
        return True

    def _log_propose(self, req, nbytes: int) -> None:
        """The follower's CPU slice is spent: force — which covers every
        earlier append — then ``_ack_propose`` (at once if it was all
        durable already), for ``req`` and the proposes that joined its
        slice, in arrival order.  While this replica's last force is
        still queued on the log device, a slice from the same leader
        and epoch joins it instead (follower group commit): one force,
        one ack for them all."""
        slice_ = self._slices.pop(req, None) if self._slices else None
        if self.role not in (Role.FOLLOWER, Role.CANDIDATE):
            return
        wal = self.node.wal
        msg: Propose = req.payload
        joined: Sequence = ()
        if slice_ is not None:
            if slice_ is self._cpu_slice:
                self._cpu_slice = None      # ran: nothing joins it now
            nbytes += slice_[5]
            joined = slice_[6]
        if not nbytes and wal.durable(self.cohort_id, msg.records) and all(
                wal.durable(self.cohort_id, other.payload.records)
                for other in joined):
            self._ack_propose(req, joined)
            return
        group = self._force_group
        if (group is not None and group[1] == req.src
                and group[2] == msg.epoch and wal.join(group[0], nbytes)):
            group[3].append(req)
            group[3].extend(joined)
            return
        if slice_ is None:
            joined = []
        self._force_group = (
            wal.force(nbytes, self.node.guarded(self._ack_propose, req,
                                                joined)),
            req.src, msg.epoch, joined)

    def _ack_propose(self, req, joined: Sequence = ()) -> None:
        """Every record of the propose, and of the later ones ``joined``
        to its force, is durable in the log: take each one's commit
        point, and ack only the top LSN — it covers them all, the log
        being a prefix of the leader's stream (PROTOCOL.md, *The prefix
        rule*)."""
        msg: Propose = req.payload
        if msg.committed_lsn is not None:
            self._apply_commit_info(msg.committed_lsn)
        top = msg.records[-1].lsn
        for other in joined:
            msg = other.payload
            if msg.committed_lsn is not None:
                self._apply_commit_info(msg.committed_lsn)
            if msg.records[-1].lsn > top:
                req, top = other, msg.records[-1].lsn
        self.proposes_handled += 1 + len(joined)
        req.respond(Ack(self.cohort_id, self.epoch, top, self.node.name),
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
        if msg.epoch > self.accepted_epoch:
            # Our log follows an older leader's stream, whose tail this
            # one may have discarded: only a catch-up can tell.
            self._start_resync(msg.lsn)
        else:
            self._apply_commit_info(msg.lsn)

    def _apply_commit_info(self, upto: LSN) -> None:
        """Commit through ``upto``.  A follower's commit queue is its log
        above f.cmt, a prefix of the stream ``upto`` is from: it commits
        and applies what it holds through ``min(upto, n.lst)``, read in
        one walk back from the tail.  Short of ``upto``, a propose never
        reached it: it resyncs."""
        cmt = self.committed_lsn
        if upto <= cmt:
            return
        verified, committed = upto, None
        if self.role != Role.LEADER:
            held = self.node.wal.write_records(self.cohort_id, after=cmt)
            committed = [record for record in held if record.lsn <= upto]
            if len(committed) == len(held):     # n.lst <= upto
                verified = held[-1].lsn if held else cmt
        if verified > self.committed_lsn:
            # a follower's: what it queued as leader, its clients waiting
            leftover = self.queue.apply_commit(verified)
            committed = leftover if committed is None else committed
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
            self._start_resync(upto)

    def _start_resync(self, upto: LSN) -> None:
        """Demote to RECOVERING and ask the leader to catch us up.

        Used when a follower's log does not extend to the leader's
        stream: a propose not on top of its ``prev``, a commit point past
        its log or from a newer leader.  The push delivers the missing
        records and its final page restores FOLLOWER; meanwhile proposes
        are dropped, which is safe (the leader only needs a quorum).
        """
        if self.role != Role.FOLLOWER:
            return
        self.role = Role.RECOVERING
        self.resyncs += 1
        self.node.trace("resync", "log does not reach the leader's stream",
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
                self._refuse(req, "not-leader")
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
        ``_serve_scan``.  Never held: a scan names no ``hold``."""
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
        self._force_group = self._cpu_slice = None
        self._slices.clear()
        self.open_for_writes = False
        self.leader = None
        self.migrating = False
        self._clear_traces()
        self.batcher.clear()
        self.queue.clear()
        self.engine.crash()
        self._release_write_block()
        self.catching_up.clear()
        self.holds_crashed += len(self._held)
        self._held.clear()      # their expiries die with the incarnation

    def step_down(self) -> None:
        """Coordination session lost: we can no longer prove leadership
        (the leader znode is gone or about to be).  Drop to RECOVERING;
        the rejoin path re-resolves leadership and catches us up.  Keeps
        all durable and in-memory replica state — unlike a crash."""
        if self.role == Role.OFFLINE:
            return
        self.role = Role.RECOVERING
        self.leader = None
        self._cpu_slice = None
        self.open_for_writes = False
        self.migrating = False
        self._clear_traces()
        self.batcher.clear()
        self._release_write_block()

    def prepare_restart(self) -> None:
        self.role = Role.RECOVERING
        self.epoch = 0
        self.committed_lsn = LSN.zero()
        self.accepted_epoch = 0
        self._last_commit_broadcast = LSN.zero()
        # Re-derive the durable catch-up floor from the log's surviving
        # CatchupMarkers, so a crash mid-snapshot-install resumes from
        # the last durably applied chunk.
        self.catchup_floor = self.node.wal.catchup_floor(self.cohort_id)
