"""Recovery: local replay and the leader-driven catch-up push (§6).

Two flows live here, expressed as process generators over a
:class:`~repro.core.replication.CohortReplica`:

* :func:`local_recovery` — after a restart, re-apply log records from the
  checkpoint through f.cmt (idempotently, honouring the skipped-LSN
  list).  Writes after f.cmt are ambiguous and are left to catch-up.
* :func:`push_catchup` — the one catch-up path, leader-driven and
  **chunked**: the leader pages bounded :class:`CatchupChunk` pushes
  (snapshot SSTables first, then log records) at the follower, which
  advances ``catchup_floor`` / ``committed_lsn`` durably per chunk so a
  crash mid-install resumes from the last applied chunk.  Bulk pages
  ship with writes open; the last page is built while the leader
  momentarily blocks new writes (§6.1), so the follower ends fully
  caught up, is promoted by that page alone, and then receives the
  leader's pending writes as an ordinary propose.  A ``RECOVERING``
  follower (restart or log-gap resync) only *asks* for it
  (``CohortReplica.request_catchup``); rebalance replace-moves and
  leadership handoff run it on their own initiative.

:func:`leader_takeover` (Fig. 6) is built on the second: push to both
followers (lines 3-7), wait for a quorum, re-propose the unresolved
writes in (l.cmt, l.lst] through the normal protocol, and open the
cohort for writes with LSNs above anything previously used (the epoch
was bumped by the election).

Chunk paging safety
-------------------
Compacted SSTables overlap in LSN range, so a follower that installed a
*prefix* of the leader's snapshot manifest may still miss a surviving
cell at an LSN below the newest shipped table.  The leader therefore
ships tables ascending by ``(max_lsn, min_lsn, table_id)`` and computes a
per-chunk **safe floor** — capped at one below the smallest ``min_lsn``
of any unshipped table — and the follower only advances its durable
state to that floor.  The volatile paging token (``seen``/``source``)
in the leader's cursor names its ``(name, manifest_id)`` generation;
when a flush/compaction invalidates it, paging restarts from the
durable floor — as does every new stream, after a leader change or a
follower crash — so nothing below the floor is ever re-shipped and no
stale token skips a table.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from ..sim.events import Event, SimulationError
from ..sim.network import RpcTimeout
from ..sim.process import all_of, timeout
from ..sim.resources import serve
from ..storage.lsn import LSN, SEQ_BITS
from ..storage.records import CatchupMarker, CommitMarker
from .batching import chunk_groups
from .config import (CATCHUP_CHUNK_RETRIES, CATCHUP_CHUNK_TIMEOUT,
                     ELECTION_RETRY, RECOVERY_REPLAY_SERVICE,
                     TAKEOVER_RECORD_SERVICE, TAKEOVER_STATE_TIMEOUT)
from .messages import CatchupChunk, CatchupRequest, TakeoverState
from .partition import MEMBERSHIP_KEY
from .replication import Role

__all__ = ["local_recovery", "leader_takeover", "push_catchup",
           "try_push_catchup", "build_catchup_chunk",
           "ingest_catchup", "chunk_wire_size"]

_MAX_SEQ = (1 << SEQ_BITS) - 1
#: base backoff between retries of one chunk (doubles per attempt)
_CHUNK_RETRY_BACKOFF = 0.1


def _prev_lsn(lsn: LSN) -> LSN:
    """The greatest LSN strictly below ``lsn``.

    Epochs compare first, so ``(e, s-1)`` dominates every LSN of any
    earlier epoch — a safe exclusive upper bound for "everything below".
    """
    if lsn.seq > 0:
        return LSN(lsn.epoch, lsn.seq - 1)
    if lsn.epoch > 0:
        return LSN(lsn.epoch - 1, _MAX_SEQ)
    return LSN.zero()


# ---------------------------------------------------------------------------
# Local recovery (§6.1, phase 1)
# ---------------------------------------------------------------------------

def local_recovery(replica):
    """Re-apply checkpoint..f.cmt from the local log.  ``yield from`` me."""
    node = replica.node
    wal = node.wal
    cohort_id = replica.cohort_id
    f_cmt = wal.last_committed_lsn(cohort_id)
    start = replica.engine.checkpoint_lsn
    records = wal.write_records(cohort_id, after=start, upto=f_cmt)
    for i, record in enumerate(records):
        replica.engine.apply(record)   # idempotent (LSN-ordered cells)
        if i % 64 == 63:               # charge CPU in batches
            yield from serve(node.cpu, 64 * RECOVERY_REPLAY_SERVICE)
    node.trace("catchup", "local recovery",
               cohort=cohort_id, replayed=len(records),
               f_cmt=str(f_cmt))
    # Merge, don't assign: the replay loop yields, and a concurrent
    # ingest may have advanced the commit point past our snapshot.
    replica.committed_lsn = max(replica.committed_lsn, f_cmt)
    # Replayed membership changes re-run the map switch + reconciliation
    # (both idempotent: the shared map refuses non-successor versions).
    for record in records:
        if record.key == MEMBERSHIP_KEY:
            node.on_membership_commit(record)
    last = wal.last_lsn(cohort_id)
    replica.next_seq = max(replica.next_seq, last.seq + 1)
    # The log tells us which epochs this cohort has seen; elections use
    # this to pick a fresh epoch even after a full-cluster restart.
    replica.epoch = max(replica.epoch, last.epoch)
    return len(records)


# ---------------------------------------------------------------------------
# Chunk assembly (leader side)
# ---------------------------------------------------------------------------

def chunk_wire_size(chunk: CatchupChunk) -> int:
    """Honest network size of one chunk: records, tables, and framing."""
    return (sum(r.encoded_size() for r in chunk.records) + 128
            + sum(t.bytes_size for t in chunk.sstables))


def build_catchup_chunk(leader_replica, req: CatchupRequest) -> CatchupChunk:
    """Assemble the next bounded catch-up page for one follower.

    Tables first (when the log rolled past the follower's progress),
    then log records; each page stays near the configured byte budget
    but always carries at least one item so progress is guaranteed.
    """
    node = leader_replica.node
    cohort_id = leader_replica.cohort_id
    wal = node.wal
    engine = leader_replica.engine
    cfg = node.config
    l_cmt = leader_replica.committed_lsn
    l_lst = wal.last_lsn(cohort_id)
    budget = cfg.catchup_chunk_bytes
    progress = max(req.follower_cmt, req.floor)
    source = (node.name, engine.manifest_id)
    # The floor only moves when shipped SSTables cover the gap (snapshot
    # branch below): it marks LSNs that may be absent from the
    # follower's *log*.  Serving from the log never raises it.
    floor = req.floor
    # A paging token is only meaningful within the generation it was
    # issued for; otherwise restart paging from the durable progress.
    seen = req.seen if req.source == source else progress
    if seen < progress:
        seen = progress

    sstables = ()
    used = 0
    snapshot_done = True
    if not wal.can_serve_after(cohort_id, progress):
        manifest = engine.manifest()
        horizon = max(progress, manifest.checkpoint_lsn)
        candidates = [t for t in manifest.sstables if t.max_lsn > seen]
        shipped = []
        for table in candidates:
            if (shipped and used + table.bytes_size > budget
                    and table.max_lsn != shipped[-1].max_lsn):
                # Budget exhausted — but tables tied on max_lsn ride in
                # the same page, keeping the exclusive token sound.
                break
            shipped.append(table)
            used += table.bytes_size
        unshipped = candidates[len(shipped):]
        sstables = tuple(shipped)
        if shipped:
            seen = shipped[-1].max_lsn
        if unshipped:
            snapshot_done = False
            # Safe floor: a surviving cell below the smallest unshipped
            # min_lsn must live in an already-shipped table.
            next_min = min(t.min_lsn for t in unshipped)
            floor = max(progress, min(seen, _prev_lsn(next_min)))
        else:
            # Snapshot portion exhausted: the floor jumps to the
            # manifest horizon; the remaining gap comes from the log.
            floor = max(progress, horizon)
            seen = max(seen, floor)

    if snapshot_done:
        base = max(progress, floor)
        gap = wal.write_records(cohort_id, after=base, upto=l_cmt)
        records = []
        for record in gap:
            if records and used + record.encoded_size() > budget:
                break
            records.append(record)
            used += record.encoded_size()
        more = len(records) < len(gap)
        if more:
            valid_upto = records[-1].lsn
            valid = tuple(r.lsn for r in records)
        else:
            # Final page: the truncation window stretches to l.lst so
            # the follower can skip-list records the leader discarded.
            valid_upto = l_lst
            valid = tuple(r.lsn for r in wal.write_records(cohort_id,
                                                           after=base))
        chunk = CatchupChunk(cohort_id=cohort_id,
                             epoch=leader_replica.epoch,
                             committed_lsn=l_cmt,
                             source=source, sstables=sstables,
                             snapshot_seen=seen, floor=floor,
                             records=tuple(records), valid_lsns=valid,
                             valid_after=base, valid_upto=valid_upto,
                             more=more)
    else:
        chunk = CatchupChunk(cohort_id=cohort_id,
                             epoch=leader_replica.epoch,
                             committed_lsn=l_cmt,
                             source=source, sstables=sstables,
                             snapshot_seen=seen, floor=floor,
                             records=(), valid_lsns=(),
                             valid_after=floor, valid_upto=floor,
                             more=True)
    # Served-chunk ledger: chaos schedules verify resume behaviour (no
    # table shipped at or below the follower's resume floor).
    node.catchup_served.append({
        "t": node.sim.now, "cohort": cohort_id, "follower": req.follower,
        "req_floor": progress, "req_seen": req.seen,
        "source": source, "floor": chunk.floor,
        "table_max_lsns": tuple(t.max_lsn for t in chunk.sstables),
        "records": len(chunk.records), "more": chunk.more,
    })
    return chunk


# ---------------------------------------------------------------------------
# Chunk ingestion (follower side)
# ---------------------------------------------------------------------------

def ingest_catchup(replica, chunk: CatchupChunk):
    """Apply one catch-up chunk at the follower.  ``yield from`` me.

    Ingests the shipped snapshot slice, logically truncates local
    records the leader discarded (skipped-LSN list, §6.1.1 — windowed to
    this chunk's ``(valid_after, valid_upto]``, and any above a shipped
    record it lacks), appends + forces missing
    committed records, applies them, and advances ``catchup_floor`` /
    f.cmt **durably** — a forced :class:`CatchupMarker` is the per-chunk
    durability point, so a crash mid-install resumes from this chunk.
    """
    node = replica.node
    wal = node.wal
    cohort_id = replica.cohort_id
    if chunk.epoch > replica.epoch:
        replica.epoch = chunk.epoch
    # 1. Logical truncation.  Records we hold in the chunk's window
    #    (valid_after, valid_upto] that the leader does not list were
    #    discarded by a leader change; those at or below the floor are
    #    covered by shipped SSTables, never truncated.  Above the window
    #    ours go if we lack a shipped record below them — our log is a
    #    prefix of a stream without that committed record, so none of
    #    them was committed — or, on the last page, whose window ends at
    #    l.lst, if of an older epoch: the leader holds every committed
    #    record of one, so that is a deposed leader's unacked tail, which
    #    would pass for committed once f.cmt moved past it.
    to_skip = []
    t_floor = max(replica.committed_lsn, chunk.valid_after)
    if chunk.valid_upto > t_floor:
        valid = set(chunk.valid_lsns)
        mine = wal.write_records(cohort_id, after=t_floor,
                                 upto=chunk.valid_upto)
        to_skip = [r.lsn for r in mine if r.lsn not in valid]
    above = wal.write_records(cohort_id,
                              after=max(t_floor, chunk.valid_upto))
    if above and any(r.lsn > t_floor and not wal.contains(cohort_id, r.lsn)
                     for r in chunk.records):
        to_skip += [r.lsn for r in above]
    elif not chunk.more:
        to_skip += [r.lsn for r in above if r.lsn.epoch < chunk.epoch]
    if to_skip:
        wal.add_skipped(cohort_id, to_skip)
        for lsn in to_skip:
            replica.queue.drop(lsn)
    # 2. Snapshot slice shipped because the leader's log rolled over.
    #    The engine checkpoint is capped at the chunk's safe floor: an
    #    overlapping compacted table still unshipped may hold surviving
    #    cells above it.  Re-ingesting a retried chunk is a no-op.
    for table in chunk.sstables:
        replica.engine.ingest_sstable(table, checkpoint_upto=chunk.floor)
    replica.catchup_tables_ingested += len(chunk.sstables)
    floor_advanced = chunk.floor > replica.catchup_floor
    if floor_advanced:
        replica.catchup_floor = chunk.floor
        # Our own records at or below the floor are superseded by the
        # installed tables; roll them over so restart replay and the
        # skipped list stay bounded by the gap, not the history.
        wal.gc_through(cohort_id, chunk.floor)
    # 3. Missing committed records: append + force at the tail (step 1
    #    cut what of ours lay above them), then apply in order.  One we
    #    hold skip-listed — a leader elected without it discarded it —
    #    leaves the list, as a re-proposal's does (``append_after``).
    wal.remove_skipped(cohort_id, [record.lsn for record in chunk.records])
    min_retained = wal.min_retained_lsn(cohort_id)
    forces = []
    for record in chunk.records:
        if (not wal.contains(cohort_id, record.lsn)
                and record.lsn > min_retained):
            forces.append(wal.append(record, force=True))
    if forces:
        yield all_of(node.sim, forces)
    for record in chunk.records:
        replica.engine.apply(record)
        replica.queue.drop(record.lsn)
    new_cmt = max(replica.committed_lsn, replica.catchup_floor)
    if chunk.records:
        new_cmt = max(new_cmt, chunk.records[-1].lsn)
    if not chunk.more:
        # Final page: everything through the leader's commit point is
        # shipped, already ours, or skip-listed — adopt l.cmt outright.
        new_cmt = max(new_cmt, chunk.committed_lsn)
    cmt_advanced = new_cmt > replica.committed_lsn
    if cmt_advanced:
        replica.committed_lsn = new_cmt
        wal.append(CommitMarker(lsn=new_cmt, cohort_id=cohort_id,
                                committed_lsn=new_cmt), force=False)
    if floor_advanced or cmt_advanced:
        # The per-chunk durability point: one forced marker also lands
        # the non-forced commit marker above (group-commit semantics).
        ev = wal.append(CatchupMarker(lsn=replica.catchup_floor,
                                      cohort_id=cohort_id,
                                      floor=replica.catchup_floor),
                        force=True)
        if ev is not None:
            yield ev
    replica.catchup_chunks_ingested += 1
    replica.next_seq = max(replica.next_seq,
                           wal.last_lsn(cohort_id).seq + 1)
    # Membership changes that arrived via catch-up (e.g. a retired member
    # that missed the commit broadcast) take effect now.
    for record in chunk.records:
        if record.key == MEMBERSHIP_KEY:
            node.on_membership_commit(record)
    node.trace("catchup", "chunk ingested",
               cohort=cohort_id, records=len(chunk.records),
               sstables=len(chunk.sstables), truncated=len(to_skip),
               floor=str(replica.catchup_floor),
               new_cmt=str(replica.committed_lsn), more=chunk.more)


# ---------------------------------------------------------------------------
# Leader-driven catch-up push (§6.1 rejoin, Fig. 6 lines 3-7)
# ---------------------------------------------------------------------------

def push_catchup(leader_replica, peer: str):
    """Bring ``peer`` up to this replica's commit point by pushing
    chunks; ``yield from`` me.  Returns the peer name.

    The one catch-up path: a ``RECOVERING`` follower's request, leader
    takeover (Fig. 6 lines 3-7), rebalance replace-joiners and
    leadership handoff all route through here.  Bulk pages ship with
    client writes open.  A page is *final* — and promotes the peer —
    only when it is complete and was built with writes closed: a
    takeover has not opened the cohort yet, or this push holds the §6.1
    momentary write block, taken once a bulk page comes back complete.
    Proposes are withheld from a peer in ``catching_up``, so the first
    one it sees after promotion is the pending queue snapshotted with
    the final page — under the block, or a takeover's re-proposals once
    they are out — proposed on top of that page's commit point.

    Raises :class:`~repro.sim.events.SimulationError` (or
    :class:`~repro.sim.network.RpcTimeout`) when the peer cannot be
    caught up; chunk progress already pushed is durable at the peer and
    is not re-shipped on retry.
    """
    node = leader_replica.node
    cohort_id = leader_replica.cohort_id
    tracer = node.request_tracer
    ctx = tracer.begin("catchup", node.name) if tracer.enabled else None
    leader_replica.catching_up.add(peer)
    blocking = False
    ok = False
    try:
        state = yield node.endpoint.request(
            peer, TakeoverState(cohort_id=cohort_id,
                                epoch=leader_replica.epoch),
            size=64, timeout=TAKEOVER_STATE_TIMEOUT)
        if not isinstance(state, dict) or "cmt" not in state:
            raise SimulationError(f"{peer} gave no takeover state")
        cursor = CatchupRequest(cohort_id=cohort_id, follower=peer,
                                follower_cmt=state["cmt"],
                                floor=state.get("floor", LSN.zero()))
        while True:
            # Under the block this also lets writes already past the
            # gate reach the commit queue before the final snapshot.
            yield from serve(node.cpu, TAKEOVER_RECORD_SERVICE)
            if not leader_replica.is_leader:
                raise SimulationError(f"deposed while catching up {peer}")
            chunk = build_catchup_chunk(leader_replica, cursor)
            final = not chunk.more and (
                blocking or not leader_replica.open_for_writes)
            pending = (tuple(leader_replica.queue) if final and (
                blocking or leader_replica.proposed_top > chunk.committed_lsn)
                else ())
            chunk = replace(chunk, final=final, trace=ctx)
            done = None
            for attempt in range(CATCHUP_CHUNK_RETRIES + 1):
                span = None
                if ctx is not None:
                    span = tracer.start(ctx, "catchup_fetch", node.name,
                                        attempt=attempt)
                try:
                    done = yield node.endpoint.request(
                        peer, chunk, size=chunk_wire_size(chunk),
                        timeout=CATCHUP_CHUNK_TIMEOUT)
                except RpcTimeout:
                    if span is not None:
                        tracer.finish(span, timed_out=True)
                    if attempt < CATCHUP_CHUNK_RETRIES:
                        yield timeout(
                            node.sim,
                            _CHUNK_RETRY_BACKOFF * (2 ** attempt))
                    continue
                if span is not None:
                    tracer.finish(span)
                break
            if not isinstance(done, dict) or "cmt" not in done:
                raise SimulationError(f"{peer} failed catch-up")
            if final:
                break
            cursor = CatchupRequest(
                cohort_id=cohort_id, follower=peer,
                follower_cmt=done["cmt"],
                floor=done.get("floor", cursor.floor),
                seen=chunk.snapshot_seen, source=chunk.source)
            if not chunk.more and not blocking:
                leader_replica.block_writes()
                blocking = True
        # Proposes flow to the peer again, the pending tail first.
        leader_replica.catching_up.discard(peer)
        if pending and peer in leader_replica.peers():
            # Only a voter's ack may count toward the commit quorum; a
            # joining learner picks the tail up after the switch.
            leader_replica.propose(
                [record for entry in pending for record in entry.records],
                pending, chunk.committed_lsn, (peer,))
        ok = True
        return peer
    finally:
        leader_replica.catching_up.discard(peer)
        if blocking:
            leader_replica.unblock_writes()
        if ctx is not None:
            tracer.finish(ctx.root, ok=ok)


def try_push_catchup(replica, peers):
    """:func:`push_catchup` to each of ``peers`` in turn; ``yield
    from`` me.  False as soon as one cannot be caught up — the caller's
    retry loop, or the peer's next request, tries again."""
    for peer in peers:
        try:
            yield from push_catchup(replica, peer)
        except (RpcTimeout, SimulationError):
            return False
    return True


# ---------------------------------------------------------------------------
# Leader takeover (§6.2, Fig. 6)
# ---------------------------------------------------------------------------

def leader_takeover(replica):
    """Run takeover after winning an election; ``yield from`` me.

    The election already bumped the epoch (stored in the coordination
    service) and set ``replica.epoch``; LSNs issued after takeover are
    therefore greater than anything previously used in the cohort.
    """
    node, cfg = replica.node, replica.node.config
    sim = node.sim
    replica.role = Role.LEADER
    replica.leader = node.name
    replica.open_for_writes = False
    cohort_id = replica.cohort_id
    l_cmt = replica.committed_lsn
    l_lst = node.wal.last_lsn(cohort_id)
    replica.proposed_top = l_cmt    # the first round's ``prev``

    # Lines 3-7: catch each follower up to l.cmt (chunked push).
    # Line 8: wait until a majority, us included, is caught up to l.cmt.
    # Retry until that quorum exists — without it the cohort must stay
    # unavailable (§8.1); a returning follower is picked up by the next
    # round (its own requests wait until we are open).  A round's
    # ``caught_up`` succeeds once ``need`` of its pushes have, and fails
    # once that is out of reach; a push that ends after its round does
    # not count toward a later one.  The pushes, like the commit loop
    # below, run under the node's supervisor: a crash ends them.
    need = cfg.majority - 1

    def on_push(caught_up, attempts, _attempt):
        if caught_up.triggered:
            return
        done = sum(1 for a in attempts if a._ok and a._value)
        if done >= need:
            caught_up.succeed()
        elif done + sum(1 for a in attempts if a._ok is None) < need:
            caught_up.fail(SimulationError(
                f"quorum unreachable: {done} of {need}"))

    while True:
        attempts = [node.spawn(try_push_catchup(replica, (peer,)),
                               f"takeover-{peer}")
                    for peer in replica.peers()]
        if need <= 0:
            break
        if need <= len(attempts):
            caught_up = Event(sim)
            for attempt in attempts:
                attempt.add_callback(partial(on_push, caught_up, attempts))
            try:
                yield caught_up
                break
            except SimulationError:
                pass
        yield timeout(sim, ELECTION_RETRY)

    # Line 9: re-propose writes in (l.cmt, l.lst] through the normal
    # replication protocol, batched like the steady-state write pipeline
    # (up to ``propose_batch_max_records`` per round, one record per
    # round with batching off) through the same ``_replicate``: the tail
    # is already durable here, so it is only proposed.  Sequential
    # per-round resolution is what keeps recovery time proportional to
    # the commit period (Table 1); batching divides the round count.
    unresolved = node.wal.write_records(cohort_id, after=l_cmt, upto=l_lst)
    for batch in chunk_groups(
            [(r,) for r in unresolved],
            cfg.propose_batch_max_records if cfg.propose_batching else 1):
        yield from serve(node.cpu, TAKEOVER_RECORD_SERVICE)
        committed = Event(sim)
        replica._replicate(batch, committed.succeed, already_logged=True)
        yield committed

    # Line 10: open the cohort for writes, with fresh LSNs.
    replica.next_seq = max(replica.next_seq, l_lst.seq + 1)
    # Takeover runs under the leader monitor; deposal interrupts
    # this process before it can resume.
    # lint: allow(write-after-yield-unguarded)
    replica.open_for_writes = True
    replica.release_held()
    # Routing hint for clients whose leader cache is cold (the map layer
    # snapshots it; elections and handoffs keep it current).
    node.partitioner.record_leader(cohort_id, node.name)
    node.trace("takeover", "cohort open for writes",
               cohort=cohort_id, epoch=replica.epoch,
               reproposed=len(unresolved))
    replica.broadcast_commit()
    node.spawn(replica.commit_loop(), f"commit-loop-{cohort_id}")
