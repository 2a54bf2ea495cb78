"""Elastic membership: planning and executing live replica moves.

The paper defers cluster growth to future work (§10); this module builds
it on top of the machinery the paper *does* specify.  A membership change
is one Paxos round in the **source** cohort: the migration leader drains
its commit queue, then replicates a :data:`MEMBERSHIP_KEY` write record
whose value is the encoded :class:`MembershipChange`.  Commit of that
record — observed through every path a replica learns about commits
(leader advance, follower commit info, log replay, catch-up ingestion) —
atomically switches the shared :class:`RangePartitioner` to the next map
version and reconciles the local replica set.  Anything a crash
interrupts is healed by the same observation paths plus the idempotent
driver retry: the change's version guard makes every step replayable.

Two move kinds exist:

* ``split`` — a hot cohort ``[lo, hi)`` splits at ``split_key``; the new
  cohort keeps two *resident* members (which seed their replicas by
  locally filtering the parent's storage at the commit horizon) plus the
  joining node (which catches up from the new cohort's first leader via
  the ordinary §6 machinery — the horizon is its WAL GC floor, so
  catch-up ships SSTables, never a partial log).
* ``replace`` — a member swap; the joiner is bulk-caught-up *before* the
  switch so the commit only has to ship the final delta.

Migration state machine (per change, driven by
:func:`handle_migration_start` on the source leader)::

    IDLE ──MigrationStart──▶ PREPARING       joiner replicas created
      PREPARING ──ok──────▶ CATCHING_UP     (replace only: bulk delta)
      CATCHING_UP ──ok────▶ DRAINING        writes blocked, queue drains
      DRAINING ──empty────▶ COMMITTING      membership record replicated
      COMMITTING ──commit─▶ FINISHING       map switched (commit hook);
                                            old members told, board
                                            published, joiners re-prepared
      FINISHING ──────────▶ IDLE            respond {ok: true}

    any state ──leader lost / peer timeout──▶ IDLE  (respond {ok: false};
                                            the driver retries the plan)

Invariants:

- **Single writer per version.** Change ``v`` only commits on the leader
  holding map version ``v - 1``; stale plans are rejected, and a change
  seen twice (``version <= part.version``) re-runs only the idempotent
  side effects.
- **Replicas before the switch.** Joiner replicas exist (PREPARING)
  before the record commits, so post-switch elections and catch-up
  always have a live endpoint to land on.
- **The commit is the switch.** No node acts on a new map until it
  observes the membership record as *committed* — the same durability
  the paper gives every write.  There is no prepare/commit side channel
  to half-apply.
- **Snapshot at the horizon.** Split residents filter their storage at
  the commit horizon; the joiner's WAL GC floor equals that horizon, so
  catch-up ships SSTables, never a partial log (§6.3 discipline).

Failure cases:

- *Leader crashes mid-migration*: ``migrating`` dies with it; the new
  leader of the source cohort has either (a) no record — the driver's
  retry starts over, or (b) the committed record — retry hits the
  ``already-applied`` path and just re-runs side effects.
- *Joiner crashes during catch-up*: the prepare/catch-up step times out,
  the round aborts, the driver retries; an already-prepared replica is
  reconciled away if the plan changes.
- *Retired member misses the commit*: it is explicitly sent commit info
  over the old map immediately after commit; if even that is lost, any
  later §6 path (replay, catch-up, gossip of the map version) converges
  it before it serves stale reads, because clients route by map version.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..coord.recipes import CohortMapBoard
from ..coord.znode import CoordError
from ..sim.events import Event, SimulationError
from ..sim.network import RpcTimeout
from ..sim.process import timeout
from ..storage.memtable import Memtable
from ..storage.records import WriteRecord
from ..storage.sstable import SSTable
from .config import TAKEOVER_STATE_TIMEOUT
from .messages import Commit, MigrationPrepare, MigrationStart
from .partition import (INTERNAL_KEY_PREFIX, MEMBERSHIP_KEY, Cohort,
                        KeyRange, MembershipChange, RangePartitioner)
from .recovery import try_push_catchup
from .replication import Role

__all__ = ["MEMBERSHIP_KEY", "membership_record",
           "apply_membership_record", "build_split_snapshot",
           "handle_migration_start", "plan_join", "plan_replace",
           "Rebalancer"]


# ---------------------------------------------------------------------------
# The membership-change log record
# ---------------------------------------------------------------------------

def membership_record(replica, change: MembershipChange) -> WriteRecord:
    """The log record whose commit *is* the membership switch."""
    return WriteRecord(lsn=replica.alloc_lsn(), cohort_id=replica.cohort_id,
                       key=MEMBERSHIP_KEY, colname=b"change",
                       value=change.encode(), version=change.version,
                       timestamp=replica.node.sim.now)


def apply_membership_record(node, record: WriteRecord) -> None:
    """Commit-time hook: switch the map and reconcile local replicas.

    Runs wherever a replica observes the record as committed — the
    migration leader's advance, a follower's commit info, restart replay
    in ``local_recovery``, and ``ingest_catchup``.  All of them funnel
    here, so a replica that misses the original commit message still
    converges the moment any §6 mechanism hands it the record.
    """
    change = MembershipChange.decode(record.value)
    part: RangePartitioner = node.partitioner
    if part.apply_change(change):
        node.trace("rebalance", "membership change applied",
                   version=change.version, kind=change.kind,
                   cohort=change.cohort_id)
    _reconcile_node(node, change, horizon=record.lsn)


def _reconcile_node(node, change: MembershipChange, horizon) -> None:
    """Make ``node``'s replica set agree with the current map for the
    cohorts ``change`` touches.  Idempotent."""
    part: RangePartitioner = node.partitioner
    affected = [change.cohort_id]
    if change.kind == "split" and change.new_cohort_id is not None:
        affected.append(change.new_cohort_id)
    for cid in affected:
        cohort = part.cohort_or_none(cid)
        if cohort is None:
            continue
        replica = node.replicas.get(cid)
        if node.name in cohort.members:
            if replica is not None:
                replica.cohort = cohort     # refreshed range / member set
            elif (change.kind == "split" and cid == change.new_cohort_id
                    and change.cohort_id in node.replicas):
                # Resident member: seed the new range from local data.
                node.create_split_replica(
                    cohort, node.replicas[change.cohort_id], horizon)
            else:
                node.create_replica(cohort)
        elif replica is not None:
            node.retire_replica(replica)


# ---------------------------------------------------------------------------
# Split snapshots
# ---------------------------------------------------------------------------

def build_split_snapshot(engine, new_cohort: Cohort,
                         key_mapper) -> Optional[SSTable]:
    """One SSTable holding the parent engine's cells that fall in the new
    cohort's range, re-stamped with the new cohort id (the engine asserts
    cohort ownership on apply).  LSNs are preserved: every cell predates
    the commit horizon, so the new cohort's log starts strictly above the
    snapshot (Appendix B ordering)."""
    keys = set(engine.memtable.keys())
    for table in engine.sstables:
        keys.update(table.keys())
    rng = new_cohort.key_range
    memtable = Memtable(engine.order)
    for key in sorted(keys):
        if key.startswith(INTERNAL_KEY_PREFIX):
            continue
        if not rng.contains(key_mapper(key)):
            continue
        for colname in sorted(engine.get_row(key)):
            cell = engine.get_row(key)[colname]
            memtable.apply(WriteRecord(
                lsn=cell.lsn, cohort_id=new_cohort.cohort_id, key=key,
                colname=colname, value=cell.value, version=cell.version,
                timestamp=cell.timestamp, tombstone=cell.tombstone))
    if memtable.is_empty:
        return None
    return SSTable.from_memtable(memtable)


# ---------------------------------------------------------------------------
# The migration protocol (runs on the source cohort's leader)
# ---------------------------------------------------------------------------

def handle_migration_start(replica, req):
    """Execute one membership change; spawned per MigrationStart.

    Sequence: guard staleness → prepare joiners (replicas exist before
    the switch, so elections and catch-up have somewhere to land) → for
    replaces, bulk catch-up → drain + commit the membership record
    through the old cohort → push commit info to the *old* member set
    (the commit broadcast already follows the new map) → re-prepare and
    publish the map version on the coordination board.
    """
    node = replica.node
    part: RangePartitioner = node.partitioner
    change: MembershipChange = req.payload.change
    if not replica.is_leader or not replica.open_for_writes:
        req.respond({"ok": False, "code": "not-leader",
                     "hint": replica.leader}, size=64)
        return
    if change.version <= part.version:
        # A previous attempt already committed the switch; only the side
        # effects can be missing.  Re-run them and report success.
        yield from _finish_migration(replica, change)
        req.respond({"ok": True, "code": "already-applied",
                     "version": part.version}, size=64)
        return
    if change.version != part.version + 1:
        req.respond({"ok": False, "code": "stale-plan", "hint": None},
                    size=64)
        return
    if replica.migrating:
        req.respond({"ok": False, "code": "busy", "hint": None}, size=64)
        return
    if change.kind == "replace" and node.name not in change.new_members:
        # Never retire the acting leader mid-round; the planner must
        # transfer leadership first.
        req.respond({"ok": False, "code": "bad-plan", "hint": None},
                    size=64)
        return
    if change.kind == "split":
        resident = [m for m in change.new_members
                    if m in replica.cohort.members]
        if len(resident) < len(change.new_members) - 1:
            req.respond({"ok": False, "code": "bad-plan", "hint": None},
                        size=64)
            return
    replica.migrating = True
    try:
        joiners = [m for m in change.new_members
                   if m not in replica.cohort.members]
        ok = yield from _prepare_joiners(replica, change, joiners)
        if not ok:
            req.respond({"ok": False, "code": "prepare-failed",
                         "hint": None}, size=64)
            return
        if change.kind == "replace":
            ok = yield from try_push_catchup(replica, joiners)
            if not ok:
                req.respond({"ok": False, "code": "catchup-failed",
                             "hint": None}, size=64)
                return
        old_peers = replica.peers()
        replica.block_writes()
        try:
            # Check-first drain: prepare/catch-up above yielded for a
            # long time, and an empty queue must not skip the leadership
            # re-check — a deposed leader would otherwise replicate a
            # membership record it has no right to propose.
            while True:
                if not replica.is_leader or not replica.open_for_writes:
                    req.respond({"ok": False, "code": "not-leader",
                                 "hint": replica.leader}, size=64)
                    return
                if len(replica.queue) == 0:
                    break
                yield timeout(node.sim, 0.002)
            record = membership_record(replica, change)
            committed = Event(node.sim)
            replica._replicate([record], committed.succeed)
            yield committed
        finally:
            replica.unblock_writes()
        # Commit already ran the switch here (leader advance hook); tell
        # the old member set immediately — the periodic broadcast now
        # follows the *new* map, so a retired member would otherwise
        # never learn it lost its seat.  Use the record's own LSN: our
        # resumption can interleave before committed_lsn is refreshed.
        info = Commit(cohort_id=replica.cohort_id, epoch=replica.epoch,
                      lsn=max(replica.committed_lsn, record.lsn))
        for peer in old_peers:
            node.endpoint.send(peer, info, size=48)
        if change.kind == "replace":
            # Best-effort final delta (includes the membership record);
            # a miss self-heals through gap resync.
            yield from try_push_catchup(replica, joiners)
        yield from _finish_migration(replica, change)
        req.respond({"ok": True, "version": part.version}, size=64)
    finally:
        # This process owns the flag: the `busy` gate above makes
        # it the only setter.
        # lint: allow(write-after-yield-unguarded)
        replica.migrating = False


def _target_cohort(replica, change: MembershipChange) -> Cohort:
    """The cohort definition a joiner is prepared with.

    Splits hand out the future child cohort (the joiner is a full member
    of it and may run its first election).  Replaces hand out the
    *current* definition — the joiner is not yet a member, so the
    election gate keeps it a learner until the switch commits.
    """
    if change.kind == "split":
        src = replica.cohort.key_range
        return Cohort(change.new_cohort_id,
                      KeyRange(change.split_key, src.hi),
                      change.new_members)
    return replica.cohort


def _prepare_joiners(replica, change: MembershipChange,
                     joiners: Sequence[str]):
    node = replica.node
    prep = MigrationPrepare(cohort=_target_cohort(replica, change),
                            base_epoch=replica.epoch,
                            map_version=node.partitioner.version)
    for member in joiners:
        try:
            ack = yield node.endpoint.request(
                member, prep, size=128, timeout=TAKEOVER_STATE_TIMEOUT)
        except RpcTimeout:
            return False
        if not (isinstance(ack, dict) and ack.get("ok")):
            return False
    return True


def _finish_migration(replica, change: MembershipChange):
    """Idempotent post-commit side effects: re-prepare every member of
    the target cohort (heals joiners that crashed after the original
    prepare) and publish the map version on the coordination board."""
    node = replica.node
    part: RangePartitioner = node.partitioner
    # Re-notify retired members (replace): the one-shot post-commit
    # Commit can be lost, and nothing else ever addresses them again.
    retired = [m for m in change.old_members
               if m not in change.new_members]
    if retired and replica.is_leader:
        info = Commit(cohort_id=replica.cohort_id, epoch=replica.epoch,
                      lsn=replica.committed_lsn)
        for member in retired:
            node.endpoint.send(member, info, size=48)
    target_cid = (change.new_cohort_id if change.kind == "split"
                  else change.cohort_id)
    cohort = part.cohort_or_none(target_cid)
    if cohort is not None:
        prep = MigrationPrepare(cohort=cohort, base_epoch=replica.epoch,
                                map_version=part.version)
        for member in cohort.members:
            if member == node.name:
                continue
            try:
                yield node.endpoint.request(
                    member, prep, size=128, timeout=TAKEOVER_STATE_TIMEOUT)
            except RpcTimeout:
                pass    # startup reconciliation / driver retry covers it
    if node.zk is not None:
        try:
            yield from CohortMapBoard(node.zk).publish(part.version)
        except CoordError:
            pass        # the next attempt (or operator read) re-publishes


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def _pick_residents(members: Sequence[str], joiner: str, count: int,
                    topology) -> Tuple[str, ...]:
    """Choose ``count`` resident members to seed a split's child cohort.

    Topology-oblivious: the first ``count`` members (legacy behavior).
    With a topology, prefer residents in datacenters the child cohort
    (joiner included) does not cover yet, so elastic growth preserves
    the DC spread that makes a whole-DC outage survivable; ties keep
    member order.
    """
    pool = [m for m in members if m != joiner]
    if topology is None:
        return tuple(pool[:count])
    picked: List[str] = []
    seen = {topology.dc_of(joiner)}
    for m in pool:
        if len(picked) == count:
            break
        if topology.dc_of(m) not in seen:
            picked.append(m)
            seen.add(topology.dc_of(m))
    for m in pool:
        if len(picked) == count:
            break
        if m not in picked:
            picked.append(m)
    return tuple(picked)


def plan_join(partitioner: RangePartitioner, new_nodes: Sequence[str],
              heat: Optional[Dict[int, float]] = None
              ) -> List[MembershipChange]:
    """Plan one cohort split per joining node to shift load onto it.

    ``heat`` maps cohort id → observed load (ops served); unknown cohorts
    default to their range width.  Each move splits the currently
    hottest cohort at its range midpoint: the joiner plus two resident
    members form the child cohort, so the residents seed the new range
    from local data and the joiner catches up from whichever of them is
    elected.  The simulated layout/heat is updated between moves so
    successive plans spread across cohorts.  When the partitioner has a
    topology, residents are picked DC-aware (:func:`_pick_residents`).
    """
    cohorts: Dict[int, Cohort] = {c.cohort_id: c
                                  for c in partitioner.cohorts}
    temperature: Dict[int, float] = dict(heat or {})
    for cid in sorted(cohorts):
        rng = cohorts[cid].key_range
        temperature.setdefault(cid, float(rng.hi - rng.lo))
    version = partitioner.version
    next_id = partitioner.next_cohort_id()
    plans: List[MembershipChange] = []
    for name in new_nodes:
        candidates = [cid for cid in sorted(cohorts)
                      if name not in cohorts[cid].members
                      and (cohorts[cid].key_range.hi
                           - cohorts[cid].key_range.lo) >= 2]
        if not candidates:
            continue
        victim_id = max(candidates, key=lambda c: temperature[c])
        src = cohorts[victim_id]
        mid = src.key_range.lo + (src.key_range.hi - src.key_range.lo) // 2
        residents = _pick_residents(
            src.members, name, max(len(src.members) - 1, 1),
            partitioner.topology)
        new_members = (name,) + residents
        version += 1
        change = MembershipChange(
            version=version, kind="split", cohort_id=victim_id,
            new_members=new_members, split_key=mid,
            new_cohort_id=next_id)
        plans.append(change)
        cohorts[victim_id] = Cohort(
            victim_id, KeyRange(src.key_range.lo, mid), src.members)
        cohorts[next_id] = Cohort(
            next_id, KeyRange(mid, src.key_range.hi), new_members)
        half = temperature[victim_id] / 2.0
        temperature[victim_id] = half
        temperature[next_id] = half
        next_id += 1
    return plans


def plan_replace(partitioner: RangePartitioner, cohort_id: int,
                 old_member: str, new_member: str) -> MembershipChange:
    """Plan swapping one member of a cohort for another node."""
    cohort = partitioner.cohort(cohort_id)
    if old_member not in cohort.members:
        raise ValueError(f"{old_member!r} not in cohort {cohort_id}")
    if new_member in cohort.members:
        raise ValueError(f"{new_member!r} already in cohort {cohort_id}")
    members = tuple(new_member if m == old_member else m
                    for m in cohort.members)
    return MembershipChange(version=partitioner.version + 1,
                            kind="replace", cohort_id=cohort_id,
                            new_members=members,
                            old_members=cohort.members)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

class Rebalancer:
    """Harness-side driver: pushes planned changes at cohort leaders and
    retries through crashes until the cluster converges on each one.

    All the safety lives in the protocol (version-guarded, idempotent);
    the driver only supplies liveness — resolve the current leader, send
    :class:`MigrationStart`, back off, re-check convergence, repeat.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.endpoint = cluster.network.endpoint("rebalancer")
        self.attempts = 0
        self.moves_completed = 0
        self.done = False

    def execute(self, plans: Iterable[MembershipChange],
                move_timeout: float = 120.0):
        """Process generator: drive each change to convergence, in order.
        A split move ends by transferring the child cohort's leadership
        to the joining node (the point of scaling out: the new node must
        *serve*, not just store)."""
        sim = self.cluster.sim
        self.done = False
        for change in plans:
            deadline = sim.now + move_timeout
            while not self.plan_converged(change):
                if sim.now >= deadline:
                    raise SimulationError(
                        f"migration v{change.version} did not converge "
                        f"within {move_timeout}s")
                leader = self.cluster.leader_of(change.cohort_id)
                if leader is None:
                    yield timeout(sim, 0.25)
                    continue
                self.attempts += 1
                # The 10s floor budgets the migration itself (drain +
                # catch-up service time, which dwarfs the wire); the
                # rtt-derived term keeps the budget honest when the
                # leader sits across a WAN link (timeout audit, cf.
                # Network.rtt_bound).
                migration_timeout = (
                    10.0 + 4.0 * self.cluster.network.rtt_bound())
                try:
                    reply = yield self.endpoint.request(
                        leader,
                        MigrationStart(cohort_id=change.cohort_id,
                                       change=change),
                        size=256, timeout=migration_timeout)
                except RpcTimeout:
                    continue
                if not (isinstance(reply, dict) and reply.get("ok")):
                    yield timeout(sim, 0.25)
                    continue
                yield timeout(sim, 0.05)    # let monitors settle
            self.moves_completed += 1
            if change.kind == "split":
                yield from self._ensure_leader(
                    change.new_cohort_id, change.new_members[0],
                    sim.now + move_timeout)
        self.done = True

    def plan_converged(self, change: MembershipChange) -> bool:
        cluster = self.cluster
        part: RangePartitioner = cluster.partitioner
        if part.version < change.version:
            return False
        cids = [change.cohort_id]
        if change.kind == "split":
            cids.append(change.new_cohort_id)
        for cid in cids:
            cohort = part.cohort_or_none(cid)
            if cohort is None:
                return False
            if cluster.leader_of(cid) is None:
                return False
            for member in cohort.members:
                node = cluster.nodes.get(member)
                if node is None or not node.alive:
                    return False    # wait out restarts before declaring
                replica = node.replicas.get(cid)
                if replica is None or replica.role not in (Role.LEADER,
                                                           Role.FOLLOWER):
                    return False
            # Retired members must have dropped their replicas.
            for name in sorted(cluster.nodes):
                node = cluster.nodes[name]
                if (name not in cohort.members and node.alive
                        and cid in node.replicas):
                    return False
        return True

    def _ensure_leader(self, cohort_id: int, target: str, deadline: float):
        from .loadbalance import transfer_leadership
        sim = self.cluster.sim
        while sim.now < deadline:
            leader = self.cluster.leader_of(cohort_id)
            if leader == target:
                return True
            if leader is not None:
                node = self.cluster.nodes[leader]
                replica = node.replicas.get(cohort_id)
                tgt = self.cluster.nodes.get(target)
                tgt_replica = (tgt.replicas.get(cohort_id)
                               if tgt is not None and tgt.alive else None)
                if (replica is not None and tgt_replica is not None
                        and tgt_replica.role == Role.FOLLOWER):
                    proc = node.spawn(
                        transfer_leadership(replica, target),
                        f"rebalance-transfer-{cohort_id}")
                    while proc.is_alive and sim.now < deadline:
                        yield timeout(sim, 0.1)
            yield timeout(sim, 0.25)
        return self.cluster.leader_of(cohort_id) == target
