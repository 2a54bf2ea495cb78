"""A Spinnaker node (§4.1, Fig. 3).

Each node hosts, for every cohort it belongs to (three, with default
placement): a storage engine (memtables + SSTables), a commit queue, and
the replication / leader-election / recovery state machines.  All cohorts
share one write-ahead log on a dedicated logging device, one CPU pool,
one network endpoint, and one coordination-service session (whose expiry
is how the rest of the cluster learns this node died).

Its store-independent half is :class:`NodeHost`, which the Cassandra
baseline's node shares: the two stores differ only in their handlers.

A message is handled by a function; only a multi-round activity
(startup, election, takeover, catch-up, rebalance, the commit timer) is
a process.  A handler that must wait — for a core, a log force, a commit
— names what runs next and parks it with :meth:`NodeHost.charge`,
hands it to the force or commit as :meth:`NodeHost.guarded`, or
waits on the write gate with :meth:`NodeHost.after`; each runs it
only in the incarnation that parked it (DESIGN.md, "Kernel hot paths",
*Handlers are functions* and *Completions are continuations*).

Crash semantics: ``crash()`` kills every process and orphans every
parked continuation, drops the volatile log tail and memtables, and
takes the endpoint and log device offline.  ``restart()`` boots a fresh
incarnation that runs local recovery and rejoins its cohorts through
the §6 protocols.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Dict, Optional

from ..coord.client import CoordClient
from ..coord.recipes import GroupMembership
from ..coord.znode import CoordError
from ..sim.disk import LogDevice
from ..sim.events import URGENT, Event, Simulator
from ..sim.network import Network, Request, RpcTimeout
from ..sim.process import Process, Supervisor, timeout as sim_timeout
from ..sim.resources import Charge, Resource
from ..sim.rng import RngRegistry
from ..storage.engine import StorageEngine
from ..storage.lsn import LSN
from ..storage.records import (CatchupMarker, CheckpointRecord,
                               CommitMarker)
from ..storage.wal import SharedLog
from .config import CORES_PER_NODE, ELECTION_RETRY, SpinnakerConfig
from .election import cohort_zk_path, leader_monitor
from .messages import (CatchupChunk, CatchupRequest, ClientGet, ClientScan,
                       ClientWrite, Commit, GetCohortMap, MigrationPrepare,
                       MigrationStart, Propose, TakeoverState)
from .partition import Cohort, RangePartitioner
from .rebalance import (apply_membership_record, build_split_snapshot,
                        handle_migration_start)
from .recovery import ingest_catchup, local_recovery, try_push_catchup
from .replication import CohortReplica, Role

__all__ = ["NodeHost", "SpinnakerNode"]


#: requests whose sender waits to hear that no replica is here
_ANSWERS_WRONG_NODE = frozenset({ClientGet, ClientWrite, ClientScan,
                                 MigrationStart})


def _nothing() -> None:
    """What runs after a background CPU charge."""


class NodeHost:
    """The server runtime both stores' nodes share: endpoint, CPU, log
    device and write-ahead log, processes, handler continuations,
    dispatch, crash and boot.  A store adds its ``_handlers``, its
    ``_on_boot`` and what else a ``crash`` loses."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 partitioner: RangePartitioner, config: Any,
                 device: LogDevice, tracer=None):
        from ..sim.tracing import NullTracer
        self.tracer = tracer if tracer is not None else NullTracer()
        self.sim = sim
        self.network = network
        self.name = name
        self.partitioner = partitioner
        self.config = config
        self.endpoint = network.endpoint(name)
        self.endpoint.on_request(self._dispatch)
        self.cpu = Resource(sim, capacity=CORES_PER_NODE)
        self.device = device
        self.wal = SharedLog(device)
        self.alive = False
        self.incarnation = 0
        #: this node's processes, killed on crash; ``spawn(gen, name)``
        #: starts one and ``failures`` lists what died of a bug — a
        #: process or a handler continuation
        self.supervisor = Supervisor(sim, name)
        self.spawn = self.supervisor.spawn
        self.failures = self.supervisor.failures
        #: message type -> ``handler(req)``
        self._handlers: Dict[type, Callable[[Request], None]] = {}

    def trace(self, category: str, message: str, **fields) -> None:
        """Emit a protocol trace event attributed to this node."""
        self.tracer.emit(category, self.name, message, **fields)

    # ------------------------------------------------------------------
    # Handler continuations
    # ------------------------------------------------------------------
    def charge(self, service_time: float, then: Callable[..., None],
               *args: Any) -> Charge:
        """Charge ``service_time`` seconds of CPU — a core taken or
        queued for FIFO, held, released — then call ``then(*args)``, iff
        the node is still in the incarnation that charged.  Returns the
        charge, for :meth:`queued`."""
        return Charge(self.cpu, service_time, self._resume,
                      self.incarnation, then, args)

    def queued(self, charge: Charge) -> Optional[Charge]:
        """``charge`` — as :meth:`charge` returned it — while it still
        waits for a core: queued behind every core busy, its hold not
        begun, so time added to its ``service_time`` is held too.  None
        once it is granted (at once with a core free)."""
        cpu = self.cpu
        if cpu._in_use < cpu.capacity or charge not in cpu._queue:
            return None
        return charge

    def guarded(self, then: Callable[..., None],
                *args: Any) -> Callable[[], None]:
        """``then(*args)`` as a completion callback (a force's, a
        commit's, a timer's): it runs iff the node is still in this
        incarnation."""
        return partial(self._resume, self.incarnation, then, args)

    def after(self, event: Event, then: Callable[..., None],
              *args: Any) -> None:
        """Call ``then(*args)`` once ``event`` has succeeded (at once if
        it has), iff the node is still in this incarnation."""
        resume = self.guarded(then, *args)
        callbacks = event._callbacks        # Event.add_callback, in place
        if callbacks is None:
            resume(event)
        else:
            callbacks.append(resume)

    def _resume(self, incarnation: int, then: Callable[..., None],
                args: tuple, event: Optional[Event] = None) -> None:
        """Enter a parked continuation.  One that outlived its
        incarnation is dropped, as a crash kills a process; one that
        raises is a failure of this node, as a process dying of a bug
        is, and the run goes on."""
        if incarnation != self.incarnation or not self.alive:
            return
        if event is not None and not event._ok:
            self.failures.append(event._value)      # the wait itself failed
            return
        try:
            then(*args)
        except Exception as err:  # noqa: BLE001 - recorded, like a process's
            self.failures.append(err)

    def charge_background(self, cpu_time: float) -> None:
        """Charge asynchronous CPU work (memtable applies etc.).  It
        takes its core one kernel step on — URGENT, now — where a
        background process would have taken its first step."""
        if cpu_time > 0:
            self.sim.schedule(0.0, partial(
                self._resume, self.incarnation, Charge,
                (self.cpu, cpu_time, _nothing)), URGENT)

    # ------------------------------------------------------------------
    # Dispatch and lifecycle
    # ------------------------------------------------------------------
    def _dispatch(self, req: Request) -> None:
        """Deliver one message: its handler runs here, as a function.
        One that raises is a failure of this node, as in ``_resume``."""
        handler = self._handlers.get(type(req.payload))
        if handler is not None:
            try:
                handler(req)
            except Exception as err:  # noqa: BLE001 - recorded, as above
                self.failures.append(err)

    def boot(self) -> None:
        """Start (or restart) the node: a fresh incarnation with every
        core free (a hold left from before a crash releases the old
        pool), ``_on_boot``, then endpoint and log device back up."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        self.cpu = Resource(self.sim, capacity=CORES_PER_NODE)
        self.trace("node", "boot", incarnation=self.incarnation)
        self._on_boot()
        self.endpoint.restart()
        self.device.restart()

    def _on_boot(self) -> None:
        """What the store redoes at boot, before the endpoint delivers."""

    def restart(self) -> None:
        self.boot()

    def crash(self) -> None:
        """Fail-stop: kill every process, orphan every continuation, take
        endpoint and log device down and drop the log's volatile tail."""
        if not self.alive:
            return
        self.alive = False
        self.trace("node", "crash")
        self.supervisor.kill_all()
        self.endpoint.crash()
        self.device.crash()
        self.wal.crash()


class SpinnakerNode(NodeHost):
    """One server in the cluster."""

    def __init__(self, sim: Simulator, network: Network, rng: RngRegistry,
                 name: str, partitioner: RangePartitioner,
                 config: SpinnakerConfig, coord_name: str = "coord",
                 tracer=None, request_tracer=None):
        from ..obs.trace import NullRequestTracer
        super().__init__(sim, network, name, partitioner, config,
                         LogDevice(sim, rng, f"{name}-log",
                                   profile=config.log_profile,
                                   group_commit=config.group_commit),
                         tracer)
        self.request_tracer = (request_tracer if request_tracer is not None
                               else NullRequestTracer())
        self.coord_name = coord_name
        self.rng_stream = rng.stream(f"node:{name}")
        self.replicas: Dict[int, CohortReplica] = {
            cohort.cohort_id: CohortReplica(self, cohort)
            for cohort in partitioner.cohorts_of_node(name)
        }
        self.zk: Optional[CoordClient] = None
        self.session_losses = 0
        self._handlers.update({
            dict: self._on_coord_event,
            GetCohortMap: self._on_get_cohort_map,
            MigrationPrepare: self._handle_migration_prepare,
        })
        #: cohort-addressed message type (a client operation is one: it
        #: carries the cohort it was routed to) -> ``handler(replica,
        #: req)`` (a replica's own method where the message is all its)
        self._cohort_handlers = {
            ClientGet: CohortReplica.handle_get,
            ClientWrite: CohortReplica.handle_client_write,
            Propose: CohortReplica.handle_propose,
            Commit: self._on_commit,
            ClientScan: CohortReplica.handle_scan,
            CatchupChunk: self._on_catchup_chunk,
            CatchupRequest: self._on_catchup_request,
            TakeoverState: self._on_takeover_state,
            MigrationStart: self._on_migration_start,
        }
        self._monitors: Dict[int, Process] = {}
        #: ledger of catch-up chunks this node served as leader; chaos
        #: schedules assert resume behaviour (nothing re-shipped below a
        #: restarted follower's durable floor)
        self.catchup_served: deque = deque(maxlen=256)

    # ------------------------------------------------------------------
    # Engines & helpers
    # ------------------------------------------------------------------
    def make_engine(self, cohort_id: int) -> StorageEngine:
        return StorageEngine(
            cohort_id, flush_threshold_bytes=self.config.
            flush_threshold_bytes)

    def n_lst(self, cohort_id: int) -> LSN:
        """The node's 'last LSN' advertised in elections.  When the log
        rolled over (or the node caught up via shipped SSTables) the
        checkpoint dominates the log tail."""
        replica = self.replicas[cohort_id]
        return max(self.wal.last_lsn(cohort_id),
                   replica.engine.checkpoint_lsn)

    def replica_for_key(self, key: bytes) -> Optional[CohortReplica]:
        cohort = self.partitioner.locate(key)
        return self.replicas.get(cohort.cohort_id)

    def maybe_flush(self, replica: CohortReplica) -> None:
        """Flush the replica's memtable once it crosses the threshold;
        checkpoint durably, then roll over the covered log records."""
        engine = replica.engine
        if not engine.needs_flush() or replica._flushing:
            return
        replica._flushing = True

        def _flush():
            try:
                ckpt = engine.flush()
                if ckpt is None:
                    return
                ev = self.wal.append(CheckpointRecord(
                    lsn=ckpt, cohort_id=replica.cohort_id,
                    checkpoint_lsn=ckpt), force=True)
                if ev is not None:
                    yield ev
                dropped = self.wal.gc_through(replica.cohort_id, ckpt)
                self.trace("storage", "flush",
                           cohort=replica.cohort_id,
                           checkpoint=str(ckpt), log_records_gcd=dropped)
            finally:
                replica._flushing = False

        self.spawn(_flush(), f"flush-{replica.cohort_id}")

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def on_membership_commit(self, record) -> None:
        """A membership-change record committed at one of this node's
        replicas (any observation path): switch the map, reconcile."""
        apply_membership_record(self, record)

    def create_replica(self, cohort: Cohort) -> CohortReplica:
        """Instantiate an empty replica (a joiner; catch-up fills it)."""
        replica = CohortReplica(self, cohort)
        self.replicas[cohort.cohort_id] = replica
        self._ensure_monitor(replica)
        return replica

    def create_split_replica(self, cohort: Cohort, source: CohortReplica,
                             horizon: LSN) -> CohortReplica:
        """Seed a child-cohort replica from the parent's local storage.

        Every cell at or below ``horizon`` (the membership record's LSN)
        moves over inside one filtered SSTable; the child's WAL view is
        GC'd through the horizon so its log starts strictly above the
        snapshot and catch-up for later joiners ships SSTables rather
        than a log prefix it does not have.
        """
        replica = CohortReplica(self, cohort)
        table = build_split_snapshot(source.engine, cohort,
                                     self.partitioner.key_mapper)
        if table is not None:
            replica.engine.ingest_sstable(table)
        self.wal.gc_through(cohort.cohort_id, horizon)
        # Best-effort restart hints; if lost, catch-up re-ships the
        # tables.  The catch-up marker lets a restart resume from the
        # seeded horizon instead of re-installing the snapshot.
        self.wal.append(CommitMarker(lsn=horizon,
                                     cohort_id=cohort.cohort_id,
                                     committed_lsn=horizon), force=False)
        self.wal.append(CatchupMarker(lsn=horizon,
                                      cohort_id=cohort.cohort_id,
                                      floor=horizon), force=False)
        replica.committed_lsn = horizon
        replica.epoch = horizon.epoch
        replica.next_seq = horizon.seq + 1
        replica.catchup_floor = horizon
        self.replicas[cohort.cohort_id] = replica
        self.trace("rebalance", "split replica seeded",
                   cohort=cohort.cohort_id, horizon=str(horizon),
                   rows=0 if table is None else len(table.keys()))
        self._ensure_monitor(replica)
        return replica

    def retire_replica(self, replica: CohortReplica) -> None:
        """This node lost its seat in the cohort: drop the replica and
        release any election znodes our live session still owns (they
        are ephemeral, but our session is healthy — nobody would expire
        them for us)."""
        cid = replica.cohort_id
        self.trace("rebalance", "retiring replica", cohort=cid,
                   role=replica.role)
        self.replicas.pop(cid, None)
        monitor = self._monitors.pop(cid, None)
        if monitor is not None and monitor.is_alive:
            monitor.interrupt("retired")
        candidate_path = replica.candidate_path
        replica.step_down()
        replica.role = Role.OFFLINE
        if self.alive and self.zk is not None:
            self.spawn(self._release_cohort_znodes(self.zk, cid,
                                                   candidate_path),
                       f"retire-{cid}")

    def _release_cohort_znodes(self, zk: CoordClient, cohort_id: int,
                               candidate_path: Optional[str]):
        root = cohort_zk_path(cohort_id)
        try:
            if candidate_path is not None:
                yield from zk.delete(candidate_path)
            data, _ = yield from zk.get(f"{root}/leader")
            if data == self.name.encode():
                yield from zk.delete(f"{root}/leader")
        except CoordError:
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _on_boot(self) -> None:
        """Reset the replicas — before the endpoint delivers: a push
        still retrying from before the crash may land ahead of
        ``_startup``, and what it teaches must not be wiped after — and
        start ``_startup`` on a fresh coordination session."""
        for replica in self.replicas.values():
            replica.prepare_restart()
        self.zk = CoordClient(self.sim, self.endpoint,
                              service=self.coord_name,
                              session_timeout=self.config.session_timeout)
        self.zk.on_session_loss = self._on_session_loss
        self.spawn(self._startup(), "startup")

    def _startup(self):
        zk = self.zk
        yield from self._open_session(zk)
        # The shared map may have moved while we were down: shed cohorts
        # we no longer belong to, refresh the rest, instantiate empty
        # replicas for new seats (catch-up fills them in).
        self._reconcile_replicas()
        # Local recovery (§6.1 phase 1): all cohorts share one log scan in
        # the real system; we recover them in turn, charging the same CPU.
        for cid in sorted(self.replicas):
            replica = self.replicas.get(cid)
            if replica is None:      # retired by a replayed map change
                continue
            yield from local_recovery(replica)
        yield from self._rejoin(zk)

    def _reconcile_replicas(self) -> None:
        for cid in sorted(self.replicas):
            cohort = self.partitioner.cohort_or_none(cid)
            if cohort is None or self.name not in cohort.members:
                self.trace("rebalance", "dropping retired replica",
                           cohort=cid)
                del self.replicas[cid]
                monitor = self._monitors.pop(cid, None)
                if monitor is not None and monitor.is_alive:
                    monitor.interrupt("retired")
            else:
                self.replicas[cid].cohort = cohort
        for cohort in self.partitioner.cohorts_of_node(self.name):
            if cohort.cohort_id not in self.replicas:
                self.trace("rebalance", "adopting cohort from map",
                           cohort=cohort.cohort_id)
                self.replicas[cohort.cohort_id] = CohortReplica(self,
                                                                cohort)

    def _spawn_monitors(self) -> None:
        for cid in sorted(self.replicas):
            self._ensure_monitor(self.replicas[cid])

    def _ensure_monitor(self, replica: CohortReplica) -> None:
        """Spawn the replica's leader monitor unless one is running."""
        if not self.alive or self.zk is None:
            return
        cid = replica.cohort_id
        existing = self._monitors.get(cid)
        if existing is not None and existing.is_alive:
            return
        self._monitors[cid] = self.spawn(leader_monitor(replica),
                                         f"monitor-{cid}")

    def _on_session_loss(self, zk: CoordClient) -> None:
        """Our coordination session ended (expired, lease ran out, or a
        message on it was lost) while the node itself is fine.  Its
        ephemerals are gone or going, so any leadership is forfeit *now*:
        step every replica down before a rival leader can serve, then
        rejoin on a fresh session (§7.2).  The client stops the old one
        next, failing its pending calls (PROTOCOL.md)."""
        if not self.alive or self.zk is not zk:
            return
        self.session_losses += 1
        self.trace("node", "session lost; stepping down")
        for cid in sorted(self._monitors):
            proc = self._monitors[cid]
            if proc.is_alive:
                proc.interrupt("session-loss")
        self._monitors = {}
        # lint: allow(dict-order) — replicas inserted in partitioner order
        for replica in self.replicas.values():
            replica.step_down()
        self.zk = CoordClient(self.sim, self.endpoint,
                              service=self.coord_name,
                              session_timeout=self.config.session_timeout)
        self.zk.on_session_loss = self._on_session_loss
        self.spawn(self._rejoin(self.zk), "rejoin")

    def _open_session(self, zk: CoordClient):
        """``yield from`` me: open ``zk``'s session, retrying at the
        ``ELECTION_RETRY`` pace while the coordination service is out of
        reach — a boot or a rejoin inside a partition must outlast it —
        until it is open or ``zk`` is no longer the node's."""
        while self.alive and self.zk is zk:
            try:
                yield from zk.start(
                    rpc_timeout=self.config.session_timeout)
                return
            except (RpcTimeout, CoordError):
                yield sim_timeout(self.sim, ELECTION_RETRY)

    def _rejoin(self, zk: CoordClient):
        """``yield from`` me: open ``zk``'s session, join the group and
        spawn the monitors, retrying until done or ``zk`` is no longer
        the node's (a join on an ended session fails at once)."""
        while self.alive and self.zk is zk:
            yield from self._open_session(zk)
            try:
                yield from GroupMembership(zk, "/nodes", self.name).join()
            except CoordError:
                # Our old ephemerals linger until the previous session
                # expires server-side (or this one ended); retry.
                yield sim_timeout(self.sim, ELECTION_RETRY)
                continue
            self._spawn_monitors()
            return

    def crash(self) -> None:
        """Fail-stop; the session and every replica's volatile state go
        too."""
        if not self.alive:
            return
        super().crash()
        self._monitors = {}
        if self.zk is not None:
            self.zk.stop()
            self.zk = None
        # lint: allow(dict-order) — replicas inserted in partitioner order
        for replica in self.replicas.values():
            replica.crash()
        # Sweep any request spans still open here (replica cleanup gets
        # the leader-side write state; this catches the rest) so no
        # trace shows work continuing on a dead machine.
        self.request_tracer.truncate_node(self.name)

    def lose_disk(self) -> None:
        """Media failure: wipe log and SSTables, then restart from
        nothing — recovery goes straight to catch-up (§6.1)."""
        self.crash()
        self.trace("node", "disk-loss")
        self.wal.wipe()
        for replica in self.replicas.values():
            replica.engine.wipe()
            replica.catchup_floor = LSN.zero()
        self.boot()

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, req: Request) -> None:
        """``NodeHost._dispatch`` that routes a cohort-addressed message
        to its replica.  (The processes a handler starts begin *inline*:
        their spawn is the delivery callback's last act — see
        ``Supervisor.spawn``.)"""
        payload = req.payload
        kind = type(payload)
        handler = self._cohort_handlers.get(kind)
        if handler is None:
            super()._dispatch(req)
            return
        try:
            if ((kind is ClientGet or kind is ClientWrite)
                    and payload.map_version != self.partitioner.version):
                # Routed on another layout (or by hand, on none): equal
                # versions mean equal layouts, anything else says
                # nothing about where the key lives now.
                replica = self.replica_for_key(payload.key)
            else:
                replica = self.replicas.get(payload.cohort_id)
            if replica is not None:
                handler(replica, req)
            elif kind in _ANSWERS_WRONG_NODE:
                self.wrong_node(req)
        except Exception as err:  # noqa: BLE001 - recorded, like a process's
            self.failures.append(err)

    def wrong_node(self, req: Request) -> None:
        """Tell the sender its map cannot route this, and how new ours
        is (it refreshes when that is newer than its own)."""
        req.respond({"ok": False, "code": "wrong-node",
                     "map_version": self.partitioner.version}, size=64)

    def _on_coord_event(self, req: Request) -> None:
        payload = req.payload
        if payload.get("op") == "watch-event" and self.zk is not None:
            self.zk.handle_watch_message(payload)

    def _on_get_cohort_map(self, req: Request) -> None:
        snapshot = self.partitioner.snapshot()
        req.respond({"ok": True, "map": snapshot},
                    size=64 + 48 * len(snapshot))

    def _on_commit(self, replica: CohortReplica, req: Request) -> None:
        replica.handle_commit(req.src, req.payload)

    def _on_catchup_chunk(self, replica: CohortReplica,
                          req: Request) -> None:
        self.spawn(self._handle_catchup_chunk(req, replica),
                   "catchup-chunk", True)

    def _on_catchup_request(self, replica: CohortReplica,
                            req: Request) -> None:
        """A RECOVERING peer asks to be caught up (§6.1).  A push
        already streaming to it is the answer, and a leader still in
        takeover pushes to every peer itself."""
        follower = req.payload.follower
        if (replica.is_leader and replica.open_for_writes
                and follower not in replica.catching_up):
            self.spawn(try_push_catchup(replica, (follower,)),
                       "catchup-push", True)

    def _on_takeover_state(self, replica: CohortReplica,
                           req: Request) -> None:
        if req.payload.epoch >= replica.epoch:
            replica.epoch = req.payload.epoch
        req.respond({"cmt": replica.committed_lsn,
                     "floor": replica.catchup_floor}, size=64)

    def _on_migration_start(self, replica: CohortReplica,
                            req: Request) -> None:
        self.spawn(handle_migration_start(replica, req), "migration", True)

    def _handle_migration_prepare(self, req: Request) -> None:
        """Instantiate (or refresh) a replica ahead of a membership
        switch.  Idempotent: an existing replica only has its cohort
        definition refreshed.  When the shared map already includes this
        node for the cohort we trust the map over the (possibly older)
        message payload."""
        payload = req.payload
        cid = payload.cohort.cohort_id
        current = self.partitioner.cohort_or_none(cid)
        definition = (current if current is not None
                      and self.name in current.members else payload.cohort)
        replica = self.replicas.get(cid)
        if replica is None:
            replica = self.create_replica(definition)
            if payload.base_epoch > replica.epoch:
                replica.epoch = payload.base_epoch
            self.trace("rebalance", "prepared joining replica",
                       cohort=cid, base_epoch=payload.base_epoch)
        else:
            replica.cohort = definition
        req.respond({"ok": True, "cmt": replica.committed_lsn}, size=64)

    def _handle_catchup_chunk(self, req: Request, replica: CohortReplica):
        """Follower side of ``push_catchup``: ingest one pushed chunk
        and report the new cursor; the final page promotes us."""
        chunk: CatchupChunk = req.payload
        if chunk.epoch < replica.epoch:
            req.respond("stale", size=32)
            return
        leader_before = replica.leader
        tracer = self.request_tracer
        span = None
        if chunk.trace is not None and chunk.sstables:
            span = tracer.start(chunk.trace, "snapshot_install", self.name,
                                tables=len(chunk.sstables))
        yield from ingest_catchup(replica, chunk)
        if span is not None:
            tracer.finish(span, floor=str(replica.catchup_floor))
        if chunk.final:
            # Re-validate before adopting: the ingest yielded on disk
            # forces, and meanwhile an election may have promoted us or
            # named a different leader, or a newer epoch reached us —
            # clobbering that with a stale FOLLOWER/leader pair would
            # fork the cohort's view.
            if (chunk.epoch < replica.epoch or replica.role is Role.LEADER
                    or replica.leader not in (leader_before, req.src)):
                self.trace("catchup", "discarding stale catch-up result",
                           cohort=replica.cohort_id, against=req.src,
                           leader=replica.leader)
                req.respond("stale", size=32)
                return
            if replica.role in (Role.RECOVERING, Role.CANDIDATE):
                replica.role = Role.FOLLOWER
            replica.set_leader(req.src)
            replica.accepted_epoch = chunk.epoch
        req.respond({"cmt": replica.committed_lsn,
                     "floor": replica.catchup_floor}, size=64)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        roles = {cid: r.role for cid, r in self.replicas.items()}
        return f"SpinnakerNode({self.name}, alive={self.alive}, {roles})"
