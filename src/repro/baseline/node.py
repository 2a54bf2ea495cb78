"""A node of the eventually consistent baseline store.

Every node is a replica for three key ranges (same chained-declustering
placement as Spinnaker) and can coordinate any request for a key it
replicates.  The write path matches Cassandra's, as the paper describes
it (§9): a write is sent to **all** replicas; a *weak* write returns
after 1 replica has logged it durably, a *quorum* write after 2.  Reads:
*weak* touches 1 replica; *quorum* reads 2 replicas, resolves conflicts
by timestamp (last write wins), and repairs stale replicas in the
background.

There is deliberately **no** leader, no LSN ordering across replicas, and
no quorum-based recovery — the gaps the paper contrasts with Spinnaker:
concurrent writes through different coordinators can conflict, and a
restarted replica serves whatever its local log held plus whatever hints
or read repairs happen to reach it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from ..sim.disk import LogDevice
from ..sim.events import Event, Simulator
from ..sim.network import Network, Request, RpcTimeout
from ..sim.process import Supervisor, all_of, quorum, timeout
from ..sim.resources import Resource, serve
from ..sim.rng import RngRegistry
from ..storage.engine import StorageEngine
from ..storage.lsn import LSN
from ..storage.memtable import timestamp_order
from ..storage.records import WriteRecord
from ..storage.wal import SharedLog
from .config import (CONFLICT_CHECK_SERVICE, FLUSH_THRESHOLD_BYTES,
                     RPC_TIMEOUT, WRITE_COORDINATOR_SERVICE,
                     WRITE_REPLICA_SERVICE, CassandraConfig)
from .messages import (CoordRead, CoordWrite, ReplicaRead,
                       ReplicaReadResult, ReplicaWrite)
from ..core.config import CORES_PER_NODE, READ_SERVICE
from ..core.partition import RangePartitioner, key_of

__all__ = ["CassandraNode"]


class CassandraNode:
    """One baseline server."""

    def __init__(self, sim: Simulator, network: Network, rng: RngRegistry,
                 name: str, partitioner: RangePartitioner,
                 config: CassandraConfig):
        self.sim = sim
        self.network = network
        self.name = name
        self.partitioner = partitioner
        self.config = config
        self.endpoint = network.endpoint(name)
        self.endpoint.on_request(self._dispatch)
        self.cpu = Resource(sim, capacity=CORES_PER_NODE)
        self.device = LogDevice(sim, rng, f"{name}-clog",
                                profile=config.log_profile)
        self.wal = SharedLog(self.device)
        self.engines: Dict[int, StorageEngine] = {
            cohort.cohort_id: StorageEngine(
                cohort.cohort_id,
                flush_threshold_bytes=FLUSH_THRESHOLD_BYTES,
                order=timestamp_order)
            for cohort in partitioner.cohorts_of_node(name)
        }
        self._local_seq: Dict[int, int] = {gid: 0 for gid in self.engines}
        self._coord_seq = itertools.count(1)
        self.alive = True
        #: hints awaiting replay: replica name -> list of ReplicaWrite
        self.hints: Dict[str, List[ReplicaWrite]] = {}
        #: peers suspected down (name -> suspicion expiry time)
        self.suspected: Dict[str, float] = {}
        #: handler processes, killed on crash (as in SpinnakerNode)
        self.supervisor = Supervisor(sim, name)
        self.spawn_proc = self.supervisor.spawn
        self.failures = self.supervisor.failures
        self.writes_coordinated = 0
        self.reads_coordinated = 0
        self.read_repairs = 0
        self.spawn_proc(self._hint_replayer(), "hints")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self.supervisor.kill_all()
        self.endpoint.crash()
        self.device.crash()
        self.wal.crash()
        # lint: allow(dict-order) — engines inserted in partitioner order
        for engine in self.engines.values():
            engine.crash()

    def restart(self) -> None:
        if self.alive:
            return
        self.alive = True
        self.endpoint.restart()
        self.device.restart()
        # Local recovery: replay the whole surviving log — every logged
        # write applies (there is no commit concept to wait for).
        for gid, engine in self.engines.items():
            for record in self.wal.write_records(
                    gid, after=engine.checkpoint_lsn):
                engine.apply(record)
            if self.wal.last_lsn(gid).seq >= self._local_seq.get(gid, 0):
                self._local_seq[gid] = self.wal.last_lsn(gid).seq
        self.spawn_proc(self._hint_replayer(), "hints")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, req: Request) -> None:
        payload = req.payload
        # Last act of the delivery callback: start inline (Supervisor.spawn)
        if isinstance(payload, CoordWrite):
            self.spawn_proc(self._coordinate_write(req), "coord-write", True)
        elif isinstance(payload, CoordRead):
            self.spawn_proc(self._coordinate_read(req), "coord-read", True)
        elif isinstance(payload, ReplicaWrite):
            self.spawn_proc(self._replica_write(req), "replica-write", True)
        elif isinstance(payload, ReplicaRead):
            self.spawn_proc(self._replica_read(req), "replica-read", True)

    def _group_for(self, key: bytes):
        return self.partitioner.cohort_for_key(key_of(key))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _coordinate_write(self, req: Request):
        cfg = self.config
        msg: CoordWrite = req.payload
        group = self._group_for(msg.key)
        if group.cohort_id not in self.engines:
            req.respond({"ok": False, "code": "wrong-node"}, size=64)
            return
        yield from serve(self.cpu, WRITE_COORDINATOR_SERVICE)
        rwrite = ReplicaWrite(
            group_id=group.cohort_id, key=msg.key, colname=msg.colname,
            value=msg.value, timestamp=self.sim.now,
            seq=next(self._coord_seq), tombstone=msg.tombstone)
        size = 96 + (len(msg.value) if msg.value else 0)
        acks: List[Event] = []
        for member in group.members:
            if member == self.name:
                acks.append(self.spawn_proc(
                    self._apply_write_locally(rwrite), "local-write"))
            else:
                acks.append(self.endpoint.request(member, rwrite,
                                                  size=size))
        needed = cfg.acks_for(msg.consistency)
        win = quorum(self.sim, acks, need=needed)
        # Hinted handoff for laggards/failures runs regardless.
        self.spawn_proc(self._hint_watch(group.members, acks, rwrite),
                        "hint-watch")
        try:
            yield win
        except Exception:
            req.respond({"ok": False, "code": "unavailable"}, size=64)
            return
        self.writes_coordinated += 1
        req.respond({"ok": True, "timestamp": rwrite.timestamp}, size=64)

    def _apply_write_locally(self, rwrite: ReplicaWrite):
        """The coordinator is itself a replica: log + apply, no network."""
        yield from serve(self.cpu, WRITE_REPLICA_SERVICE)
        yield from self._log_and_apply(rwrite)
        return self.name

    def _replica_write(self, req: Request):
        yield from serve(self.cpu, WRITE_REPLICA_SERVICE)
        yield from self._log_and_apply(req.payload)
        req.respond(self.name, size=48)

    def _log_and_apply(self, rwrite: ReplicaWrite):
        gid = rwrite.group_id
        if gid not in self.engines:
            return
        self._local_seq[gid] = self._local_seq.get(gid, 0) + 1
        record = WriteRecord(
            lsn=LSN(1, self._local_seq[gid]), cohort_id=gid,
            key=rwrite.key, colname=rwrite.colname, value=rwrite.value,
            version=rwrite.seq, timestamp=rwrite.timestamp,
            tombstone=rwrite.tombstone)
        ev = self.wal.append(record, force=True)
        if ev is not None:
            yield ev
        self.engines[gid].apply(record)

    def _hint_watch(self, members, acks, rwrite: ReplicaWrite):
        """Store a hint for any replica that has not acked in time."""
        cfg = self.config
        yield timeout(self.sim, cfg.hint_timeout)
        for member, ack in zip(members, acks):
            # a still-pending ack stays pending; the hint covers the data
            if not ack._ok and member != self.name:
                self.hints.setdefault(member, []).append(rwrite)

    def _hint_replayer(self):
        cfg = self.config
        while True:
            yield timeout(self.sim, cfg.hint_replay_interval)
            for member in list(self.hints):
                pending = self.hints.pop(member, [])
                still_failed: List[ReplicaWrite] = []
                for rwrite in pending:
                    try:
                        yield self.endpoint.request(
                            member, rwrite,
                            size=96 + (len(rwrite.value)
                                       if rwrite.value else 0),
                            timeout=RPC_TIMEOUT)
                    except RpcTimeout:
                        still_failed.append(rwrite)
                if still_failed:
                    self.hints.setdefault(member, []).extend(still_failed)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _coordinate_read(self, req: Request):
        cfg = self.config
        msg: CoordRead = req.payload
        group = self._group_for(msg.key)
        if group.cohort_id not in self.engines:
            req.respond({"ok": False, "code": "wrong-node"}, size=64)
            return
        needed = cfg.reads_for(msg.consistency)
        if needed == 1:
            # Weak read: serve purely locally.
            result = yield from self._local_read(group.cohort_id, msg)
            self.reads_coordinated += 1
            req.respond(self._as_reply(result),
                        size=64 + (len(result.value)
                                   if result.value else 0))
            return
        # Quorum read: local + (needed - 1) remote replicas in parallel,
        # then a conflict check over the responses (§9.1).  Remote
        # replicas are chosen live-first (suspicion from recent
        # timeouts), with fallback to the third replica on timeout.
        local_proc = self.spawn_proc(
            self._local_read_proc(group.cohort_id, msg), "local-read")
        rread = ReplicaRead(group_id=group.cohort_id, key=msg.key,
                            colname=msg.colname)
        others = [m for m in group.members if m != self.name]
        remote_proc = self.spawn_proc(
            self._remote_reads(others, rread, needed - 1), "remote-read")
        pair = yield all_of(self.sim, [local_proc, remote_proc])
        local_result, remote_results = pair
        if remote_results is None:
            req.respond({"ok": False, "code": "unavailable"}, size=64)
            return
        results = [local_result] + remote_results
        yield from serve(self.cpu, CONFLICT_CHECK_SERVICE)
        best = max(results, key=lambda r: (r.found, r.timestamp, r.seq))
        self._maybe_read_repair(group, msg, results, best)
        self.reads_coordinated += 1
        req.respond(self._as_reply(best),
                    size=64 + (len(best.value) if best.value else 0))

    def _remote_reads(self, others: List[str], rread: ReplicaRead,
                      count: int):
        """Read from ``count`` remote replicas, live-first with fallback.

        Returns the list of results, or None if a quorum of remote
        replicas is unreachable.
        """
        now = self.sim.now
        ordered = sorted(others,
                         key=lambda m: self.suspected.get(m, 0.0) > now)
        results: List[ReplicaReadResult] = []
        for member in ordered:
            if len(results) >= count:
                break
            try:
                result = yield self.endpoint.request(
                    member, rread, size=96, timeout=RPC_TIMEOUT)
            except RpcTimeout:
                self.suspected[member] = self.sim.now + 10.0
                continue
            results.append(result)
        if len(results) < count:
            return None
        return results

    def _local_read(self, gid: int, msg):
        yield from serve(self.cpu, READ_SERVICE)
        return self._read_cell(gid, msg.key, msg.colname)

    def _local_read_proc(self, gid: int, msg):
        result = yield from self._local_read(gid, msg)
        return result

    def _replica_read(self, req: Request):
        msg: ReplicaRead = req.payload
        yield from serve(self.cpu, READ_SERVICE)
        result = self._read_cell(msg.group_id, msg.key, msg.colname)
        req.respond(result,
                    size=64 + (len(result.value) if result.value else 0))

    def _read_cell(self, gid: int, key: bytes,
                   colname: bytes) -> ReplicaReadResult:
        engine = self.engines.get(gid)
        cell = engine.get(key, colname) if engine is not None else None
        if cell is None:
            return ReplicaReadResult(value=None, timestamp=-1.0, seq=0,
                                     tombstone=False, found=False,
                                     replica=self.name)
        return ReplicaReadResult(value=cell.value, timestamp=cell.timestamp,
                                 seq=cell.version,
                                 tombstone=cell.tombstone,
                                 found=not cell.tombstone,
                                 replica=self.name)

    def _maybe_read_repair(self, group, msg: CoordRead, results,
                           best) -> None:
        """Push the winning value to replicas that returned stale data."""
        if not best.found:
            return
        stale = [r for r in results
                 if (r.timestamp, r.seq) < (best.timestamp, best.seq)]
        if not stale:
            return
        self.read_repairs += 1
        repair = ReplicaWrite(
            group_id=group.cohort_id, key=msg.key, colname=msg.colname,
            value=best.value, timestamp=best.timestamp, seq=best.seq,
            tombstone=best.tombstone)
        size = 96 + (len(best.value) if best.value else 0)
        for r in stale:
            if r.replica == self.name:
                self.spawn_proc(self._apply_write_locally(repair),
                                "read-repair")
            else:
                self.endpoint.send(r.replica, repair, size=size)

    def _as_reply(self, result: ReplicaReadResult) -> Dict:
        return {"ok": True, "found": result.found, "value": result.value,
                "timestamp": result.timestamp}
