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

It runs on Spinnaker's :class:`~repro.core.node.NodeHost`, with handlers
that are functions as Spinnaker's are; the hint replayer is its one process.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Dict, List, Optional

from ..sim.disk import LogDevice
from ..sim.events import Event, Simulator
from ..sim.network import Network, Request, RpcTimeout
from ..sim.process import timeout
from ..sim.rng import RngRegistry
from ..storage.engine import StorageEngine
from ..storage.lsn import LSN
from ..storage.memtable import timestamp_order
from ..storage.records import WriteRecord
from .config import (CONFLICT_CHECK_SERVICE, FLUSH_THRESHOLD_BYTES,
                     RPC_TIMEOUT, WRITE_COORDINATOR_SERVICE,
                     WRITE_REPLICA_SERVICE, CassandraConfig)
from .messages import (CoordRead, CoordWrite, ReplicaRead,
                       ReplicaReadResult, ReplicaWrite)
from ..core.config import READ_SERVICE
from ..core.node import NodeHost
from ..core.partition import Cohort, RangePartitioner, key_of

__all__ = ["CassandraNode"]


class _QuorumRead:
    """A quorum read in flight: the local replica's answer and the
    remote ones, asked one at a time, live replicas first."""

    __slots__ = ("req", "rread", "to_ask", "need", "remote", "local",
                 "parts_left")

    def __init__(self, req: Request, rread: ReplicaRead, to_ask: List[str],
                 need: int):
        self.req = req
        self.rread = rread
        self.to_ask = to_ask
        self.need = need
        self.remote: List[ReplicaReadResult] = []
        self.local: Optional[ReplicaReadResult] = None
        self.parts_left = 2             # the local read, the remote ones


class CassandraNode(NodeHost):
    """One baseline server."""

    def __init__(self, sim: Simulator, network: Network, rng: RngRegistry,
                 name: str, partitioner: RangePartitioner,
                 config: CassandraConfig):
        super().__init__(sim, network, name, partitioner, config,
                         LogDevice(sim, rng, f"{name}-clog",
                                   profile=config.log_profile))
        self.engines: Dict[int, StorageEngine] = {
            cohort.cohort_id: StorageEngine(
                cohort.cohort_id,
                flush_threshold_bytes=FLUSH_THRESHOLD_BYTES,
                order=timestamp_order)
            for cohort in partitioner.cohorts_of_node(name)
        }
        self._local_seq: Dict[int, int] = {gid: 0 for gid in self.engines}
        self._coord_seq = itertools.count(1)
        #: hints awaiting replay: replica name -> list of ReplicaWrite
        self.hints: Dict[str, List[ReplicaWrite]] = {}
        #: peers suspected down (name -> suspicion expiry time)
        self.suspected: Dict[str, float] = {}
        self.writes_coordinated = 0
        self.reads_coordinated = 0
        self.read_repairs = 0
        self._handlers.update({
            CoordWrite: self._coordinate_write,
            CoordRead: self._coordinate_read,
            ReplicaWrite: self._replica_write,
            ReplicaRead: self._replica_read,
        })
        self.boot()         # no coordination service: serve at once

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _on_boot(self) -> None:
        """Local recovery: replay the whole surviving log — every logged
        write applies (there is no commit concept to wait for)."""
        for gid, engine in self.engines.items():
            for record in self.wal.write_records(
                    gid, after=engine.checkpoint_lsn):
                engine.apply(record)
            self._local_seq[gid] = max(self._local_seq[gid],
                                       self.wal.last_lsn(gid).seq)
        self.spawn(self._hint_replayer(), "hints")

    def crash(self) -> None:
        if not self.alive:
            return
        super().crash()
        # lint: allow(dict-order) — engines inserted in partitioner order
        for engine in self.engines.values():
            engine.crash()

    def _group_for(self, key: bytes) -> Cohort:
        return self.partitioner.cohort_for_key(key_of(key))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _coordinate_write(self, req: Request) -> None:
        group = self._group_for(req.payload.key)
        if group.cohort_id not in self.engines:
            req.respond({"ok": False, "code": "wrong-node"}, size=64)
            return
        self.charge(WRITE_COORDINATOR_SERVICE, self._fan_out_write, req,
                    group)

    def _fan_out_write(self, req: Request, group: Cohort) -> None:
        """Send the write to every replica, and reply once as many have
        acked as its consistency level needs."""
        msg: CoordWrite = req.payload
        rwrite = ReplicaWrite(
            group_id=group.cohort_id, key=msg.key, colname=msg.colname,
            value=msg.value, timestamp=self.sim.now,
            seq=next(self._coord_seq), tombstone=msg.tombstone)
        size = 96 + (len(msg.value) if msg.value else 0)
        acked: List[str] = []
        need = self.config.acks_for(msg.consistency)
        ack = partial(self._on_write_ack, req, rwrite, need, acked)
        for member in group.members:
            if member != self.name:
                self.endpoint.request(member, rwrite, size=size,
                                      then=partial(ack, member))
        # This replica's own write takes its core after the sends.
        self._log_and_apply(rwrite, partial(ack, self.name))
        # Hinted handoff for laggards runs regardless.
        self.sim.schedule(self.config.hint_timeout, self.guarded(
            self._hint_laggards, group.members, acked, rwrite))

    def _on_write_ack(self, req: Request, rwrite: ReplicaWrite, need: int,
                      acked: List[str], member: str, _reply=None) -> None:
        acked.append(member)
        if len(acked) == need:
            self.writes_coordinated += 1
            req.respond({"ok": True, "timestamp": rwrite.timestamp},
                        size=64)

    def _hint_laggards(self, members: List[str], acked: List[str],
                       rwrite: ReplicaWrite) -> None:
        """Store a hint for any replica that has not acked in time."""
        for member in members:
            if member not in acked and member != self.name:
                self.hints.setdefault(member, []).append(rwrite)

    def _replica_write(self, req: Request) -> None:
        self._log_and_apply(req.payload,
                            partial(req.respond, self.name, size=48))

    def _log_and_apply(self, rwrite: ReplicaWrite,
                       then: Optional[Callable[[], None]] = None) -> None:
        """This node as one replica of ``rwrite``: log it durably, apply
        it, then ``then()``."""
        self.charge(WRITE_REPLICA_SERVICE, self._append, rwrite, then)

    def _append(self, rwrite: ReplicaWrite,
                   then: Optional[Callable[[], None]]) -> None:
        gid = rwrite.group_id
        self._local_seq[gid] += 1
        record = WriteRecord(
            lsn=LSN(1, self._local_seq[gid]), cohort_id=gid,
            key=rwrite.key, colname=rwrite.colname, value=rwrite.value,
            version=rwrite.seq, timestamp=rwrite.timestamp,
            tombstone=rwrite.tombstone)
        self.wal.append(record, then=self.guarded(self._apply, record,
                                                  then))

    def _apply(self, record: WriteRecord,
               then: Optional[Callable[[], None]]) -> None:
        self.engines[record.cohort_id].apply(record)
        if then is not None:
            then()

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
    def _coordinate_read(self, req: Request) -> None:
        msg: CoordRead = req.payload
        group = self._group_for(msg.key)
        if group.cohort_id not in self.engines:
            req.respond({"ok": False, "code": "wrong-node"}, size=64)
            return
        needed = self.config.reads_for(msg.consistency)
        if needed == 1:
            # Weak read: serve purely locally.
            self.charge(READ_SERVICE, self._reply_local_read, req,
                        group.cohort_id)
            return
        # Quorum read: local + (needed - 1) remote replicas in parallel,
        # then a conflict check over the responses (§9.1).  Remote
        # replicas are chosen live-first (suspicion from recent
        # timeouts), with fallback to the third replica on timeout.
        now = self.sim.now
        others = sorted((m for m in group.members if m != self.name),
                        key=lambda m: self.suspected.get(m, 0.0) > now)
        read = _QuorumRead(req, ReplicaRead(
            group_id=group.cohort_id, key=msg.key, colname=msg.colname),
            others, needed - 1)
        self.charge(READ_SERVICE, self._local_part, read)
        self._ask_next_replica(read)

    def _reply_local_read(self, req: Request, gid: int) -> None:
        result = self._read_cell(gid, req.payload.key, req.payload.colname)
        self.reads_coordinated += 1
        req.respond(self._as_reply(result),
                    size=64 + (len(result.value) if result.value else 0))

    def _local_part(self, read: _QuorumRead) -> None:
        rread = read.rread
        read.local = self._read_cell(rread.group_id, rread.key,
                                     rread.colname)
        self._part_done(read)

    def _ask_next_replica(self, read: _QuorumRead) -> None:
        if len(read.remote) < read.need and read.to_ask:
            member = read.to_ask.pop(0)
            self.endpoint.request(member, read.rread, size=96,
                                  timeout=RPC_TIMEOUT).add_callback(
                partial(self._on_replica_read, read, member))
        else:
            self._part_done(read)

    def _on_replica_read(self, read: _QuorumRead, member: str,
                         answer: Event) -> None:
        """A remote replica answered, or timed out (a crash of our
        endpoint does neither)."""
        if answer._ok:
            read.remote.append(answer._value)
        else:
            self.suspected[member] = self.sim.now + 10.0
        self._ask_next_replica(read)

    def _part_done(self, read: _QuorumRead) -> None:
        read.parts_left -= 1
        if read.parts_left:
            return
        if len(read.remote) < read.need:
            read.req.respond({"ok": False, "code": "unavailable"}, size=64)
            return
        self.charge(CONFLICT_CHECK_SERVICE, self._reply_newest, read)

    def _reply_newest(self, read: _QuorumRead) -> None:
        results = [read.local] + read.remote
        best = max(results, key=lambda r: (r.found, r.timestamp, r.seq))
        repair_here = self._read_repair(read, results, best)
        self.reads_coordinated += 1
        read.req.respond(self._as_reply(best),
                         size=64 + (len(best.value) if best.value else 0))
        if repair_here is not None:     # its core after the reply's send
            self._log_and_apply(repair_here)

    def _replica_read(self, req: Request) -> None:
        self.charge(READ_SERVICE, self._reply_replica_read, req)

    def _reply_replica_read(self, req: Request) -> None:
        msg: ReplicaRead = req.payload
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

    def _read_repair(self, read: _QuorumRead, results, best
                     ) -> Optional[ReplicaWrite]:
        """Push the winning value to remote replicas that returned stale
        data; returns it if this replica is stale too."""
        if not best.found:
            return None
        stale = [r for r in results
                 if (r.timestamp, r.seq) < (best.timestamp, best.seq)]
        if not stale:
            return None
        self.read_repairs += 1
        rread = read.rread
        repair = ReplicaWrite(
            group_id=rread.group_id, key=rread.key, colname=rread.colname,
            value=best.value, timestamp=best.timestamp, seq=best.seq,
            tombstone=best.tombstone)
        size = 96 + (len(best.value) if best.value else 0)
        repair_here = None
        for r in stale:
            if r.replica == self.name:
                repair_here = repair
            else:
                self.endpoint.send(r.replica, repair, size=size)
        return repair_here

    def _as_reply(self, result: ReplicaReadResult) -> Dict:
        return {"ok": True, "found": result.found, "value": result.value,
                "timestamp": result.timestamp}
