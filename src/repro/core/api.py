"""The client API (§3): get / put / delete / conditional variants.

Each call is a single-operation transaction.  ``get`` takes a
``consistent`` flag choosing strong (leader-routed, always latest) or
timeline (any replica, possibly stale) consistency.  Version numbers are
managed by the store and surface through ``get``; ``conditional_put`` and
``conditional_delete`` succeed only when the supplied version is still
current, which gives read-modify-write transactions optimistic
concurrency control::

    c = yield from client.get(key, b"c", consistent=True)
    yield from client.conditional_put(key, b"c", new_value, c.version)
    # retry on VersionMismatch

All methods return generators for use with ``yield from`` inside
simulation processes.  The single-key calls build their message and hand
back :meth:`_call`'s generator itself — a client resume re-enters one
frame, not a stack of forwarding ones — so they route off the map
snapshot current when they are *called*.  That is the one time a key is
located: the message carries the cohort and the map version it was
routed with (``cohort_id``, ``map_version``), and a server on the same
version takes the cohort as read.

Routing state machine (per operation, inside :meth:`_call`)
-----------------------------------------------------------
The client works off an immutable
:class:`~repro.core.partition.CohortMap` snapshot plus a per-cohort
leader cache, and walks one request through these transitions until an
``ok`` reply, a terminal error, or the op deadline:

``pick``                       strong: the cached leader.  Timeline:
                               same-DC replicas on a placed network,
                               minus this op's timed-out ones; of those,
                               the one with the fewest of this client's
                               reads in flight, ties at random.
``send -> ok``                 cache target as leader (strong ops), done.
``send -> RpcTimeout``         rotate to the next member (strong) or
                               pick again without the timed-out
                               replicas (timeline).
``send -> not-leader/unavailable``  follow the ``hint`` if given, else
                               rotate; jittered exponential backoff
                               (``CLIENT_RETRY_BACKOFF`` doubling up to
                               ``CLIENT_RETRY_BACKOFF_CAP``).
``send -> wrong-node``         the replier holds no replica for the key
                               (a scan: or is on a newer layout than the
                               scan was planned on): drop a poisoned
                               leader-cache entry, fetch a fresh map
                               when the reply advertises a newer
                               ``map_version``, re-resolve the cohort by
                               key, re-stamp the message, backoff, retry.
``send -> version-mismatch``   raise :class:`VersionMismatch` (terminal;
                               retrying cannot succeed).
``send -> cross-cohort``       a multi-op write whose *later* op the
                               routing key's cohort does not own: raise
                               :class:`DatastoreError` (terminal).

Invariants
----------
- At most one attempt of an operation is in flight at a time; retries
  never race each other (matters for tracing and FIFO channels).
- A timeline get or scan counts in ``_reads_in_flight`` against its
  target from the send until a reply, a timeout or an interrupt ends
  the wait; strong ops go to the leader and are not counted.
- The leader cache only ever holds names that were members of the
  cohort in the snapshot that produced them; map refreshes evict
  entries invalidated by membership changes.
- Total time spent retrying is bounded by ``client_op_timeout`` and
  ``client_max_retries``, whichever trips first; the op then raises
  :class:`RequestTimeout`.

Failure cases: a crashed target costs one ``per_try`` timeout before
rotation; a stale map costs one extra round trip (``GetCohortMap``); a
partitioned client eventually times out every member and surfaces
:class:`RequestTimeout` to the workload.

Elastic membership propagates to clients lazily through the
``wrong-node`` path — there is no broadcast, and the coordination
service is never on the client's path (§4.2).

Tracing: when built with a :class:`~repro.obs.trace.RequestTracer`,
:meth:`_call` opens the root span, stamps ``ctx.last_sent_at`` before
every (re)send so the server can delimit ``route``, and closes the
trace with a ``reply`` span (see ``OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..obs.trace import NullRequestTracer
from ..sim.events import Simulator
from ..sim.network import Endpoint, Network, RpcTimeout
from ..sim.process import timeout
from ..sim.rng import RngRegistry
from .config import (CLIENT_MAP_TIMEOUT, CLIENT_RETRY_BACKOFF,
                     CLIENT_RETRY_BACKOFF_CAP, CLIENT_RTT_MULTIPLIER,
                     SpinnakerConfig)
from .datamodel import (DatastoreError, GetResult, RequestTimeout,
                        VersionMismatch)
from .messages import (ClientGet, ClientScan, ClientWrite, GetCohortMap,
                       WriteOp)
from .partition import CohortMap, RangePartitioner

__all__ = ["SpinnakerClient"]


def fewest_in_flight(members, in_flight: Dict[str, int], rng) -> str:
    """The member of ``members`` with the fewest reads in flight, ties
    broken by one ``rng.choice``.  With nothing in flight that is the
    plain random pick, draw for draw; under load a read skips the
    replica this client already has queued work on.  Shared with the
    baseline client, so both systems route reads alike."""
    best = []
    fewest = None
    for member in members:
        n = in_flight.get(member, 0)
        if fewest is None or n < fewest:
            fewest = n
            best = [member]
        elif n == fewest:
            best.append(member)
    return rng.choice(best)


class SpinnakerClient:
    """A datastore client bound to one (simulated) client machine."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 partitioner: RangePartitioner, config: SpinnakerConfig,
                 rng: RngRegistry, request_tracer=None):
        self.sim = sim
        self.name = name
        self.request_tracer = (request_tracer if request_tracer is not None
                               else NullRequestTracer())
        self.partitioner = partitioner
        self.config = config
        self.endpoint: Endpoint = network.endpoint(name)
        self._topology = network.topology
        # Per-try budgets derive from the network's round-trip bound:
        # the configured floors (LAN-scale: 2.0s / 1.0s) dominate on a
        # flat network, while a WAN topology raises them so a healthy
        # slow link is never misread as a timeout (a hardcoded 1.0s
        # here once made every cross-DC map refresh a retry storm).
        rtt = network.rtt_bound()
        self._per_try = max(config.client_try_timeout,
                            CLIENT_RTT_MULTIPLIER * rtt)
        self._map_timeout = max(CLIENT_MAP_TIMEOUT,
                                CLIENT_RTT_MULTIPLIER * rtt)
        self._rng = rng.stream(f"client:{name}")
        self._map: CohortMap = partitioner.snapshot()
        self._leader_cache: Dict[int, str] = {}
        # replica -> this client's timeline reads awaiting its reply
        self._reads_in_flight: Dict[str, int] = {}
        self.ops_completed = 0
        self.retries = 0
        self.map_refreshes = 0

    @property
    def map_version(self) -> int:
        """Version of the routing snapshot this client operates on."""
        return self._map.version

    # ------------------------------------------------------------------
    # Public API (§3)
    # ------------------------------------------------------------------
    def get(self, key: bytes, colname: bytes, consistent: bool = True):
        """Read a column value and its version number."""
        routing = self._map
        cohort = routing.locate(key)
        msg = ClientGet(key, colname, consistent, cohort_id=cohort.cohort_id,
                        map_version=routing.version)
        return self._call("read", cohort, msg, 96, strong=consistent,
                          key=key)

    def put(self, key: bytes, colname: bytes, value: bytes):
        """Insert a column value into a row."""
        return self._write((WriteOp(key, colname, value),))

    def delete(self, key: bytes, colname: bytes):
        """Delete a column from a row."""
        return self._write((WriteOp(key, colname, None, tombstone=True),))

    def conditional_put(self, key: bytes, colname: bytes, value: bytes,
                        version: int):
        """Insert only if the column's current version equals ``version``;
        raises :class:`VersionMismatch` otherwise."""
        return self._write(
            (WriteOp(key, colname, value, expected_version=version),))

    def conditional_delete(self, key: bytes, colname: bytes, version: int):
        return self._write(
            (WriteOp(key, colname, None, tombstone=True,
                     expected_version=version),))

    def put_columns(self, key: bytes,
                    columns: Dict[bytes, bytes]):
        """Multi-column put: all columns of one row, one transaction."""
        return self.conditional_put_columns(key, columns, {})

    def conditional_put_columns(self, key: bytes,
                                columns: Dict[bytes, bytes],
                                versions: Dict[bytes, int]):
        """Multi-column conditional put (§3): every column's version must
        match or nothing is written.  Raises :class:`ValueError` for no
        columns, before anything is sent."""
        if not columns:
            raise ValueError("no columns")
        return self._write(tuple(
            WriteOp(key, col, value, expected_version=versions.get(col))
            for col, value in sorted(columns.items())))

    def scan(self, start_key: bytes, end_key: Optional[bytes] = None,
             limit: int = 100, consistent: bool = True):
        """Ordered range read: rows with start_key <= key < end_key, up
        to ``limit``, as a list of (key, {column: GetResult}).

        Requires a cluster built with order-preserving keys
        (``SpinnakerConfig.order_preserving_keys``); raises
        :class:`DatastoreError` otherwise.  Strong scans read each
        cohort's leader; timeline scans read any replica.
        """
        if not self._map.order_preserving:
            raise DatastoreError(
                "range scans require order_preserving_keys=True")
        results = []
        end = end_key or b"\xff\xff\xff\xff\xff"
        # One request per cohort, in key order, each planned off the map
        # as it is *then*: a ``wrong-node`` refresh under one request
        # re-plans everything past the rows already returned.
        cursor = start_key          # maps to where the unasked range begins
        while len(results) < limit:
            routing = self._map
            ahead = routing.cohorts_for_range(cursor, end)
            if not ahead:
                break
            cohort = ahead[0]
            msg = ClientScan(cohort_id=cohort.cohort_id,
                             start_key=start_key, end_key=end_key,
                             limit=limit - len(results),
                             consistent=consistent,
                             map_version=routing.version)
            rows = yield from self._call("scan", cohort, msg, 128,
                                         strong=consistent, key=cursor)
            for key, columns in rows:
                results.append((key, {
                    col: GetResult(value=value, version=version)
                    for col, (value, version) in columns.items()}))
            # on from where the cohort that answered (on this map) ends
            hi = self._map.locate(cursor).key_range.hi
            if hi >= self._map.keyspace:
                break
            cursor = hi.to_bytes(4, "big")
        return results

    def get_row(self, key: bytes, colnames, consistent: bool = True):
        """Convenience: read several columns of one row."""
        out = {}
        for colname in colnames:
            out[colname] = yield from self.get(key, colname, consistent)
        return out

    # ------------------------------------------------------------------
    # Routing + retry
    # ------------------------------------------------------------------
    def _strong_target(self, cohort) -> str:
        """The cohort's best-known leader.  A cold cache falls back to
        the map's recorded leader hint before the lowest-named member —
        members[0] alone would bias every fresh client's first contact
        onto the same node."""
        cached = self._leader_cache.get(cohort.cohort_id)
        if cached is not None:
            return cached
        hint = self._map.leader_hint(cohort.cohort_id)
        if hint is not None and hint in cohort.members:
            return hint
        return cohort.members[0]

    def _next_target(self, cohort, current: str) -> str:
        members = list(cohort.members)
        try:
            idx = members.index(current)
        except ValueError:
            return members[0]
        return members[(idx + 1) % len(members)]

    def _timeline_target(self, cohort, exclude=None) -> str:
        """The replica with the fewest of this client's reads in flight,
        ties broken at random (:func:`fewest_in_flight`).  ``exclude``
        (a member name or a collection of them) drops replicas that
        just timed out, so retries cannot keep hammering crashed
        nodes.  Falls back to the full member list if exclusion
        would leave nobody.

        On a placed network, nearest-replica routing: replicas in this
        client's own datacenter are preferred (timeline reads tolerate
        staleness, so they never need to cross the WAN when a local
        copy exists — the latency side of the §3 consistency menu).
        The filters come first; the in-flight count only picks among
        the replicas they leave.
        """
        members = cohort.members
        if exclude:
            if isinstance(exclude, str):
                exclude = (exclude,)
            alive = [m for m in members if m not in exclude]
            if alive:
                members = alive
        if self._topology is not None:
            my_dc = self._topology.dc_of(self.name)
            local = [m for m in members
                     if self._topology.dc_of(m) == my_dc]
            if local:
                members = local
        return fewest_in_flight(members, self._reads_in_flight, self._rng)

    def _refresh_map(self, source: str):
        """Fetch a newer routing snapshot from ``source`` (which just
        told us ours is stale).  ``yield from`` me; True on upgrade."""
        try:
            reply = yield self.endpoint.request(
                source, GetCohortMap(), size=64,
                timeout=self._map_timeout)
        except RpcTimeout:
            return False
        if not (isinstance(reply, dict) and reply.get("ok")):
            return False
        snapshot: CohortMap = reply["map"]
        if snapshot.version <= self._map.version:
            return False
        self._map = snapshot
        self.map_refreshes += 1
        # Drop leader-cache entries invalidated by membership changes.
        for cid in sorted(self._leader_cache):
            cohort = snapshot.cohort_or_none(cid)
            if (cohort is None
                    or self._leader_cache[cid] not in cohort.members):
                del self._leader_cache[cid]
        return True

    def _write(self, ops: Tuple[WriteOp, ...], op: str = "write"):
        """Send ``ops`` as one :class:`ClientWrite`, routed by the first
        op's key; ``op`` labels the trace root."""
        key = ops[0].key
        size = 64                  # header; each op adds framing + value
        for o in ops:
            size += 32 + len(o.value or b"")
        routing = self._map
        cohort = routing.locate(key)
        msg = ClientWrite(ops, cohort_id=cohort.cohort_id,
                          map_version=routing.version)
        return self._call(op, cohort, msg, size, strong=True, key=key)

    def _call(self, op: str, cohort, msg, size: int, strong: bool,
              key: bytes):
        """Send ``msg``, stamped for ``cohort``, with retries; root-span
        bracket (named ``op``) when tracing is on.  After a
        ``wrong-node`` reply the cohort is re-resolved by ``key`` (a
        scan's: one that maps to where its unasked range begins) from
        the (possibly refreshed) map snapshot, and the message
        re-stamped."""
        target = (self._strong_target(cohort) if strong
                  else self._timeline_target(cohort))
        tracer = self.request_tracer
        ctx = tracer.begin(op, self.name) if tracer.enabled else None
        if ctx is not None:
            msg = replace(msg, trace=ctx)
        cfg = self.config
        sim = self.sim
        now = sim.now               # read once per send, not per use
        deadline = now + cfg.client_op_timeout
        attempt = 0
        timed_out: set = set()
        # Only timeline reads are counted: they alone pick by the count.
        reads = None if strong else self._reads_in_flight
        try:
            while True:
                remaining = deadline - now
                if remaining <= 0 or attempt > cfg.client_max_retries:
                    raise RequestTimeout(
                        f"{type(msg).__name__} gave up after {attempt} "
                        f"tries")
                per_try = (remaining if remaining < self._per_try
                           else self._per_try)
                if ctx is not None:
                    ctx.last_sent_at = now
                if reads is not None:
                    reads[target] = reads.get(target, 0) + 1
                try:
                    try:
                        reply = yield self.endpoint.request(
                            target, msg, size=size, timeout=per_try)
                    finally:
                        if reads is not None:
                            reads[target] -= 1
                except RpcTimeout:
                    attempt += 1
                    self.retries += 1
                    timed_out.add(target)
                    target = (self._next_target(cohort, target) if strong
                              else self._timeline_target(cohort,
                                                         exclude=timed_out))
                    now = sim.now
                    continue
                if reply["ok"]:
                    if strong:
                        self._leader_cache[cohort.cohort_id] = target
                    self.ops_completed += 1
                    result = reply["result"]
                    break
                code = reply.get("code")
                if code == "version-mismatch":
                    raise VersionMismatch(reply["expected"],
                                          reply["actual"])
                if code == "cross-cohort":
                    raise DatastoreError(
                        "cross-cohort write: an op after the first is "
                        f"not owned by cohort {cohort.cohort_id} (the "
                        "range moved or split under the request)")
                if code not in ("wrong-node", "not-leader", "unavailable"):
                    raise DatastoreError(f"unexpected error {code!r}")
                attempt += 1
                self.retries += 1
                hint = reply.get("hint")
                if code == "wrong-node":
                    if self._leader_cache.get(cohort.cohort_id) == target:
                        # The replier holds no replica here; a cache
                        # entry pointing at it is poison, not a leader.
                        del self._leader_cache[cohort.cohort_id]
                    if reply.get("map_version", 0) > self._map.version:
                        yield from self._refresh_map(target)
                    routing = self._map
                    cohort = routing.locate(key)
                    msg = replace(msg, cohort_id=cohort.cohort_id,
                                  map_version=routing.version)
                    target = (self._strong_target(cohort) if strong
                              else self._timeline_target(cohort))
                elif strong and hint and hint != target:
                    target = hint
                    self._leader_cache[cohort.cohort_id] = hint
                else:
                    # No hint: rotate — re-asking the same non-leader
                    # would just burn the op deadline.
                    target = self._next_target(cohort, target)
                yield timeout(sim, self._backoff(attempt, deadline))
                now = sim.now
        except BaseException as exc:
            if ctx is not None:
                tracer.finish(ctx.root, error=type(exc).__name__)
            raise
        if ctx is not None:
            start = (ctx.server_done_at if ctx.server_done_at is not None
                     else sim.now)
            tracer.span_at(ctx, "reply", self.name, start=start)
            tracer.finish(ctx.root)
        return result

    def _backoff(self, attempt: int, deadline: float) -> float:
        """Jittered exponential backoff for retry ``attempt`` (1-based),
        clamped to the op deadline.

        The first few attempts stay at the base step — routine, brief
        unavailability (a migration draining writes, a leader handoff)
        should be ridden out at full pace, not slept through.  Persistent
        failure then doubles the step up to ``CLIENT_RETRY_BACKOFF_CAP``.
        Equal-jitter in ``[step/2, step]``: bounded below so a retry
        always makes progress, randomized above so clients that all
        failed at the same instant (a healed whole-DC partition) do not
        re-arrive as a synchronized thundering herd.
        """
        step = min(CLIENT_RETRY_BACKOFF * (2.0 ** max(attempt - 4, 0)),
                   CLIENT_RETRY_BACKOFF_CAP)
        wait = step * (0.5 + 0.5 * self._rng.random())
        return max(0.0, min(wait, deadline - self.sim.now))
