"""Client handle for the coordination service.

Every Spinnaker node embeds one of these (§7.2).  Operations are
generator functions used with ``yield from`` inside simulation processes::

    path = yield from zk.create("/r/candidates/c", data, ephemeral=True,
                                sequential=True)
    kids = yield from zk.get_children("/r/candidates", watcher=on_change)

Watches registered through ``watcher=`` are one-shot callbacks invoked
with a :class:`~repro.coord.znode.WatchEvent` when the notification
arrives.  A heartbeat process keeps the session alive; crash the owning
node (stop heartbeats) and the server expires the session, deleting its
ephemeral znodes — that is Spinnaker's failure detector.

A session ends one way, :meth:`stop`, which fails every call waiting on
it with :class:`CoordError`: when it expired, its lease ran out, or a
heartbeat ack's counts show a lost message (PROTOCOL.md, *Coordination
failure model*).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from ..sim.events import Event, Simulator
from ..sim.network import Endpoint, RpcTimeout
from ..sim.process import Process, spawn, timeout
from .service import SESSION_TIMEOUT_DEFAULT, error_from_code
from .znode import CoordError, WatchEvent

__all__ = ["CoordClient"]


class CoordClient:
    """One node's session with the coordination service."""

    def __init__(self, sim: Simulator, endpoint: Endpoint,
                 service: str = "coord",
                 session_timeout: float = SESSION_TIMEOUT_DEFAULT):
        self.sim = sim
        self.endpoint = endpoint
        self.service = service
        self.session_timeout = session_timeout
        self.session: Optional[int] = None
        self._watchers: Dict[int, Callable[[WatchEvent], None]] = {}
        self._watch_ids = itertools.count(1)
        self._heartbeater: Optional[Process] = None
        #: calls waiting for a reply; None once the session has ended
        self._pending: Optional[Dict[Event, None]] = {}
        #: calls sent, and replies and watch events received, on the
        #: open session: what each heartbeat ack is checked against
        self._calls = 0
        self._received = 0
        #: called once (with this client), just before :meth:`stop`, when
        #: the server says the session expired, heartbeats went unacked
        #: long enough that it is about to, or an ack shows a lost
        #: message.  Spinnaker's leaders hang their leases off this
        #: signal (§7.2): step down *before* a rival can win.
        self.on_session_loss: Optional[Callable[["CoordClient"], None]] = None
        self.last_ack = 0.0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def start(self, rpc_timeout: Optional[float] = None):
        """``yield from`` me: opens the session and starts heartbeats.

        ``rpc_timeout`` bounds the start-session RPC (callers that may be
        partitioned from the service retry on :class:`RpcTimeout`)."""
        if self.session is not None:   # idempotent under caller retries
            return self.session
        if self.endpoint._handler is None:
            # Standalone use (tests, recipes): install a dispatcher that
            # consumes watch events.  Nodes with their own dispatcher must
            # route coord messages to handle_watch_message themselves.
            self.endpoint.on_request(
                lambda req: self.handle_watch_message(req.payload))
        reply = yield self.endpoint.request(
            self.service, {"op": "start-session",
                           "timeout": self.session_timeout}, size=64,
            timeout=rpc_timeout)
        # Single-shot start: callers serialize start(), and the
        # idempotency gate above returns early when a session exists.
        # lint: allow(write-after-yield-unguarded)
        self.session = self._unwrap(reply)
        self.last_ack = self.sim.now
        self._heartbeater = spawn(
            self.sim, self._heartbeat_loop(),
            name=f"hb-{self.endpoint.name}")
        return self.session

    def stop(self) -> None:
        """End the session: stop heartbeating (the server expires it as
        it would a dead client's) and fail every call waiting on it, and
        any later one, with :class:`CoordError`."""
        if self._heartbeater is not None and self._heartbeater.is_alive:
            self._heartbeater.interrupt("stop")
        self._heartbeater = None
        self._watchers.clear()
        self.session = None
        pending, self._pending = self._pending, None
        for done in pending or ():
            done.fail(CoordError("session ended"))

    def _heartbeat_loop(self):
        from ..sim.process import Interrupt
        interval = self.session_timeout / 3.0
        # Heartbeat RPC budget: the interval plus a round-trip
        # allowance from the network's latency model.  The allowance
        # matters when the coordination service sits across a WAN link:
        # with a bare ``timeout=interval`` an ack that is merely slow
        # (RTT approaching the interval) is discarded as an RpcTimeout,
        # ``last_ack`` goes stale, and a perfectly healthy leader flaps
        # through lease step-down.  The allowance is clamped to a sixth
        # of the session timeout so the safety argument below survives:
        # acks older than that cannot extend the lease anyway.
        rtt_allowance = min(self.endpoint.network.rtt_bound(64),
                            self.session_timeout / 6.0)
        # Local lease deadline: the server expires us ``session_timeout``
        # after the last heartbeat it *received*.  That arrival is never
        # earlier than the moment we *sent* the heartbeat, so the lease
        # is anchored at the send time of the last acked heartbeat —
        # anchoring at the ack's arrival instead would fold the reply's
        # WAN flight into the measured gap and flap a healthy lease at
        # steady RTTs above a sixth of the session timeout.  Declaring
        # the session lost at half the timeout still beats server-side
        # expiry — a deposed leader steps down before a rival is
        # electable.
        deadline = self.session_timeout / 2.0
        try:
            while True:
                yield timeout(self.sim, interval)
                sent_at, calls = self.sim.now, self._calls
                try:
                    reply = yield self.endpoint.request(
                        self.service,
                        {"op": "heartbeat", "session": self.session},
                        size=48, timeout=interval + rtt_allowance)
                except RpcTimeout:
                    reply = None
                if isinstance(reply, dict) and reply.get("ok"):
                    # FIFO channels: a shortfall is a lost message.
                    if reply["recv"] < calls or reply["sent"] > self._received:
                        self._session_lost()  # a message was lost
                        return
                    # Lease bookkeeping: monotonic, sole writer.
                    self.last_ack = sent_at
                elif isinstance(reply, dict):
                    self._session_lost()      # server: session expired
                    return
                if self.sim.now - self.last_ack > deadline:
                    self._session_lost()      # lease ran out
                    return
        except Interrupt:
            return

    def _session_lost(self) -> None:
        self._heartbeater = None   # we *are* it; don't self-interrupt
        callback, self.on_session_loss = self.on_session_loss, None
        if callback is not None:
            callback(self)
        self.stop()

    # ------------------------------------------------------------------
    # Watch plumbing
    # ------------------------------------------------------------------
    def handle_watch_message(self, payload: Dict) -> None:
        """Feed watch-event messages here from the node's dispatcher."""
        session = payload["session"]
        if session is not None:
            if session != self.session:
                return              # armed by an earlier session
            self._received += 1
        watcher = self._watchers.pop(payload["watch_id"], None)
        if watcher is not None:
            watcher(WatchEvent(payload["kind"], payload["path"]))

    def _register_watcher(
            self, watcher: Optional[Callable[[WatchEvent], None]]):
        if watcher is None:
            return None
        watch_id = next(self._watch_ids)
        self._watchers[watch_id] = watcher
        return watch_id

    # ------------------------------------------------------------------
    # Operations (generator functions; use with ``yield from``)
    # ------------------------------------------------------------------
    def _call(self, payload: Dict, size: int = 160):
        pending = self._pending
        if pending is None:
            raise CoordError("session ended")
        session = payload["session"] = self.session    # None: uncounted
        done = Event(self.sim)

        def then(reply) -> None:
            if done.triggered:
                return                  # stop() has failed it
            del pending[done]
            if session is not None:
                self._received += 1
            done.succeed(reply)

        pending[done] = None
        if session is not None:
            self._calls += 1
        self.endpoint.request(self.service, payload, size=size, then=then)
        return self._unwrap((yield done))

    @staticmethod
    def _unwrap(reply: Dict):
        if reply["ok"]:
            return reply["value"]
        raise error_from_code(reply["code"], reply["msg"])

    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequential: bool = False):
        """Create a znode; returns the actual path (sequential suffix)."""
        return (yield from self._call({
            "op": "create", "path": path, "data": data,
            "ephemeral": ephemeral, "sequential": sequential,
        }, size=160 + len(data)))

    def delete(self, path: str, version: int = -1):
        return (yield from self._call(
            {"op": "delete", "path": path, "version": version}))

    def set_data(self, path: str, data: bytes, version: int = -1):
        return (yield from self._call(
            {"op": "set", "path": path, "data": data, "version": version},
            size=160 + len(data)))

    def get(self, path: str, watcher=None):
        """Returns (data, version); sets a one-shot data watch if given."""
        return (yield from self._call({
            "op": "get", "path": path,
            "watch_id": self._register_watcher(watcher)}))

    def get_children(self, path: str, watcher=None):
        return (yield from self._call({
            "op": "children", "path": path,
            "watch_id": self._register_watcher(watcher)}))

    # -- conveniences used by recipes and the election protocol ----------
    def ensure_path(self, path: str):
        """Create ``path`` and any missing ancestors (persistent)."""
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            try:
                yield from self.create(current)
            except CoordError as err:
                if err.code != "node-exists":
                    raise
