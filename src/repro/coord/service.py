"""The coordination service process.

Spinnaker treats ZooKeeper as a fault-tolerant, always-available
coordination service (§4.2): it is itself replicated with Paxos, it is
*not* on the critical path of reads and writes, and the only steady-state
traffic is heartbeats.  We model it accordingly — one logical service
endpoint whose internal replication is assumed (its availability is an
explicit substitution documented in DESIGN.md), with:

* a serialized request queue and per-op service times (updates pay a log
  force, like a real ZK quorum write) — a request is handled by a
  function parked on the CPU, not by a process;
* sessions with heartbeat-based liveness and session-expiry sweeps —
  ephemeral znode cleanup on expiry is what gives Spinnaker its failure
  detection;
* one-shot watches delivered as async notifications.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..sim.events import Simulator
from ..sim.network import Network, Request
from ..sim.process import spawn, timeout
from ..sim.resources import Charge, Resource
from .znode import CoordError, ERRORS_BY_CODE, ZNodeTree

__all__ = ["CoordinationService", "SESSION_TIMEOUT_DEFAULT"]

#: The paper used a 2-second ZooKeeper failure-detection timeout (§D.1).
SESSION_TIMEOUT_DEFAULT = 2.0


class CoordinationService:
    """The server side.  Install on a network as endpoint ``name``."""

    def __init__(self, sim: Simulator, network: Network,
                 name: str = "coord",
                 read_latency: float = 0.3e-3,
                 update_latency: float = 1.2e-3,
                 sweep_interval: float = 0.25):
        self.sim = sim
        self.name = name
        self.tree = ZNodeTree()
        self.read_latency = read_latency
        self.update_latency = update_latency
        self.sweep_interval = sweep_interval
        self.endpoint = network.endpoint(name)
        self.endpoint.on_request(self._on_request)
        self._cpu = Resource(sim, capacity=1)
        self._sessions: Dict[int, Dict[str, Any]] = {}
        self._next_session = 1
        self.expired_sessions = 0
        spawn(sim, self._expiry_sweeper(), name="coord-sweeper")

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def _register_session(self, client: str, session_timeout: float) -> int:
        session = self._next_session
        self._next_session += 1
        self._sessions[session] = {
            "client": client,
            "timeout": session_timeout,
            "last_seen": self.sim.now,
            "alive": True,
        }
        return session

    def _touch(self, session: Optional[int]) -> bool:
        info = self._sessions.get(session)
        if info is None or not info["alive"]:
            return False
        info["last_seen"] = self.sim.now
        return True

    def _expiry_sweeper(self):
        while True:
            yield timeout(self.sim, self.sweep_interval)
            now = self.sim.now
            for session, info in list(self._sessions.items()):
                if info["alive"] and now - info["last_seen"] > info["timeout"]:
                    self._expire(session)

    def _expire(self, session: int) -> None:
        info = self._sessions.get(session)
        if info is None or not info["alive"]:
            return
        info["alive"] = False
        self.expired_sessions += 1
        fired = self.tree.expire_session(session)
        self._deliver_watches(fired)

    def expire_session_now(self, session: int) -> None:
        """Test/ops hook: expire without waiting for the sweep."""
        self._expire(session)

    # ------------------------------------------------------------------
    # Watch delivery
    # ------------------------------------------------------------------
    def _deliver_watches(self, fired) -> None:
        for owner, event in fired:
            client, watch_id = owner
            self.endpoint.send(client, {
                "op": "watch-event",
                "watch_id": watch_id,
                "kind": event.kind,
                "path": event.path,
            }, size=96)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _on_request(self, req: Request) -> None:
        payload = req.payload
        op = payload.get("op")
        if op == "heartbeat":
            # Heartbeats bypass the request queue; the ack tells the
            # client its session (lease) is still alive.
            alive = self._touch(payload.get("session"))
            req.respond({"ok": bool(alive)}, size=48)
            return
        is_update = op in ("create", "delete", "set", "close-session")
        latency = self.update_latency if is_update else self.read_latency
        Charge(self._cpu, latency, self._handle, req)

    def _handle(self, req: Request) -> None:
        """The request's CPU slice is over: apply it and reply."""
        payload = req.payload
        op = payload["op"]
        session = payload.get("session")
        if op != "start-session" and session is not None \
                and not self._touch(session):
            req.respond({"ok": False, "code": "session-expired",
                         "msg": f"session {session}"})
            return
        try:
            result, fired = self._apply(req.src, payload)
        except CoordError as err:
            req.respond({"ok": False, "code": err.code, "msg": str(err)})
            return
        req.respond({"ok": True, "value": result})
        self._deliver_watches(fired)

    def _apply(self, src: str, payload: Dict[str, Any]):
        op = payload["op"]
        tree = self.tree
        fired: list = []
        if op == "start-session":
            session = self._register_session(
                src, payload.get("timeout", SESSION_TIMEOUT_DEFAULT))
            return session, fired
        if op == "close-session":
            self._expire(payload["session"])
            return None, fired
        if op == "create":
            actual, fired = tree.create(
                payload["path"], payload.get("data", b""),
                ephemeral=payload.get("ephemeral", False),
                sequential=payload.get("sequential", False),
                session=payload.get("session"))
            return actual, fired
        if op == "delete":
            fired = tree.delete(payload["path"], payload.get("version", -1))
            return None, fired
        if op == "set":
            version, fired = tree.set_data(
                payload["path"], payload["data"],
                payload.get("version", -1))
            return version, fired
        if op == "get":
            data, version = tree.get(payload["path"])
            # ZooKeeper semantics: a failed get leaves no watch (the
            # NoNodeError above propagates before this line) — use
            # exists() to watch for creation.
            if payload.get("watch_id") is not None:
                tree.add_data_watch(payload["path"],
                                    (src, payload["watch_id"]))
            return (data, version), fired
        if op == "exists":
            if payload.get("watch_id") is not None:
                tree.add_data_watch(payload["path"],
                                    (src, payload["watch_id"]))
            return tree.exists(payload["path"]), fired
        if op == "children":
            if payload.get("watch_id") is not None:
                tree.add_child_watch(payload["path"],
                                     (src, payload["watch_id"]))
            return tree.children(payload["path"]), fired
        raise CoordError(f"unknown op {op!r}")


def error_from_code(code: str, msg: str) -> CoordError:
    """Rebuild the typed exception on the client side."""
    cls = ERRORS_BY_CODE.get(code, CoordError)
    return cls(msg)
