"""The znode tree: ZooKeeper's data model (§7.1), minus the network.

A znode is identified by its slash path, carries binary data and a
version, and may be *ephemeral* (deleted automatically when the owning
session dies) and/or *sequential* (a unique, monotonically increasing
counter is appended to its name at creation).  Watches are one-shot
triggers set by read operations; this module records which watches exist
and reports which fired for each mutation — delivering them to clients is
the service's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "ZNodeTree", "WatchEvent", "CoordError", "NoNodeError",
    "NodeExistsError", "NotEmptyError", "BadVersionError", "EphemeralError",
]


class CoordError(Exception):
    """Base class for coordination-service errors."""

    #: wire tag used by the RPC layer
    code = "coord"


class NoNodeError(CoordError):
    """The znode (or an ancestor) does not exist."""

    code = "no-node"


class NodeExistsError(CoordError):
    """A znode already exists at this path."""

    code = "node-exists"


class NotEmptyError(CoordError):
    """The znode still has children and cannot be deleted."""

    code = "not-empty"


class BadVersionError(CoordError):
    """The supplied znode version did not match (CAS failure)."""

    code = "bad-version"


class EphemeralError(CoordError):
    """Ephemeral znodes cannot have children."""

    code = "ephemeral-children"


ERRORS_BY_CODE = {
    cls.code: cls
    for cls in (NoNodeError, NodeExistsError, NotEmptyError,
                BadVersionError, EphemeralError, CoordError)
}


@dataclass(frozen=True)
class WatchEvent:
    """What a watcher receives: event type + the path it fired for."""

    kind: str   # "created" | "deleted" | "changed" | "children"
    path: str


@dataclass
class _Node:
    data: bytes = b""
    version: int = 0
    ephemeral_owner: Optional[int] = None   # session id
    children: Dict[str, "_Node"] = field(default_factory=dict)
    seq_counter: int = 0


def _split(path: str) -> List[str]:
    if not path.startswith("/"):
        raise CoordError(f"path must be absolute: {path!r}")
    if path == "/":
        return []
    parts = path.rstrip("/").split("/")[1:]
    if any(not p for p in parts):
        raise CoordError(f"malformed path: {path!r}")
    return parts


class ZNodeTree:
    """The tree plus the watch registry.

    Mutating operations return ``(result, fired_watches)`` where
    ``fired_watches`` is a list of ``(watch_owner, WatchEvent)`` pairs —
    watch owners are opaque tokens supplied when the watch was set (the
    service uses ``(client_name, watch_id)``).
    """

    def __init__(self) -> None:
        self._root = _Node()
        # path -> set of owners; one-shot, removed when fired
        self._data_watches: Dict[str, Set] = {}
        self._child_watches: Dict[str, Set] = {}
        # session id -> set of ephemeral paths
        self._ephemerals: Dict[int, Set[str]] = {}

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def _find(self, path: str) -> Optional[_Node]:
        node = self._root
        for part in _split(path):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def _find_parent(self, path: str) -> Tuple[_Node, str]:
        parts = _split(path)
        if not parts:
            raise CoordError("cannot operate on the root")
        node = self._root
        for part in parts[:-1]:
            node = node.children.get(part)
            if node is None:
                raise NoNodeError(f"missing ancestor of {path}")
        return node, parts[-1]

    # ------------------------------------------------------------------
    # Watches
    # ------------------------------------------------------------------
    def add_data_watch(self, path: str, owner) -> None:
        self._data_watches.setdefault(path, set()).add(owner)

    def add_child_watch(self, path: str, owner) -> None:
        self._child_watches.setdefault(path, set()).add(owner)

    def _fire_data(self, path: str, kind: str, fired: List) -> None:
        owners = self._data_watches.pop(path, None)
        if owners:
            event = WatchEvent(kind, path)
            fired.extend((owner, event) for owner in sorted(owners, key=str))

    def _fire_children(self, parent_path: str, fired: List) -> None:
        owners = self._child_watches.pop(parent_path, None)
        if owners:
            event = WatchEvent("children", parent_path)
            fired.extend((owner, event) for owner in sorted(owners, key=str))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def create(self, path: str, data: bytes = b"",
               ephemeral: bool = False, sequential: bool = False,
               session: Optional[int] = None) -> Tuple[str, List]:
        """Create a znode; returns (actual path, fired watches)."""
        if ephemeral and session is None:
            raise CoordError("ephemeral znode requires a session")
        parent, name = self._find_parent(path)
        # locate the parent node object to check ephemerality
        if parent is not self._root and parent.ephemeral_owner is not None:
            raise EphemeralError(f"parent of {path} is ephemeral")
        if sequential:
            name = f"{name}{parent.seq_counter:010d}"
            parent.seq_counter += 1
        if name in parent.children:
            raise NodeExistsError(path)
        node = _Node(data=data,
                     ephemeral_owner=session if ephemeral else None)
        parent.children[name] = node
        parts = _split(path)
        actual = "/" + "/".join(parts[:-1] + [name]) if len(parts) > 1 \
            else "/" + name
        if ephemeral:
            self._ephemerals.setdefault(session, set()).add(actual)
        fired: List = []
        self._fire_data(actual, "created", fired)
        parent_path = "/" + "/".join(parts[:-1]) if len(parts) > 1 else "/"
        self._fire_children(parent_path, fired)
        return actual, fired

    def delete(self, path: str, version: int = -1) -> List:
        node = self._find(path)
        if node is None:
            raise NoNodeError(path)
        if node.children:
            raise NotEmptyError(path)
        if version != -1 and version != node.version:
            raise BadVersionError(f"{path}: {version} != {node.version}")
        parent, name = self._find_parent(path)
        del parent.children[name]
        if node.ephemeral_owner is not None:
            owned = self._ephemerals.get(node.ephemeral_owner)
            if owned:
                owned.discard(path)
        fired: List = []
        self._fire_data(path, "deleted", fired)
        parts = _split(path)
        parent_path = "/" + "/".join(parts[:-1]) if len(parts) > 1 else "/"
        self._fire_children(parent_path, fired)
        return fired

    def set_data(self, path: str, data: bytes,
                 version: int = -1) -> Tuple[int, List]:
        node = self._find(path)
        if node is None:
            raise NoNodeError(path)
        if version != -1 and version != node.version:
            raise BadVersionError(f"{path}: {version} != {node.version}")
        node.data = data
        node.version += 1
        fired: List = []
        self._fire_data(path, "changed", fired)
        return node.version, fired

    def get(self, path: str) -> Tuple[bytes, int]:
        node = self._find(path)
        if node is None:
            raise NoNodeError(path)
        return node.data, node.version

    def exists(self, path: str) -> bool:
        return self._find(path) is not None

    def children(self, path: str) -> List[str]:
        node = self._find(path)
        if node is None:
            raise NoNodeError(path)
        return sorted(node.children)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def expire_session(self, session: int) -> List:
        """Delete the session's ephemerals; returns all fired watches."""
        fired: List = []
        for path in sorted(self._ephemerals.pop(session, set())):
            try:
                fired.extend(self.delete(path))
            except CoordError:
                pass  # already gone (e.g. deleted explicitly)
        return fired

    def ephemeral_paths(self, session: int) -> Set[str]:
        return set(self._ephemerals.get(session, set()))
