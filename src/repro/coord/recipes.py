"""Coordination recipes: group membership, locks, barriers.

"The combination of primitives supported by Zookeeper make it fairly easy
to implement distributed locks, barriers, group membership, and so on"
(§4.2).  These are the standard constructions; Spinnaker's event handler
uses group membership, and the examples/tests exercise all three.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.events import Event
from .client import CoordClient
from .znode import CoordError, NoNodeError, NodeExistsError, WatchEvent

__all__ = ["GroupMembership", "DistributedLock", "Barrier",
           "CohortMapBoard"]


class GroupMembership:
    """Ephemeral-znode group membership with change notifications.

    Each member registers an ephemeral child of the group path; members
    list the children to see who is alive and can watch for changes.
    """

    def __init__(self, client: CoordClient, group_path: str,
                 member_name: str):
        self.client = client
        self.group_path = group_path
        self.member_name = member_name
        self.member_path: Optional[str] = None

    def join(self, data: bytes = b""):
        yield from self.client.ensure_path(self.group_path)
        path = f"{self.group_path}/{self.member_name}"
        try:
            self.member_path = yield from self.client.create(
                path, data=data, ephemeral=True)
        except NodeExistsError:
            # A stale ephemeral from our previous incarnation; replace it.
            try:
                yield from self.client.delete(path)
            except NoNodeError:
                pass    # its session expired between our two requests
            self.member_path = yield from self.client.create(
                path, data=data, ephemeral=True)
        return self.member_path

    def leave(self):
        if self.member_path is not None:
            try:
                yield from self.client.delete(self.member_path)
            except NoNodeError:
                pass
            self.member_path = None

    def members(self, watcher: Optional[Callable[[WatchEvent], None]] = None):
        try:
            return (yield from self.client.get_children(
                self.group_path, watcher=watcher))
        except NoNodeError:
            return []


class CohortMapBoard:
    """A monotonically versioned announcement board for the cohort map.

    The migration leader publishes the new map version here after the
    membership-change record commits; late joiners and operators read it
    to learn the routing epoch without scanning any cohort's log.  The
    znode holds ``<version>`` (optionally ``<version>|<payload>``) and
    only ever moves forward: publish uses the znode's compare-and-set
    version to lose races gracefully.
    """

    def __init__(self, client: CoordClient, path: str = "/map"):
        self.client = client
        self.path = path

    # `version` is the value being published, not a guard; the znode
    # compare-and-set arbitrates races.
    # lint: allow(stale-guard-across-yield)
    def publish(self, version: int, payload: bytes = b""):
        """Advance the board to ``version``; ``yield from`` me.  Returns
        True if this call advanced it, False if it was already there."""
        data = str(version).encode() + (b"|" + payload if payload else b"")
        while True:
            try:
                cur, zver = yield from self.client.get(self.path)
            except NoNodeError:
                try:
                    yield from self.client.create(self.path, data=data)
                    return True
                except NodeExistsError:
                    continue
            current = int(cur.split(b"|", 1)[0] or b"0")
            if current >= version:
                return False
            try:
                yield from self.client.set_data(self.path, data,
                                                version=zver)
                return True
            except CoordError:
                continue    # raced; re-read and re-check monotonicity

    def read(self):
        """Current (version, payload); (0, b"") when never published.
        ``yield from`` me."""
        try:
            data, _ = yield from self.client.get(self.path)
        except NoNodeError:
            return 0, b""
        if b"|" in data:
            head, payload = data.split(b"|", 1)
        else:
            head, payload = data, b""
        return int(head or b"0"), payload


class DistributedLock:
    """The classic sequential-ephemeral lock queue.

    Each contender creates ``<path>/lock-NNNN`` (ephemeral + sequential);
    the holder is the lowest sequence number.  A contender watches the
    znode *immediately before* its own to avoid herd effects.
    """

    def __init__(self, client: CoordClient, path: str):
        self.client = client
        self.path = path
        self.my_znode: Optional[str] = None

    def acquire(self):
        yield from self.client.ensure_path(self.path)
        self.my_znode = yield from self.client.create(
            f"{self.path}/lock-", ephemeral=True, sequential=True)
        my_name = self.my_znode.rsplit("/", 1)[1]
        while True:
            kids = sorted((yield from self.client.get_children(self.path)))
            if kids and kids[0] == my_name:
                return self.my_znode
            predecessor = max(k for k in kids if k < my_name)
            gone = Event(self.client.sim)

            def _on_change(_event: WatchEvent) -> None:
                if not gone.triggered:
                    gone.succeed()

            still_there = yield from self.client.exists(
                f"{self.path}/{predecessor}", watcher=_on_change)
            if still_there:
                yield gone

    def release(self):
        if self.my_znode is None:
            raise CoordError("lock not held")
        try:
            yield from self.client.delete(self.my_znode)
        finally:
            self.my_znode = None


class Barrier:
    """A double-barrier entry: proceed once ``quorum`` members arrived."""

    def __init__(self, client: CoordClient, path: str, member: str,
                 quorum: int):
        self.client = client
        self.path = path
        self.member = member
        self.quorum = quorum

    def enter(self) -> "object":
        yield from self.client.ensure_path(self.path)
        try:
            yield from self.client.create(
                f"{self.path}/{self.member}", ephemeral=True)
        except NodeExistsError:
            pass
        while True:
            arrived = Event(self.client.sim)

            def _on_change(_event: WatchEvent) -> None:
                if not arrived.triggered:
                    arrived.succeed()

            kids = yield from self.client.get_children(
                self.path, watcher=_on_change)
            if len(kids) >= self.quorum:
                return list(kids)
            yield arrived
