"""Coordination recipes: group membership and the cohort-map board.

"The combination of primitives supported by Zookeeper make it fairly easy
to implement distributed locks, barriers, group membership, and so on"
(§4.2).  These are the constructions Spinnaker uses: its event handler
joins a group, and a migration publishes the new map version on a
monotonically versioned board.
"""

from __future__ import annotations

from typing import Optional

from .client import CoordClient
from .znode import CoordError, NoNodeError, NodeExistsError

__all__ = ["GroupMembership", "CohortMapBoard"]


class GroupMembership:
    """Ephemeral-znode group membership.

    Each member registers an ephemeral child of the group path, so the
    children of the path are the members alive: a member's session ends
    and its child goes with it.
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


class CohortMapBoard:
    """A monotonically versioned announcement board for the cohort map.

    The migration leader publishes the new map version here after the
    membership-change record commits; the znode holds ``<version>`` and
    only moves forward (publish compare-and-sets the znode version).
    Nothing reads the board back: clients learn a map from the cohorts.
    """

    path = "/map"

    def __init__(self, client: CoordClient):
        self.client = client

    # `version` is the value being published, not a guard; the znode
    # compare-and-set arbitrates races.
    # lint: allow(stale-guard-across-yield)
    def publish(self, version: int):
        """Advance the board to ``version``; ``yield from`` me.  Returns
        True if this call advanced it, False if it was already there."""
        data = str(version).encode()
        while True:
            try:
                cur, zver = yield from self.client.get(self.path)
            except NoNodeError:
                try:
                    yield from self.client.create(self.path, data=data)
                    return True
                except NodeExistsError:
                    continue
            if int(cur or b"0") >= version:
                return False
            try:
                yield from self.client.set_data(self.path, data,
                                                version=zver)
                return True
            except CoordError:
                continue    # raced; re-read and re-check monotonicity
