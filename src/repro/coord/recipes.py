"""Coordination recipes: group membership.

"The combination of primitives supported by Zookeeper make it fairly easy
to implement distributed locks, barriers, group membership, and so on"
(§4.2).  Spinnaker's event handler joins a group.
"""

from __future__ import annotations

from typing import Optional

from .client import CoordClient
from .znode import NoNodeError, NodeExistsError

__all__ = ["GroupMembership"]


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
