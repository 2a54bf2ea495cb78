"""A ZooKeeper-equivalent coordination service (§4.2, §7.1).

Implements exactly the subset Spinnaker relies on: a znode tree with
persistent/ephemeral/sequential nodes, one-shot watches, and
heartbeat-based sessions whose expiry deletes ephemerals (failure
detection).  The service itself is assumed fault tolerant, as the paper
assumes of ZooKeeper; see DESIGN.md.
"""

from .znode import (BadVersionError, CoordError, EphemeralError,
                    NoNodeError, NodeExistsError, NotEmptyError, WatchEvent,
                    ZNodeTree)
from .service import SESSION_TIMEOUT_DEFAULT, CoordinationService
from .client import CoordClient
from .recipes import GroupMembership

__all__ = [
    "ZNodeTree", "WatchEvent",
    "CoordError", "NoNodeError", "NodeExistsError", "NotEmptyError",
    "BadVersionError", "EphemeralError",
    "CoordinationService", "SESSION_TIMEOUT_DEFAULT",
    "CoordClient",
    "GroupMembership",
]
