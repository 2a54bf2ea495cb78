"""Spinnaker: the paper's primary contribution.

A range-partitioned, 3-way-replicated datastore whose per-cohort
Multi-Paxos-derived replication protocol is integrated with the shared
write-ahead log and recovery (§5–§7).  Build a cluster with
:class:`SpinnakerCluster`, talk to it with :class:`SpinnakerClient`.
"""

from .config import SpinnakerConfig
from .datamodel import (DatastoreError, GetResult, PutResult,
                        RequestTimeout, VersionMismatch)
from .partition import Cohort, KeyRange, RangePartitioner, key_of
from .commitqueue import CommitQueue, PendingWrite
from .replication import CohortReplica, Role
from .node import SpinnakerNode
from .cluster import SpinnakerCluster
from .api import SpinnakerClient
from .multiop import Transaction
from .checker import (HistoryRecorder, Violation,
                      check_strong_history)

__all__ = [
    "SpinnakerConfig", "SpinnakerCluster", "SpinnakerClient", "Transaction",
    "SpinnakerNode", "CohortReplica", "Role",
    "RangePartitioner", "Cohort", "KeyRange", "key_of",
    "CommitQueue", "PendingWrite",
    "GetResult", "PutResult",
    "DatastoreError", "VersionMismatch", "RequestTimeout",
    "HistoryRecorder", "Violation", "check_strong_history",
]
