"""The eventually consistent baseline (Cassandra/Dynamo-style, §2.3, §9).

Shares the simulator, storage engine, partitioning and hardware models
with :mod:`repro.core`, and its server runtime: a :class:`CassandraNode`
is a :class:`~repro.core.node.NodeHost`, as a Spinnaker node is, so the
two differ only in their handlers — exactly where the paper says
Cassandra differs: no leader, last-write-wins timestamps, weak/quorum
consistency levels, read repair and hinted handoff instead of
quorum-based recovery.
"""

from .config import QUORUM, WEAK, CassandraConfig
from .cluster import CassandraCluster
from .client import CassandraClient, ReadValue
from .node import CassandraNode

__all__ = [
    "CassandraConfig", "CassandraCluster", "CassandraClient",
    "CassandraNode", "ReadValue", "WEAK", "QUORUM",
]
