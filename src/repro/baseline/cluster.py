"""Cluster harness for the eventually consistent baseline."""

from __future__ import annotations

from typing import Dict, Optional

from ..core.partition import RangePartitioner
from ..sim.events import Simulator
from ..sim.network import Network
from ..sim.process import SimHost
from ..sim.rng import RngRegistry
from .client import CassandraClient
from .config import CassandraConfig
from .node import CassandraNode

__all__ = ["CassandraCluster"]


class CassandraCluster(SimHost):
    """A complete simulated baseline deployment.

    No coordination service exists (membership is static and there is no
    leader to elect); nodes serve as soon as they are constructed —
    matching the paper's observation that Cassandra is "always available"
    at the price of consistency (§D.1).
    """

    def __init__(self, n_nodes: int = 5,
                 config: Optional[CassandraConfig] = None,
                 seed: int = 0):
        self.config = (config or CassandraConfig()).validate()
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.network = Network(self.sim, self.rng)
        names = [f"cnode{i}" for i in range(n_nodes)]
        self.partitioner = RangePartitioner(
            names, replication_factor=self.config.replication_factor)
        self.nodes: Dict[str, CassandraNode] = {
            name: CassandraNode(self.sim, self.network, self.rng, name,
                                self.partitioner, self.config)
            for name in names
        }
        self._clients: Dict[str, CassandraClient] = {}

    def client(self, name: str = "cclient0") -> CassandraClient:
        client = self._clients.get(name)
        if client is None:
            client = CassandraClient(self.sim, self.network, name,
                                     self.partitioner, self.config,
                                     self.rng)
            self._clients[name] = client
        return client
