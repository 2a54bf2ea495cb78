"""Cluster harness: wires nodes, coordination service, and clients.

This is the deployment layer a test or benchmark interacts with: it
builds the simulator, network, coordination service, partitioner and
nodes, boots everything, and offers convenience queries (who leads cohort
3? is the cluster ready?) plus failure-injection hooks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..coord.service import CoordinationService
from ..sim.events import Simulator
from ..sim.network import LatencyModel, Network
from ..sim.process import SimHost
from ..sim.rng import RngRegistry
from ..sim.tracing import NullTracer
from .api import SpinnakerClient
from .config import SpinnakerConfig
from .node import SpinnakerNode
from .partition import RangePartitioner, key_of, ordered_key_of
from .replication import Role

__all__ = ["SpinnakerCluster"]


class SpinnakerCluster(SimHost):
    """A complete simulated Spinnaker deployment."""

    def __init__(self, n_nodes: int = 5,
                 config: Optional[SpinnakerConfig] = None,
                 seed: int = 0,
                 node_names: Optional[List[str]] = None,
                 latency: Optional[LatencyModel] = None,
                 topology=None, placement: str = "ring",
                 tracer=None, request_tracer=None):
        self.config = (config or SpinnakerConfig()).validate()
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        #: optional :class:`~repro.sim.topology.Topology` giving every
        #: endpoint a (dc, rack) placement; ``placement`` picks the
        #: replica-placement policy ("ring" | "spread" | "local" — see
        #: ``RangePartitioner``)
        self.topology = topology
        self.network = Network(self.sim, self.rng, latency,
                               topology=topology)
        self.coord = CoordinationService(self.sim, self.network)
        self.tracer = tracer if tracer is not None else NullTracer()
        if getattr(self.tracer, "sim", False) is None:
            self.tracer.sim = self.sim
        from ..obs.trace import NullRequestTracer
        self.request_tracer = (request_tracer if request_tracer is not None
                               else NullRequestTracer())
        self.request_tracer.bind(self.sim, self.rng)
        names = node_names or [f"node{i}" for i in range(n_nodes)]
        mapper = (ordered_key_of if self.config.order_preserving_keys
                  else key_of)
        self.partitioner = RangePartitioner(
            names, replication_factor=self.config.replication_factor,
            key_mapper=mapper, topology=topology, placement=placement)
        self.nodes: Dict[str, SpinnakerNode] = {
            name: SpinnakerNode(self.sim, self.network, self.rng, name,
                                self.partitioner, self.config,
                                tracer=self.tracer,
                                request_tracer=self.request_tracer)
            for name in names
        }
        self._clients: Dict[str, SpinnakerClient] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 60.0) -> None:
        """Boot every node and run until all cohorts have open leaders."""
        # lint: allow(dict-order) — nodes inserted as node0..nodeN-1
        for node in self.nodes.values():
            node.boot()
        self.run_until(self.is_ready, limit=ready_timeout,
                       what="cluster ready")

    def is_ready(self) -> bool:
        """True when every cohort has an open-for-writes leader."""
        return all(self.leader_of(c.cohort_id) is not None
                   for c in self.partitioner.cohorts)

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> SpinnakerNode:
        """Register and boot a new, cohort-less node.

        The node joins the coordination service's ``/nodes`` group and
        idles; it gains replicas when a rebalancer-driven
        :class:`~repro.core.partition.MembershipChange` naming it
        commits (see :mod:`repro.core.rebalance`)."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        self.partitioner.add_node(name)
        node = SpinnakerNode(self.sim, self.network, self.rng, name,
                             self.partitioner, self.config,
                             tracer=self.tracer,
                             request_tracer=self.request_tracer)
        self.nodes[name] = node
        node.boot()
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def leader_of(self, cohort_id: int) -> Optional[str]:
        """The name of the cohort's open leader, if any."""
        for member in self.partitioner.cohort(cohort_id).members:
            node = self.nodes[member]
            replica = node.replicas.get(cohort_id)
            if (node.alive and replica is not None
                    and replica.role == Role.LEADER
                    and replica.open_for_writes):
                return member
        return None

    def replica(self, node_name: str, cohort_id: int):
        return self.nodes[node_name].replicas[cohort_id]

    def keys_in_cohort(self, cohort_id: int, count: int,
                       prefix: bytes) -> List[bytes]:
        """The first ``count`` keys ``prefix0, prefix1, ...`` that the
        current map routes to ``cohort_id`` — how tests, chaos storms
        and benchmarks aim a deterministic key set at one cohort."""
        keys: List[bytes] = []
        i = 0
        while len(keys) < count:
            key = prefix + b"%d" % i
            if self.partitioner.cohort_for_key(
                    key_of(key)).cohort_id == cohort_id:
                keys.append(key)
            i += 1
        return keys

    def stats(self) -> Dict[str, Dict]:
        """Operational counters per node (reads/writes served, log
        activity, queue depths) plus network totals — the numbers an
        operator dashboard would chart."""
        per_node: Dict[str, Dict] = {}
        for name, node in self.nodes.items():
            per_node[name] = {
                "alive": node.alive,
                "reads_served": sum(r.reads_served
                                    for r in node.replicas.values()),
                "writes_served": sum(r.writes_served
                                     for r in node.replicas.values()),
                "proposes_handled": sum(r.proposes_handled
                                        for r in node.replicas.values()),
                "propose_batches_sent": sum(
                    r.batcher.batches_sent
                    for r in node.replicas.values()),
                "records_batched": sum(
                    r.batcher.records_batched
                    for r in node.replicas.values()),
                # a follower's commit queue is its log above f.cmt
                "pending_writes": sum(
                    len(r.queue) if r.role == Role.LEADER else len(
                        node.wal.write_records(cid, after=r.committed_lsn))
                    for cid, r in node.replicas.items()),
                "leader_of": [cid for cid, r in node.replicas.items()
                              if r.role == Role.LEADER],
                "log_forces": node.device.forces_completed,
                "log_bytes": node.device.bytes_written,
                "flushes": sum(r.engine.flushes
                               for r in node.replicas.values()),
                "sstables": sum(len(r.engine.sstables)
                                for r in node.replicas.values()),
                # strong requests held for leadership news, and how
                # each hold ended (core/replication.py)
                "requests_held": sum(r.holds
                                     for r in node.replicas.values()),
                "holds_ended_news": sum(r.holds_news
                                        for r in node.replicas.values()),
                "holds_ended_expiry": sum(r.holds_expired
                                          for r in node.replicas.values()),
                "holds_ended_crash": sum(r.holds_crashed
                                         for r in node.replicas.values()),
            }
        return {
            "nodes": per_node,
            "network": {
                "messages_sent": self.network.messages_sent,
                "messages_dropped": self.network.messages_dropped,
            },
        }

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def client(self, name: str = "client0") -> SpinnakerClient:
        client = self._clients.get(name)
        if client is None:
            client = SpinnakerClient(self.sim, self.network, name,
                                     self.partitioner, self.config,
                                     self.rng,
                                     request_tracer=self.request_tracer)
            self._clients[name] = client
        return client

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def expire_session_of(self, name: str) -> None:
        """Expire the node's coordination session immediately (skips the
        detection timeout — Table 1 excludes it from recovery time)."""
        node = self.nodes[name]
        session = None
        if node.zk is not None:
            session = node.zk.session
        if session is not None:
            self.coord.expire_session_now(session)

    def kill_leader(self, cohort_id: int,
                    skip_detection: bool = True) -> Optional[str]:
        """Crash the cohort's current leader; returns its name."""
        leader = self.leader_of(cohort_id)
        if leader is None:
            return None
        node = self.nodes[leader]
        session = node.zk.session if node.zk else None
        node.crash()
        if skip_detection and session is not None:
            self.coord.expire_session_now(session)
        return leader
