"""Client for the eventually consistent baseline.

Routes every request to a coordinator that replicates the key (a "smart"
client, like Cassandra's token-aware drivers).  Weak reads therefore cost
one network round trip — matching the paper, where Cassandra's weak read
latency is nearly identical to Spinnaker's timeline read (§9.1).
"""

from __future__ import annotations

from typing import Optional

from ..core.datamodel import RequestTimeout
from ..core.partition import RangePartitioner, key_of
from ..sim.events import Simulator
from ..sim.network import Network, RpcTimeout
from ..sim.process import timeout
from ..sim.rng import RngRegistry
from .config import CLIENT_RETRY_PAUSE, QUORUM, RPC_TIMEOUT, CassandraConfig
from .messages import CoordRead, CoordWrite

__all__ = ["CassandraClient", "ReadValue"]


class ReadValue:
    """A baseline read result: value + LWW timestamp (no versions)."""

    __slots__ = ("value", "timestamp", "found")

    def __init__(self, value: Optional[bytes], timestamp: float,
                 found: bool):
        self.value = value
        self.timestamp = timestamp
        self.found = found


class CassandraClient:
    """One client machine talking to the baseline cluster."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 partitioner: RangePartitioner, config: CassandraConfig,
                 rng: RngRegistry):
        self.sim = sim
        self.name = name
        self.partitioner = partitioner
        self.config = config
        self.endpoint = network.endpoint(name)
        self._rng = rng.stream(f"cclient:{name}")
        self.ops_completed = 0
        self.retries = 0

    # ------------------------------------------------------------------
    def write(self, key: bytes, colname: bytes, value: bytes,
              consistency: str = QUORUM):
        msg = CoordWrite(key=key, colname=colname, value=value,
                         consistency=consistency)
        return (yield from self._call(key, msg, 96 + len(value)))

    def delete(self, key: bytes, colname: bytes,
               consistency: str = QUORUM):
        msg = CoordWrite(key=key, colname=colname, value=None,
                         consistency=consistency, tombstone=True)
        return (yield from self._call(key, msg, 96))

    def read(self, key: bytes, colname: bytes,
             consistency: str = QUORUM):
        msg = CoordRead(key=key, colname=colname, consistency=consistency)
        reply = yield from self._call(key, msg, 96)
        return ReadValue(reply.get("value"), reply.get("timestamp", -1.0),
                         reply.get("found", False))

    # ------------------------------------------------------------------
    def _call(self, key: bytes, msg, size: int):
        cfg = self.config
        cohort = self.partitioner.cohort_for_key(key_of(key))
        members = list(cohort.members)
        target = self._rng.choice(members)
        deadline = self.sim.now + cfg.client_op_timeout
        while True:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                raise RequestTimeout(f"{type(msg).__name__} timed out")
            try:
                reply = yield self.endpoint.request(
                    target, msg, size=size,
                    timeout=min(remaining, RPC_TIMEOUT))
            except RpcTimeout:
                self.retries += 1
                target = members[(members.index(target) + 1)
                                 % len(members)]
                continue
            if reply.get("ok"):
                self.ops_completed += 1
                return reply
            self.retries += 1
            target = members[(members.index(target) + 1) % len(members)]
            yield timeout(self.sim, CLIENT_RETRY_PAUSE)
