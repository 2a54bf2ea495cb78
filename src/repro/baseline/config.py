"""Parameters and constants of the eventually consistent baseline.

Where a value models the same physical thing as in Spinnaker (CPU cost
of a read, cores per node) it *is* Spinnaker's — ``baseline/node.py``
imports it from :mod:`repro.core.config` — because Spinnaker was derived
from the Cassandra codebase precisely so the comparison isolates the
replication protocol (Appendix C); the two stores share the storage and
hardware models the same way.  The baseline's own service times and RPC
pacing are constants for the reason Spinnaker's are: nothing sets them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.disk import DiskProfile

__all__ = ["CassandraConfig", "WEAK", "QUORUM"]

#: consistency levels (subset the paper evaluates)
WEAK = "weak"
QUORUM = "quorum"

# -- calibration (beside the two shared with Spinnaker) ---------------------
#: coordinator-side cost of a quorum read: merging responses and
#: checking for conflicts caused by eventual consistency (§9.1)
CONFLICT_CHECK_SERVICE = 1.6e-3
#: replica-side cost to process a write
WRITE_REPLICA_SERVICE = 0.3e-3
#: coordinator-side cost to fan a write out
WRITE_COORDINATOR_SERVICE = 0.55e-3
FLUSH_THRESHOLD_BYTES = 64 * 1024 * 1024

# -- RPC pacing ------------------------------------------------------------
#: per-try timeout of client and replica-to-replica RPCs
RPC_TIMEOUT = 2.0
#: client pause before retrying a refused operation
CLIENT_RETRY_PAUSE = 0.02


@dataclass
class CassandraConfig:
    """What an experiment or test may set on the baseline store."""

    replication_factor: int = 3
    log_profile: DiskProfile = field(default_factory=DiskProfile.sata_log)
    client_op_timeout: float = 10.0

    # -- anti-entropy ---------------------------------------------------
    #: how long the coordinator waits before writing a hint for a
    #: replica that did not ack (hinted handoff)
    hint_timeout: float = 1.0
    #: how often stored hints are replayed
    hint_replay_interval: float = 5.0

    def validate(self) -> "CassandraConfig":
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        return self

    def acks_for(self, consistency: str) -> int:
        if consistency == WEAK:
            return 1
        if consistency == QUORUM:
            return self.replication_factor // 2 + 1
        raise ValueError(f"unknown consistency {consistency!r}")

    def reads_for(self, consistency: str) -> int:
        return self.acks_for(consistency)
