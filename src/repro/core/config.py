"""Parameters and constants of a Spinnaker deployment.

:class:`SpinnakerConfig` holds what some caller sets; quorum sizes
follow from ``replication_factor`` (:attr:`SpinnakerConfig.majority`).
Whatever has one value in use is a constant below, defined once and
imported by name.  The *calibration* block maps the simulated cluster
onto the paper's testbed (Appendix C: two quad-core 2.1 GHz AMD nodes,
1 GbE, dedicated SATA logging disk, Java codebase); every report is
stated against it, which is why it is not configuration (DESIGN.md).
The *protocol timers* block paces retries nothing has needed to
re-pace (TUNING.md, "Constants, not knobs").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.disk import DiskProfile

__all__ = ["SpinnakerConfig"]

# -- calibration (App. C; see DESIGN.md) -----------------------------------
CORES_PER_NODE = 8
#: per-read CPU+network-stack cost at the serving replica
READ_SERVICE = 1.8e-3
#: extra cost of a strongly consistent read at the leader
#: (leadership check + commit-queue consultation)
STRONG_READ_OVERHEAD = 0.3e-3
#: leader-side cost to marshal a write + run the protocol
WRITE_LEADER_SERVICE = 0.45e-3
#: leader CPU per further op of a request (its first pays the above)
EXTRA_OP_SERVICE = 0.05e-3
#: follower-side cost to process a propose
WRITE_FOLLOWER_SERVICE = 0.3e-3
#: follower CPU cost per *extra* record in a batched propose (the
#: first record pays the full ``WRITE_FOLLOWER_SERVICE``)
PROPOSE_RECORD_SERVICE = 0.03e-3
#: extra leader cost of a conditional put's read + version compare
CONDITIONAL_CHECK_SERVICE = 0.9e-3
#: applying one committed record to the memtable
COMMIT_APPLY_SERVICE = 20e-6
#: replaying one record during local recovery
RECOVERY_REPLAY_SERVICE = 15e-6
#: leader-side cost to process a catch-up / re-propose round
TAKEOVER_RECORD_SERVICE = 1.4e-3
#: per-row cost of an ordered range scan
SCAN_ROW_SERVICE = 40e-6

# -- protocol timers ---------------------------------------------------------
#: pace of every "try again" loop in elections, takeover, rejoin and a
#: recovering follower's catch-up re-ask (§7)
ELECTION_RETRY = 0.5
#: RPC timeout of a TakeoverState / membership-prepare exchange (§6)
TAKEOVER_STATE_TIMEOUT = 1.0
#: per-chunk RPC timeout of a catch-up push (§6.1)
CATCHUP_CHUNK_TIMEOUT = 2.0
#: retries per chunk before the push is abandoned and the outer retry
#: loop (the follower's re-ask, takeover, rebalance) kicks in
CATCHUP_CHUNK_RETRIES = 3
#: base client retry backoff; after a few base-pace attempts, retry *k*
#: waits a jittered ``~backoff * 2**(k-4)`` up to the cap below (and the
#: op deadline) — jitter de-synchronizes the retry herd that forms when
#: a partition heals (see SpinnakerClient._backoff)
CLIENT_RETRY_BACKOFF = 0.02
#: ceiling on the exponential step — low enough that a client sleeping
#: through a brief outage (a leaderless migration window, a healed
#: partition) notices recovery promptly
CLIENT_RETRY_BACKOFF_CAP = 0.1
#: map-refresh (GetCohortMap) RPC timeout floor, RTT-scaled likewise
CLIENT_MAP_TIMEOUT = 1.0
#: how many worst-case round trips one try is allowed to take (covers
#: queueing at a loaded leader on top of the wire time)
CLIENT_RTT_MULTIPLIER = 4.0


@dataclass
class SpinnakerConfig:
    """What a deployment, experiment or test may set."""

    # -- replication (§4, §5) -------------------------------------------
    #: replicas per cohort; a write commits on a majority of them
    replication_factor: int = 3
    #: interval between asynchronous commit messages (§5; Table 1 sweeps it)
    commit_period: float = 1.0
    #: piggyback commit info on propose messages (§D.1 optimization)
    piggyback_commits: bool = False
    #: Fig. 4's key overlap: the leader proposes in parallel with its own
    #: log force.  False serializes them (ablation bench).
    parallel_force_and_propose: bool = True

    # -- proposal batching (see core/batching.py) -------------------------
    #: a follower folds the proposes queued for its CPU into one slice
    #: with one force and one cumulative ack; a new leader re-proposes
    #: its tail in chunks (one record each when off)
    propose_batching: bool = True
    #: records in one folded slice or one takeover chunk, at most
    propose_batch_max_records: int = 8

    # -- hardware model ----------------------------------------------------
    log_profile: DiskProfile = field(default_factory=DiskProfile.sata_log)
    group_commit: bool = True

    # -- data model and storage ------------------------------------------
    #: map row keys to the keyspace preserving byte order (enables range
    #: scans; hashing spreads load better and is the default)
    order_preserving_keys: bool = False
    flush_threshold_bytes: int = 64 * 1024 * 1024

    # -- coordination (§4.2, §7) and chunked catch-up (§6.1) -------------
    session_timeout: float = 2.0
    #: soft byte budget per CatchupChunk (records + shipped SSTables);
    #: at least one record or table is always shipped to guarantee
    #: progress even when a single item exceeds the budget
    catchup_chunk_bytes: int = 256 * 1024

    # -- client ---------------------------------------------------------
    client_op_timeout: float = 10.0
    client_max_retries: int = 8
    #: per-try RPC timeout floor; the effective budget is
    #: ``max(floor, CLIENT_RTT_MULTIPLIER * network.rtt_bound())`` so
    #: WAN-scale round trips never read as spurious RpcTimeouts
    client_try_timeout: float = 2.0

    def validate(self) -> "SpinnakerConfig":
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.commit_period <= 0:
            raise ValueError("commit_period must be positive")
        if self.propose_batch_max_records < 1:
            raise ValueError("propose_batch_max_records must be >= 1")
        if self.catchup_chunk_bytes < 1:
            raise ValueError("catchup_chunk_bytes must be >= 1")
        if (self.client_try_timeout <= 0
                or self.client_op_timeout < CLIENT_RETRY_BACKOFF_CAP):
            raise ValueError("need client_try_timeout > 0 and "
                             "client_op_timeout >= CLIENT_RETRY_BACKOFF_CAP")
        return self

    @property
    def majority(self) -> int:
        """Replicas, leader included, a commit or election needs (§4, §7)."""
        return self.replication_factor // 2 + 1
