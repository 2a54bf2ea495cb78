"""Tunable parameters for a Spinnaker deployment.

The service-time constants are the calibration knobs that map the
simulated cluster onto the paper's testbed (Appendix C: two quad-core
2.1 GHz AMD nodes, 1 GbE, dedicated SATA logging disk, Java codebase).
They are deliberately centralized: every benchmark states which config it
ran, and the ablation benches flip individual flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.disk import DiskProfile

__all__ = ["SpinnakerConfig"]


@dataclass
class SpinnakerConfig:
    """All knobs for nodes, the protocol, and the hardware model."""

    # -- replication (§4, §5) -------------------------------------------
    replication_factor: int = 3
    #: leader commits after its own force plus this many follower acks
    acks_needed: int = 1
    #: interval between asynchronous commit messages (§5; Table 1 sweeps it)
    commit_period: float = 1.0
    #: piggyback commit info on propose messages (§D.1 optimization)
    piggyback_commits: bool = False
    #: Fig. 4's key overlap: the leader proposes in parallel with its own
    #: log force.  False serializes them (ablation bench).
    parallel_force_and_propose: bool = True

    # -- proposal batching (leader write pipeline; see core/batching.py) --
    #: coalesce independent client writes into multi-record proposes
    #: with one batched WAL force and one cumulative ack per peer
    propose_batching: bool = True
    #: flush a batch once it holds this many records
    propose_batch_max_records: int = 8
    #: longest the leader may hold a write back waiting for company
    propose_batch_window: float = 1.0e-3
    #: open the window only under queuing pressure (older writes still
    #: awaiting commit), so an idle cohort never pays it; False waits
    #: out the window unconditionally (fixed-delay ablation)
    propose_batch_adaptive: bool = True
    #: follower CPU cost per *extra* record in a batched propose (the
    #: first record pays the full ``write_follower_service``)
    propose_record_service: float = 0.03e-3

    # -- hardware model ----------------------------------------------------
    cores_per_node: int = 8
    log_profile: DiskProfile = field(default_factory=DiskProfile.sata_log)
    group_commit: bool = True

    # -- CPU service times (calibration; see DESIGN.md) -------------------
    #: per-read CPU+network-stack cost at the serving replica
    read_service: float = 1.8e-3
    #: extra cost of a strongly consistent read at the leader
    #: (leadership check + commit-queue consultation)
    strong_read_overhead: float = 0.3e-3
    #: leader-side cost to marshal a write + run the protocol
    write_leader_service: float = 0.45e-3
    #: follower-side cost to process a propose
    write_follower_service: float = 0.3e-3
    #: extra leader cost of a conditional put's read + version compare
    conditional_check_service: float = 0.9e-3
    #: applying one committed record to the memtable
    commit_apply_service: float = 20e-6
    #: replaying one record during local recovery
    recovery_replay_service: float = 15e-6
    #: leader-side cost to process a catch-up / re-propose round
    takeover_record_service: float = 1.4e-3
    #: per-row cost of an ordered range scan
    scan_row_service: float = 40e-6

    # -- data model ----------------------------------------------------
    #: map row keys to the keyspace preserving byte order (enables range
    #: scans; hashing spreads load better and is the default)
    order_preserving_keys: bool = False

    # -- storage ----------------------------------------------------------
    flush_threshold_bytes: int = 64 * 1024 * 1024

    # -- coordination (§4.2, §7) --------------------------------------------
    session_timeout: float = 2.0
    election_retry: float = 0.5
    takeover_state_timeout: float = 1.0

    # -- chunked catch-up (§6.1; see PROTOCOL.md) -----------------------
    #: soft byte budget per CatchupChunk (records + shipped SSTables);
    #: at least one record or table is always shipped to guarantee
    #: progress even when a single item exceeds the budget
    catchup_chunk_bytes: int = 256 * 1024
    #: per-chunk RPC timeout
    catchup_chunk_timeout: float = 2.0
    #: retries per chunk before the push is abandoned and the outer
    #: retry loop (the follower's re-ask, takeover, rebalance) kicks in
    catchup_chunk_retries: int = 3

    # -- client ---------------------------------------------------------
    client_op_timeout: float = 10.0
    client_max_retries: int = 8
    #: base retry backoff; after a few base-pace attempts, retry *k*
    #: waits a jittered exponential ``~backoff * 2**(k-4)`` capped by
    #: ``client_retry_backoff_cap`` (and by the remaining op deadline) —
    #: jitter de-synchronizes the retry herd that forms when a
    #: partition heals (see SpinnakerClient._backoff)
    client_retry_backoff: float = 0.02
    #: ceiling on the exponential step — low enough that a client
    #: sleeping through a brief outage (a leaderless migration window,
    #: a healed partition) notices recovery promptly
    client_retry_backoff_cap: float = 0.1
    #: per-try RPC timeout floor; the effective budget is
    #: ``max(floor, client_rtt_multiplier * network.rtt_bound())`` so
    #: WAN-scale round trips never read as spurious RpcTimeouts
    client_try_timeout: float = 2.0
    #: map-refresh (GetCohortMap) RPC timeout floor, scaled the same way
    client_map_timeout: float = 1.0
    #: how many worst-case round trips one try is allowed to take
    #: (covers queueing at a loaded leader on top of the wire time)
    client_rtt_multiplier: float = 4.0

    def validate(self) -> "SpinnakerConfig":
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if not 0 < self.acks_needed < self.replication_factor + 1:
            raise ValueError("acks_needed out of range")
        if self.commit_period <= 0:
            raise ValueError("commit_period must be positive")
        if self.propose_batch_max_records < 1:
            raise ValueError("propose_batch_max_records must be >= 1")
        if self.propose_batch_window <= 0:
            raise ValueError("propose_batch_window must be positive")
        if self.catchup_chunk_bytes < 1:
            raise ValueError("catchup_chunk_bytes must be >= 1")
        if self.catchup_chunk_timeout <= 0:
            raise ValueError("catchup_chunk_timeout must be positive")
        if self.catchup_chunk_retries < 0:
            raise ValueError("catchup_chunk_retries must be >= 0")
        if self.client_retry_backoff <= 0:
            raise ValueError("client_retry_backoff must be positive")
        if not (self.client_retry_backoff <= self.client_retry_backoff_cap
                <= self.client_op_timeout):
            raise ValueError("need client_retry_backoff <= "
                             "client_retry_backoff_cap <= "
                             "client_op_timeout")
        if self.client_try_timeout <= 0 or self.client_map_timeout <= 0:
            raise ValueError("client timeout floors must be positive")
        if self.client_rtt_multiplier < 1:
            raise ValueError("client_rtt_multiplier must be >= 1")
        return self

    @property
    def majority(self) -> int:
        return self.replication_factor // 2 + 1
