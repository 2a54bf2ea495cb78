"""The declarative protocol-knob registry.

Every field of :class:`~repro.core.config.SpinnakerConfig` but
``log_profile`` has one :class:`Knob` entry, and vice versa: its type,
valid range, the module that consumes it, which trace phase (see
``repro.obs``) it moves, where it came from (paper section or PR), and
— for the knobs the offline tuner searches — the candidate grid
coordinate descent walks.  ``TUNING.md`` renders this registry as the human-readable knob
inventory; ``tests/test_docs.py`` checks the two never drift apart, and
``tests/tune`` checks every entry against the real config dataclass
(name exists, default matches, range contains the default).

The *calibration constants* (CPU service times, disk profiles) are
deliberately not knobs: they map the simulator onto the paper's
hardware and tuning them would change the question, not the answer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import SpinnakerConfig

__all__ = ["Knob", "KNOBS", "Value", "knob_names", "get_knob",
           "searched_knobs", "apply_values", "config_values",
           "validate_registry", "validate_values"]

Value = Union[bool, int, float]


@dataclass(frozen=True)
class Knob:
    """One tunable protocol parameter."""

    #: field name on :class:`SpinnakerConfig`
    name: str
    #: "bool" | "int" | "float"
    type: str
    #: inclusive valid range (bool knobs use (False, True))
    lo: Value
    hi: Value
    #: module that consumes the knob (repo-relative path)
    module: str
    #: trace phase(s) the knob chiefly moves (names from repro.obs)
    phase: str
    #: paper section or PR that introduced it
    source: str
    #: one-line operator-facing description
    doc: str
    #: candidate grid for the search driver; empty = inventory-only
    #: (documented and overridable, but not searched by default)
    candidates: Tuple[Value, ...] = ()

    @property
    def default(self) -> Value:
        return _DEFAULTS[self.name]

    def contains(self, value: Value) -> bool:
        if self.type == "bool":
            return isinstance(value, bool)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if self.type == "int" and int(value) != value:
            return False
        return self.lo <= value <= self.hi


_DEFAULTS: Dict[str, Value] = {
    f.name: f.default for f in dataclasses.fields(SpinnakerConfig)
    if f.default is not dataclasses.MISSING
}


#: The complete inventory, grouped roughly by owning layer.  Order is
#: the order the search driver walks coordinates in, so it is part of
#: the tuner's deterministic behaviour — append, don't reshuffle.
KNOBS: Tuple[Knob, ...] = (
    # -- leader proposal batching (core/batching.py, PR 3) --------------
    Knob("propose_batching", "bool", False, True,
         "core/batching.py", "log_force, propose", "PR 3",
         "coalesce concurrent client writes into multi-record proposes "
         "with one batched WAL force and one cumulative ack per peer",
         candidates=(False, True)),
    Knob("propose_batch_max_records", "int", 1, 128,
         "core/batching.py", "log_force", "PR 3 (Fig. 16 ablation)",
         "flush a batch once it holds this many records",
         candidates=(4, 8, 16, 32)),
    Knob("propose_batch_window", "float", 1e-4, 1.6e-2,
         "core/batching.py", "log_force, quorum_wait", "PR 3",
         "longest the leader may hold a write back waiting for company",
         candidates=(0.25e-3, 0.5e-3, 1.0e-3, 2.0e-3, 4.0e-3)),
    # -- replication protocol (core/replication.py, §5 / §D.1) ----------
    Knob("commit_period", "float", 0.05, 15.0,
         "core/replication.py", "commit_apply (and Table 1 recovery)",
         "§5, Table 1",
         "interval between asynchronous commit broadcasts; recovery "
         "re-proposes the unresolved window this opens",
         candidates=(0.25, 0.5, 1.0)),
    Knob("piggyback_commits", "bool", False, True,
         "core/replication.py", "commit_apply", "§D.1",
         "piggyback commit info on propose messages instead of waiting "
         "for the periodic broadcast",
         candidates=(False, True)),
    Knob("parallel_force_and_propose", "bool", False, True,
         "core/replication.py", "log_force ∥ replicate_rtt", "Fig. 4",
         "the leader forces its log in parallel with sending proposes; "
         "False serializes them (ablation)",
         candidates=(False, True)),
    Knob("replication_factor", "int", 1, 7,
         "core/partition.py", "replicate_rtt, quorum_wait", "§4",
         "replicas per cohort (structural: resizing an existing "
         "cluster goes through elastic membership, not this knob)"),
    # -- log device (sim/disk.py via core config, [13]) ------------------
    Knob("group_commit", "bool", False, True,
         "sim/disk.py", "log_force", "[13] (App. C)",
         "force requests arriving while the log device is busy are "
         "written together by the next operation",
         candidates=(False, True)),
    # -- storage (storage/engine.py, PR 6) -------------------------------
    Knob("flush_threshold_bytes", "int", 4096, 1 << 30,
         "storage/engine.py", "commit_apply (flush stalls)", "§6",
         "memtable bytes before a flush rolls the log into SSTables"),
    # -- chunked catch-up (core/recovery.py, PR 6) ------------------------
    Knob("catchup_chunk_bytes", "int", 4096, 1 << 24,
         "core/recovery.py", "catchup_fetch", "PR 6 (§6.1)",
         "soft byte budget per CatchupChunk"),
    # -- coordination & elections (coord/, core/election.py, §4.2/§7) ----
    Knob("session_timeout", "float", 0.5, 30.0,
         "coord/service.py", "none (failure detection delay)", "§4.2",
         "coordination-service session/lease timeout; WAN runs derive "
         "heartbeat budgets from it and the topology RTT (PR 9)"),
    # -- client routing & retries (core/api.py, §3 / PR 9) ---------------
    Knob("client_op_timeout", "float", 1.0, 120.0,
         "core/api.py", "route", "§3",
         "end-to-end client operation deadline"),
    Knob("client_max_retries", "int", 0, 1000,
         "core/api.py", "route", "§3",
         "attempts before an operation fails with RequestTimeout"),
    Knob("client_try_timeout", "float", 0.1, 30.0,
         "core/api.py", "route", "PR 9",
         "per-try RPC timeout floor (scaled by the topology RTT)"),
    # -- data model (core/partition.py, §8.3) ----------------------------
    Knob("order_preserving_keys", "bool", False, True,
         "core/partition.py", "read_serve (range scans)", "§8.3",
         "route keys order-preservingly (enables range scans) instead "
         "of hashed (spreads load; the read-routing trade-off)"),
)

_BY_NAME: Dict[str, Knob] = {k.name: k for k in KNOBS}


def knob_names() -> List[str]:
    return [k.name for k in KNOBS]


def get_knob(name: str) -> Knob:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown knob {name!r}; see repro.tune.registry"
                       ) from None


def searched_knobs() -> List[Knob]:
    """Knobs with a candidate grid (the default search space)."""
    return [k for k in KNOBS if k.candidates]


def validate_registry() -> None:
    """Check the registry against the real config dataclass."""
    fields = {f.name for f in dataclasses.fields(SpinnakerConfig)}
    for knob in KNOBS:
        if knob.name not in fields:
            raise AssertionError(
                f"knob {knob.name!r} is not a SpinnakerConfig field")
        if knob.name not in _DEFAULTS:
            raise AssertionError(
                f"knob {knob.name!r} has a factory default; registry "
                f"cannot express it")
        if not knob.contains(knob.default):
            raise AssertionError(
                f"default {knob.default!r} of {knob.name!r} outside "
                f"its declared range [{knob.lo}, {knob.hi}]")
        for cand in knob.candidates:
            if not knob.contains(cand):
                raise AssertionError(
                    f"candidate {cand!r} of {knob.name!r} outside its "
                    f"declared range")


def validate_values(values: Dict[str, Value]) -> None:
    """Raise on unknown knob names or out-of-range values."""
    for name, value in values.items():
        knob = get_knob(name)
        if not knob.contains(value):
            raise ValueError(
                f"{name}={value!r} outside valid range "
                f"[{knob.lo}, {knob.hi}] ({knob.type})")


def apply_values(config: SpinnakerConfig,
                 values: Dict[str, Value]) -> SpinnakerConfig:
    """A copy of ``config`` with the knob overlay applied (validated)."""
    validate_values(values)
    out = dataclasses.replace(config)
    for name, value in values.items():
        setattr(out, name, value)
    return out.validate()


def config_values(config: SpinnakerConfig,
                  names: Optional[Sequence[str]] = None
                  ) -> Dict[str, Value]:
    """The registry-known knob values of ``config`` (for ledgers)."""
    picked = names if names is not None else knob_names()
    return {name: getattr(config, name) for name in picked}
