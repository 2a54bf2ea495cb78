"""The protocol-knob registry.

Every field of :class:`~repro.core.config.SpinnakerConfig` but
``log_profile`` has one :class:`Knob`, in the dataclass's field order:
its valid range and — for the knobs a tuning profile searches — the
candidate grid coordinate descent tries.  A knob's type and default are
the field's.  ``TUNING.md``'s inventory documents each knob (owning
module, trace phase moved, source); ``tests/test_docs.py`` checks its
rows and grids against this registry, and ``tests/tune`` checks the
registry against the dataclass.  The search walks each profile's
``searched`` tuple, not this order.

The *calibration constants* (CPU service times, disk profiles) are
deliberately not knobs: they map the simulator onto the paper's
hardware and tuning them would change the question, not the answer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..core.config import SpinnakerConfig

__all__ = ["Knob", "KNOBS", "Value", "get_knob", "apply_values",
           "validate_values"]

Value = Union[bool, int, float]


@dataclass(frozen=True)
class Knob:
    """One tunable protocol parameter: a :class:`SpinnakerConfig` field."""

    name: str
    #: inclusive valid range (bool knobs use (False, True))
    lo: Value
    hi: Value
    #: candidate grid for the search driver; empty = not searched
    #: (documented and overridable, but no profile walks it)
    candidates: Tuple[Value, ...] = ()
    #: a bool knob this one means nothing without: the search skips
    #: this knob's grid while the gate is off
    gate: Optional[str] = None

    @property
    def default(self) -> Value:
        return getattr(SpinnakerConfig, self.name)

    def contains(self, value: Value) -> bool:
        kind = type(self.default)
        if kind is bool:
            return isinstance(value, bool)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if kind is int and int(value) != value:
            return False
        return self.lo <= value <= self.hi


KNOBS: Tuple[Knob, ...] = (
    Knob("replication_factor", 1, 7),
    Knob("commit_period", 0.05, 15.0, candidates=(0.25, 0.5, 1.0)),
    Knob("piggyback_commits", False, True, candidates=(False, True)),
    Knob("parallel_force_and_propose", False, True),
    Knob("propose_batching", False, True, candidates=(False, True)),
    Knob("propose_batch_max_records", 1, 128,
         candidates=(4, 8, 16, 32), gate="propose_batching"),
    Knob("group_commit", False, True, candidates=(False, True)),
    Knob("order_preserving_keys", False, True),
    Knob("flush_threshold_bytes", 4096, 1 << 30),
    Knob("session_timeout", 0.5, 30.0),
    Knob("catchup_chunk_bytes", 4096, 1 << 24),
    Knob("client_op_timeout", 1.0, 120.0),
    Knob("client_max_retries", 0, 1000),
    Knob("client_try_timeout", 0.1, 30.0),
)

_BY_NAME: Dict[str, Knob] = {k.name: k for k in KNOBS}


def get_knob(name: str) -> Knob:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown knob {name!r}; see repro.tune.registry"
                       ) from None


def validate_values(values: Dict[str, Value]) -> None:
    """Raise on unknown knob names or out-of-range values."""
    for name, value in values.items():
        knob = get_knob(name)
        if not knob.contains(value):
            raise ValueError(
                f"{name}={value!r} outside valid range "
                f"[{knob.lo}, {knob.hi}] ({type(knob.default).__name__})")


def apply_values(config: SpinnakerConfig,
                 values: Dict[str, Value]) -> SpinnakerConfig:
    """A copy of ``config`` with the knob overlay applied (validated)."""
    validate_values(values)
    out = dataclasses.replace(config)
    for name, value in values.items():
        setattr(out, name, value)
    return out.validate()
