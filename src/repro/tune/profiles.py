"""Tuning profiles and the checked-in tuned configs.

A :class:`TuneProfile` bundles what one tuning run needs: the base
(hand-tuned) config for a hardware profile, the deterministic evaluator
shape (nodes, closed-loop threads, ops per trial — the per-trial budget
cap), the phase-weighted objective, the knobs the search walks, and an
optional multi-DC topology.  Four profiles mirror the repo's benchmark
matrix: ``sata`` / ``ssd`` / ``mem`` (flat, Figs. 9/13/16) and ``wan``
(3 datacenters, fig-wan's link model).

Winning configs are checked in under ``configs/tuned-<profile>.json``.
With ``python -m repro bench ... --tuned-profile <name>`` every
Spinnaker cluster a bench run builds gets the tuned overlay applied (see
:func:`activate_tuned_profile` and ``bench/harness.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..core.config import SpinnakerConfig
from ..sim.disk import DiskProfile
from ..sim.topology import Topology
from .objective import ObjectiveSpec
from .registry import Value, get_knob

__all__ = ["TuneProfile", "PROFILES", "DETUNED_START", "get_profile",
           "CONFIG_DIR", "tuned_config_path", "load_tuned_values",
           "write_tuned_config",
           "activate_tuned_profile", "clear_tuned_profile",
           "active_overlay"]

#: repo-root configs/ directory holding the tuned overlays
CONFIG_DIR = Path(__file__).resolve().parents[3] / "configs"


def _wan_topology(n_nodes: int) -> Topology:
    """A small 3-DC topology in the fig-wan mold (symmetric links are
    enough for tuning; the asymmetry in fig-wan probes routing, not
    knobs)."""
    return Topology.round_robin(n_nodes, wan_one_way=0.02)


@dataclass(frozen=True)
class TuneProfile:
    """Everything one deterministic tuning run needs."""

    name: str
    #: builds the hand-tuned base config the search starts from
    base_config: Callable[[], SpinnakerConfig]
    #: knobs the coordinate descent walks, in order
    searched: Tuple[str, ...]
    objective: ObjectiveSpec
    #: evaluator shape — one trial is one closed-loop load point
    n_nodes: int = 5
    threads: int = 24
    ops_per_thread: int = 40
    warmup_ops: int = 8
    #: builds the (topology, placement) pair; None = flat cluster
    topology: Optional[Callable[[int], Topology]] = None
    placement: str = "ring"
    doc: str = ""


_BATCH_KNOBS = ("propose_batching", "propose_batch_max_records",
                "group_commit")
_PROTO_KNOBS = ("commit_period", "piggyback_commits")

#: A deliberately bad starting overlay for recovery runs: batching and
#: group commit off, commit broadcasts nearly stalled.  fig-tune's
#: recovery arm starts the search here and must climb back to within
#: noise of the hand-tuned optimum — proof the search, not the starting
#: point, does the work.  Every value is legal (in range) but outside
#: the candidate grids' sweet spot.
DETUNED_START: Dict[str, Value] = {
    "propose_batching": False,
    "group_commit": False,
    "commit_period": 10.0,
}


PROFILES: Dict[str, TuneProfile] = {
    "sata": TuneProfile(
        name="sata",
        base_config=lambda: SpinnakerConfig(
            log_profile=DiskProfile.sata_log()),
        searched=_BATCH_KNOBS + _PROTO_KNOBS,
        objective=ObjectiveSpec(focus_phases=("log_force",)),
        doc="dedicated SATA logging disk (fig9); log_force dominates "
            "(0.70 share), so batching and group commit are the levers"),
    "ssd": TuneProfile(
        name="ssd",
        base_config=lambda: SpinnakerConfig(
            log_profile=DiskProfile.ssd_log()),
        searched=_BATCH_KNOBS + _PROTO_KNOBS,
        objective=ObjectiveSpec(
            focus_phases=("replicate_rtt", "quorum_wait")),
        doc="flash log (fig13); forces are cheap, so the replication "
            "round trip and quorum wait dominate"),
    "mem": TuneProfile(
        name="mem",
        base_config=lambda: SpinnakerConfig(
            log_profile=DiskProfile.memory_log()),
        searched=_BATCH_KNOBS + _PROTO_KNOBS,
        objective=ObjectiveSpec(
            focus_phases=("propose", "replicate_rtt")),
        threads=32,
        doc="main-memory log (fig16); per-message CPU cost dominates, "
            "the regime proposal batching was built for"),
    "wan": TuneProfile(
        name="wan",
        base_config=lambda: SpinnakerConfig(
            log_profile=DiskProfile.ssd_log()),
        searched=_PROTO_KNOBS + ("propose_batch_max_records",),
        objective=ObjectiveSpec(
            focus_phases=("replicate_rtt", "quorum_wait"),
            throughput_weight=0.1),
        n_nodes=6, threads=12, ops_per_thread=30,
        topology=_wan_topology, placement="spread",
        doc="3-DC spread placement over ~20 ms WAN links (fig-wan); "
            "the quorum ack crosses a WAN link, so the commit "
            "broadcast cadence and batching amortization are what's "
            "left to tune"),
}


def get_profile(name: str) -> TuneProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown tuning profile {name!r}; choices: "
                       f"{', '.join(sorted(PROFILES))}") from None


# ---------------------------------------------------------------------------
# Checked-in tuned configs
# ---------------------------------------------------------------------------

def tuned_config_path(name: str, config_dir: Optional[Path] = None
                      ) -> Path:
    get_profile(name)  # validate the name
    return (config_dir or CONFIG_DIR) / f"tuned-{name}.json"


def load_tuned_values(name: str, config_dir: Optional[Path] = None
                      ) -> Dict[str, Value]:
    """The tuned knob overlay for ``name`` (validated against the
    registry)."""
    path = tuned_config_path(name, config_dir)
    with open(path) as fh:
        payload = json.load(fh)
    values: Dict[str, Value] = {}
    for key, value in sorted(payload["values"].items()):
        kind = type(get_knob(key).default)
        values[key] = value if kind is bool else kind(value)
    return values


def write_tuned_config(name: str, values: Dict[str, Value],
                       meta: Optional[dict] = None,
                       config_dir: Optional[Path] = None) -> Path:
    """Write ``configs/tuned-<name>.json`` (values + provenance)."""
    path = tuned_config_path(name, config_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"profile": name, "values": dict(sorted(values.items()))}
    if meta:
        payload["meta"] = meta
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# The --tuned-profile overlay hook
# ---------------------------------------------------------------------------

#: the ``--tuned-profile`` overlay every bench target applies, if any
_active: Optional[Dict[str, Value]] = None


def activate_tuned_profile(name: str,
                           config_dir: Optional[Path] = None) -> None:
    """Make every subsequently built bench target overlay the tuned
    values of ``name`` (see ``SpinnakerTarget``).  One profile at a
    time; CLI runs clear it in a ``finally``."""
    global _active
    _active = load_tuned_values(name, config_dir)


def clear_tuned_profile() -> None:
    global _active
    _active = None


def active_overlay() -> Optional[Dict[str, Value]]:
    """The active tuned overlay, or None when no profile is active."""
    return _active
