"""Self-tuning control plane for protocol knobs (offline).

An Evaluator/Solver-style tuner over the repo's deterministic
simulations:

* :mod:`repro.tune.registry` — one knob per config field: its valid
  range and, when a profile searches it, its candidate grid
  (``TUNING.md``'s inventory is checked against it);
* :mod:`repro.tune.objective` — the scalar score: p50 latency plus a
  share of the time spent in the phases that dominate the profile,
  minus a throughput credit, plus an error penalty;
* :mod:`repro.tune.evaluator` — one trial = one fully traced,
  seeded closed-loop load point (bit-identical per seed);
* :mod:`repro.tune.search` — coordinate descent over the registry
  grids, in each profile's own knob order, with a trial ledger and
  hard budget caps;
* :mod:`repro.tune.profiles` — the sata/ssd/mem/wan tuning profiles
  and the checked-in ``configs/tuned-<profile>.json`` overlays that
  ``python -m repro bench ... --tuned-profile`` applies.

``python -m repro tune`` is the CLI front-end; the ``fig-tune``
experiment measures tuned-vs-hand-tuned deltas.  See ``TUNING.md``.
"""

from .objective import ObjectiveSpec, objective_score
from .profiles import (PROFILES, TuneProfile, activate_tuned_profile,
                       clear_tuned_profile, get_profile, load_tuned_values,
                       tuned_config_path, write_tuned_config)
from .registry import KNOBS, Knob, apply_values, get_knob

__all__ = [
    "KNOBS", "Knob", "get_knob", "apply_values",
    "ObjectiveSpec", "objective_score",
    "PROFILES", "TuneProfile", "get_profile", "tuned_config_path",
    "load_tuned_values", "write_tuned_config",
    "activate_tuned_profile", "clear_tuned_profile",
]
