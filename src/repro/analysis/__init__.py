"""Static analysis for the reproduction: determinism & protocol lints.

Everything the simulator proves — chaos regressions, shrunk schedules,
benchmark numbers — rests on one property: a run is a pure function of
``(seed, config)``.  This package enforces that property *statically*:

- :mod:`~repro.analysis.determinism` walks every module's AST and flags
  nondeterminism hazards (ambient randomness, wall-clock reads, real
  I/O, order-escaping ``set`` iteration, scheduling-visible ``dict``
  iteration, ``id()``/``hash()`` ordering, and non-``Event`` yields in
  process bodies);
- :mod:`~repro.analysis.atomicity` splits each process body into
  *yield segments* and flags check-then-act races across yields
  (stale guard snapshots, unguarded post-yield state writes, and
  collections mutated mid-iteration across a yield);
- :mod:`~repro.analysis.protocol` cross-references the frozen-dataclass
  message catalogs against the ``isinstance``-chain dispatchers and
  reports unhandled, dead, epoch-unchecked, and size-less message
  types;
- :mod:`~repro.analysis.findings` provides the shared finding model
  and the one escape hatch, a ``# lint: allow(<rule>)`` comment, which
  is itself a finding when it suppresses nothing;
- :mod:`~repro.analysis.runner` ties it together and
  :mod:`~repro.analysis.cli` exposes ``python -m repro lint``.
"""

from __future__ import annotations

from .atomicity import (ATOMICITY_RULES, DEFAULT_GUARD_ATTRS,
                        lint_atomicity)
from .determinism import DETERMINISM_RULES, lint_source
from .findings import Finding, parse_pragmas, suppressed
from .protocol import (DEFAULT_PROTOCOLS, ProtocolSpec, check_protocol,
                       check_protocols)
from .runner import LintResult, run_lint

__all__ = [
    "ATOMICITY_RULES",
    "DEFAULT_GUARD_ATTRS",
    "DEFAULT_PROTOCOLS",
    "DETERMINISM_RULES",
    "Finding",
    "LintResult",
    "ProtocolSpec",
    "check_protocol",
    "check_protocols",
    "lint_atomicity",
    "lint_source",
    "parse_pragmas",
    "run_lint",
    "suppressed",
]
