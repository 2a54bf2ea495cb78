"""Walk a source tree, run every check, apply pragmas and the baseline.

The runner makes two passes.  Pass one collects, across *all* modules,
the names of generator functions handed to ``spawn``-like calls plus
every ``yield from`` delegation edge — a process body is often defined
in one module and spawned from another (``leader_monitor`` lives in
``election.py``, is spawned by ``node.py``), and its delegates
(``run_election`` -> ``_bump_epoch``) may live in yet another.  The
spawn set is closed over the edge graph *across modules* so the
yield-discipline and atomicity rules see the full process closure.
Functions *parked* to run after a scheduling point (handed to the
CPU-charge primitive, ``after`` or ``add_callback``) are collected the
same way: the atomicity rules treat each as a post-yield segment.
Pass two lints each module with that global knowledge, then runs the
protocol exhaustiveness checks, filters ``# lint: allow(...)``
pragmas, and splits what remains against the baseline (reporting any
baseline entries that no longer match anything as stale).  The
``write-only-slot`` rule is whole-tree too, and looks further: a slot
counts as read if any module under the enclosing project's ``src/``,
``tests/``, ``benchmarks/``, ``perfbench/`` or ``examples/`` reads it;
``unset-option`` wants a setter there or in ``configs/*.json``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .atomicity import lint_atomicity
from .determinism import (close_process_names, collect_continuations,
                          collect_spawned, collect_yield_edges, lint_source,
                          loaded_attributes, set_names, unset_options,
                          write_only_slots)
from .findings import (Baseline, Finding, match_baseline, parse_pragmas,
                       suppressed)
from .protocol import ProtocolSpec, check_protocols

__all__ = ["LintResult", "run_lint", "iter_py_files", "is_sim_visible",
           "project_root"]

#: top-level packages whose code never runs inside the simulation
#: (reporting, CLIs, and this analysis suite itself)
NON_SIM_PACKAGES = {"bench", "analysis", "tune"}
NON_SIM_FILES = {"__main__.py", "cli.py"}  # CLI front-ends print by design
#: project directories whose modules count as readers of a slot
READER_DIRS = ("src", "tests", "benchmarks", "perfbench", "examples")


@dataclass
class LintResult:
    """Outcome of one full lint run."""

    root: Path
    findings: List[Finding] = field(default_factory=list)      # new
    baselined: List[Finding] = field(default_factory=list)
    pragma_suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: baseline entries (rule, path, code) that matched nothing — rot
    stale_baseline: List[Tuple[str, str, str]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.findings and not self.parse_errors
                and not self.stale_baseline)

    def all_raw(self) -> List[Finding]:
        """Every finding before baseline filtering (for --write-baseline)."""
        return sorted(self.findings + self.baselined,
                      key=lambda f: (f.path, f.line, f.rule))


def iter_py_files(root: Path) -> List[Path]:
    return sorted(p for p in root.rglob("*.py")
                  if "__pycache__" not in p.parts)


def is_sim_visible(rel: Path) -> bool:
    """Whether determinism rules for sim-internal code apply to ``rel``."""
    if rel.name in NON_SIM_FILES:
        return False
    return not (rel.parts and rel.parts[0] in NON_SIM_PACKAGES)


def project_root(root: Path) -> Optional[Path]:
    """The directory holding ``pyproject.toml`` at or above ``root``."""
    for candidate in (root, *root.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


def _outside_readers(root: Path) -> List[Path]:
    """Modules outside ``root`` that may read its classes' slots: the
    rest of the enclosing project, if there is one."""
    project = project_root(root)
    if project is None:
        return []
    return [path for sub in READER_DIRS
            for path in iter_py_files(project / sub)
            if root not in path.parents]


def run_lint(root: Path,
             baseline_path: Optional[Path] = None,
             protocols: Optional[Sequence[ProtocolSpec]] = None,
             rules: Optional[Set[str]] = None) -> LintResult:
    """Lint every module under ``root`` plus the protocol catalogs.

    ``rules`` restricts the run to the named rules when given.
    ``protocols=None`` uses :data:`~repro.analysis.protocol.
    DEFAULT_PROTOCOLS` (which self-skip unless their files exist under
    ``root``); pass ``()`` to disable protocol checks entirely.
    """
    root = root.resolve()
    result = LintResult(root=root)
    files = iter_py_files(root)
    sources: Dict[Path, str] = {}
    trees: Dict[Path, ast.AST] = {}
    spawned: Set[str] = set()
    parked: Set[str] = set()    # functions handed to charge/after/...
    edges: Dict[str, Set[str]] = {}
    loaded: Set[str] = set()    # attribute names read, by anyone
    setters: Dict[Path, Set[str]] = {}  # option names each file sets
    for path in (project_root(root) or root).glob("configs/*.json"):
        json.loads(path.read_text(encoding="utf-8"),
                   object_hook=setters.setdefault(path, set()).update)

    for path in files + _outside_readers(root):
        try:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
        except (SyntaxError, UnicodeDecodeError) as err:
            result.parse_errors.append(f"{path}: {err}")
            continue
        loaded |= loaded_attributes(tree)
        if path.parts[-2:] != ("tune", "registry.py"):   # names them all
            setters[path] = set_names(tree)
        if root not in path.parents:
            continue            # a reader of the tree's slots, not linted
        sources[path] = text
        trees[path] = tree
        spawned |= collect_spawned(tree)
        parked |= collect_continuations(tree)
        for name, callees in collect_yield_edges(tree).items():
            edges.setdefault(name, set()).update(callees)

    # Close the spawn set over yield-from edges across *all* modules:
    # a generator delegated to from a process body is process code,
    # wherever it is defined.
    process_names = close_process_names(spawned, edges)

    raw: List[Finding] = []
    for path, text in sources.items():
        rel = path.relative_to(root)
        raw.extend(write_only_slots(trees[path], rel.as_posix(),
                                    text.splitlines(), loaded))
        if rel.parts[0] in ("core", "baseline"):
            others = [names for p, names in setters.items() if p != path]
            raw.extend(unset_options(trees[path], rel.as_posix(),
                                     text.splitlines(), set().union(*others)))
        result.files_checked += 1
        sim_visible = is_sim_visible(rel)
        raw.extend(lint_source(text, rel.as_posix(),
                               sim_visible=sim_visible,
                               spawned=process_names))
        if sim_visible:
            raw.extend(lint_atomicity(text, rel.as_posix(),
                                      spawned=process_names,
                                      continuations=parked))
    raw.extend(check_protocols(root, protocols))

    if rules is not None:
        raw = [f for f in raw if f.rule in rules]

    # pragma suppression, per referenced file
    pragma_cache: Dict[str, Dict[int, Set[str]]] = {}
    surviving: List[Finding] = []
    for f in sorted(raw, key=lambda x: (x.path, x.line, x.rule)):
        pragmas = pragma_cache.get(f.path)
        if pragmas is None:
            target = root / f.path
            if target in sources:
                pragmas = parse_pragmas(sources[target],
                                        trees.get(target))
            elif target.exists():
                pragmas = parse_pragmas(
                    target.read_text(encoding="utf-8"))
            else:
                pragmas = {}
            pragma_cache[f.path] = pragmas
        if suppressed(f, pragmas):
            result.pragma_suppressed.append(f)
        else:
            surviving.append(f)

    baseline = None
    if baseline_path is not None and baseline_path.exists():
        baseline = Baseline.load(baseline_path)
    result.findings, result.baselined = match_baseline(surviving, baseline)

    # Stale-baseline hygiene: entries whose budget was never consumed
    # point at findings that no longer exist.  When the run is
    # restricted to a rule subset, only entries for those rules can be
    # judged stale (the others were never given a chance to match).
    if baseline is not None:
        used = Baseline.from_findings(result.baselined).entries
        for key in sorted(baseline.entries):
            if rules is not None and key[0] not in rules:
                continue
            leftover = baseline.entries[key] - used.get(key, 0)
            result.stale_baseline.extend([key] * leftover)
    return result
