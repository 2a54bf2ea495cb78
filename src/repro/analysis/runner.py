"""Walk a source tree, run every check, apply pragmas.

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
protocol exhaustiveness checks and filters findings through the
``# lint: allow(...)`` pragmas, reporting each pragma rule that
suppressed nothing as an ``unused-pragma`` finding.  The
``write-only-slot`` rule is whole-tree too, and looks further: a slot
counts as read if any module under the enclosing project's ``src/``,
``tests/``, ``benchmarks/``, ``perfbench/`` or ``examples/`` reads it;
``unset-option`` wants a setter there or in ``configs/*.json``, and
``unpassed-parameter`` a call there that passes the parameter.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from .atomicity import lint_atomicity
from .determinism import (close_process_names, collect_calls,
                          collect_continuations, collect_spawned,
                          collect_yield_edges, lint_source,
                          loaded_attributes, set_names, unpassed_parameters,
                          unset_options, write_only_slots)
from .findings import (Finding, Pragma, parse_pragmas, suppressed,
                       unused_pragmas)
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
    findings: List[Finding] = field(default_factory=list)
    pragma_suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


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
             protocols: Optional[Sequence[ProtocolSpec]] = None,
             rules: Optional[Set[str]] = None) -> LintResult:
    """Lint every module under ``root`` plus the protocol catalogs.

    ``rules`` restricts the run to the named rules when given, and the
    unused-pragma check to pragma names among them.
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
    passed: Dict[str, Set] = {}     # callee name -> arguments some call passes
    valued: Set[str] = set()        # names used other than as a call target
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
        collect_calls(tree, passed, valued)
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
    pragmas: Dict[str, List[Pragma]] = {}
    for path, text in sources.items():
        rel = path.relative_to(root)
        lines = text.splitlines()
        pragmas[rel.as_posix()] = parse_pragmas(text, trees[path])
        raw.extend(write_only_slots(trees[path], rel.as_posix(), lines,
                                    loaded))
        raw.extend(unpassed_parameters(trees[path], rel.as_posix(), lines,
                                       passed, valued))
        others = [names for p, names in setters.items() if p != path]
        raw.extend(unset_options(trees[path], rel.as_posix(), lines,
                                 set().union(*others)))
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

    for f in sorted(raw, key=lambda x: (x.path, x.line, x.rule)):
        hits = suppressed(f, pragmas.get(f.path, ()))
        for pragma in hits:
            pragma.used.add(f.rule)
        (result.pragma_suppressed if hits else result.findings).append(f)
    for path, found in pragmas.items():
        result.findings.extend(unused_pragmas(
            path, found, sources[root / path].splitlines(), rules))
    result.findings.sort(key=lambda x: (x.path, x.line, x.rule))
    return result
