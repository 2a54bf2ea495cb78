"""``python -m repro lint`` — run the static-analysis suite.

Exit status is 0 when the tree is clean (modulo pragmas and the
checked-in baseline) and 1 when any new finding or parse error
survives, so the command slots directly into CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .atomicity import ATOMICITY_RULES
from .determinism import DETERMINISM_RULES
from .findings import Baseline
from .protocol import PROTOCOL_RULES
from .runner import LintResult, project_root, run_lint

__all__ = ["main"]

ALL_RULES = {**DETERMINISM_RULES, **ATOMICITY_RULES, **PROTOCOL_RULES}


def _default_root() -> Path:
    """The installed ``repro`` package's source directory."""
    return Path(__file__).resolve().parent.parent


def _default_baseline(root: Path) -> Optional[Path]:
    """``lint-baseline.json`` next to ``pyproject.toml``, if any."""
    project = project_root(root)
    if project is not None and (project / "lint-baseline.json").exists():
        return project / "lint-baseline.json"
    return None


def _format_text(result: LintResult, verbose: bool) -> List[str]:
    lines = [f.format() for f in result.findings]
    lines.extend(f"parse error: {err}" for err in result.parse_errors)
    lines.extend(f"stale baseline entry: [{rule}] {path} :: {code!r} "
                 f"(run --prune-baseline)"
                 for rule, path, code in result.stale_baseline)
    summary = (f"checked {result.files_checked} files: "
               f"{len(result.findings)} new finding(s), "
               f"{len(result.baselined)} baselined, "
               f"{len(result.pragma_suppressed)} pragma-suppressed, "
               f"{len(result.stale_baseline)} stale baseline entries")
    if verbose:
        lines.extend(f"baselined: {f.format()}" for f in result.baselined)
        lines.extend(f"suppressed: {f.format()}"
                     for f in result.pragma_suppressed)
    lines.append(summary)
    lines.append("OK" if result.ok else "FAIL")
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Determinism & protocol lint suite.  Flags "
                    "nondeterminism hazards in simulation-visible code "
                    "and unhandled/dead protocol message types.  "
                    "Suppress intentional uses with '# lint: "
                    "allow(<rule>)' or the checked-in baseline.")
    parser.add_argument("path", nargs="?", default=None,
                        help="tree to lint (default: the repro package)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: lint-baseline.json "
                             "next to pyproject.toml)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report pre-existing findings too")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline with every current "
                             "finding and exit 0")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="drop baseline entries that no longer "
                             "match any finding and rewrite the file")
    parser.add_argument("--rule", action="append", dest="rules",
                        choices=sorted(ALL_RULES),
                        help="run only the named rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule and exit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also show baselined/suppressed findings")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(ALL_RULES):
            print(f"{rule:<20s} {ALL_RULES[rule]}")
        return 0

    root = Path(args.path) if args.path else _default_root()
    if not root.exists():
        print(f"no such path: {root}", file=sys.stderr)
        return 2

    if args.baseline is not None:
        baseline_path: Optional[Path] = Path(args.baseline)
    elif args.no_baseline:
        baseline_path = None
    else:
        baseline_path = _default_baseline(root.resolve())

    rules = set(args.rules) if args.rules else None
    if args.prune_baseline and rules is not None:
        print("--prune-baseline cannot be combined with --rule: a "
              "restricted run cannot tell which entries are stale",
              file=sys.stderr)
        return 2
    if args.prune_baseline and (baseline_path is None
                                or not baseline_path.exists()):
        print("--prune-baseline: no baseline file to prune",
              file=sys.stderr)
        return 2

    result = run_lint(root, baseline_path=baseline_path, rules=rules)

    if args.prune_baseline:
        dropped = len(result.stale_baseline)
        Baseline.from_findings(result.baselined).dump(baseline_path)
        print(f"pruned {dropped} stale entr{'y' if dropped == 1 else 'ies'} "
              f"from {baseline_path} "
              f"({len(result.baselined)} kept)")
        result.stale_baseline = []

    if args.write_baseline:
        target = (Path(args.baseline) if args.baseline
                  else (baseline_path
                        or Path.cwd() / "lint-baseline.json"))
        Baseline.from_findings(result.all_raw()).dump(target)
        print(f"wrote {len(result.all_raw())} finding(s) to {target}")
        return 0

    if args.as_json:
        print(json.dumps({
            "root": str(result.root),
            "files_checked": result.files_checked,
            "findings": [f.to_json() for f in result.findings],
            "baselined": [f.to_json() for f in result.baselined],
            "pragma_suppressed": [f.to_json()
                                  for f in result.pragma_suppressed],
            "parse_errors": result.parse_errors,
            "stale_baseline": [
                {"rule": rule, "path": path, "code": code}
                for rule, path, code in result.stale_baseline],
            "ok": result.ok,
        }, indent=2))
    else:
        print("\n".join(_format_text(result, args.verbose)))
    return 0 if result.ok else 1
