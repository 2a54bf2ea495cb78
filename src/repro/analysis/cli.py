"""``python -m repro lint`` — run the static-analysis suite.

Exit status is 0 when the tree is clean (modulo ``# lint: allow``
pragmas, each of which must suppress a finding) and 1 when any finding
or parse error survives, so the command slots directly into CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from .atomicity import ATOMICITY_RULES
from .determinism import DETERMINISM_RULES
from .findings import PRAGMA_RULES
from .protocol import PROTOCOL_RULES
from .runner import LintResult, run_lint

__all__ = ["main"]

ALL_RULES = {**DETERMINISM_RULES, **ATOMICITY_RULES, **PROTOCOL_RULES,
             **PRAGMA_RULES}


def _default_root() -> Path:
    """The installed ``repro`` package's source directory."""
    return Path(__file__).resolve().parent.parent


def _format_text(result: LintResult, verbose: bool) -> List[str]:
    lines = [f.format() for f in result.findings]
    lines.extend(f"parse error: {err}" for err in result.parse_errors)
    summary = (f"checked {result.files_checked} files: "
               f"{len(result.findings)} finding(s), "
               f"{len(result.pragma_suppressed)} pragma-suppressed")
    if verbose:
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
                    "allow(<rule>)'; a pragma that suppresses nothing "
                    "is itself a finding.")
    parser.add_argument("path", nargs="?", default=None,
                        help="tree to lint (default: the repro package)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    parser.add_argument("--rule", action="append", dest="rules",
                        choices=sorted(set(ALL_RULES) - set(PRAGMA_RULES)),
                        help="run only the named rule (repeatable); "
                             "unused pragmas naming it are still "
                             "reported")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule and exit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also show suppressed findings")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(ALL_RULES):
            print(f"{rule:<20s} {ALL_RULES[rule]}")
        return 0

    root = Path(args.path) if args.path else _default_root()
    if not root.exists():
        print(f"no such path: {root}", file=sys.stderr)
        return 2

    result = run_lint(root, rules=set(args.rules) if args.rules else None)
    if args.as_json:
        print(json.dumps({
            "root": str(result.root),
            "files_checked": result.files_checked,
            "findings": [f.to_json() for f in result.findings],
            "pragma_suppressed": [f.to_json()
                                  for f in result.pragma_suppressed],
            "parse_errors": result.parse_errors,
            "ok": result.ok,
        }, indent=2))
    else:
        print("\n".join(_format_text(result, args.verbose)))
    return 0 if result.ok else 1
