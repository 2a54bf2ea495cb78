"""Finding model and pragma suppression.

A finding pins a rule violation to ``path:line``.  The one escape hatch
that keeps an intentional use green is a pragma: a comment
``# lint: allow(rule-a, rule-b)`` on the offending line (or the line
directly above it) suppresses those rules for that line.  A pragma
belongs where the code is *correct* and the reason fits in the comment
("insertion order: cohorts registered in sorted order at build time").

Pragmas are read from comment tokens, so a string or docstring that
quotes the syntax suppresses nothing.  A pragma cannot rot: a rule it
names that suppresses no finding is itself an ``unused-pragma``
finding (which also catches a misspelt rule name).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

__all__ = ["Finding", "PRAGMA_RULES", "Pragma", "parse_pragmas",
           "statement_spans", "suppressed", "unused_pragmas"]

PRAGMA_RULES: Dict[str, str] = {
    "unused-pragma": "a '# lint: allow' names a rule it suppresses no "
                     "finding of; delete the name or fix its spelling",
}

#: the head of a pragma comment; spaces around ``lint:`` are optional
_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str           # repo-relative, forward slashes
    line: int           # 1-indexed
    message: str
    code: str = ""      # the stripped source line

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "code": self.code}


@dataclass
class Pragma:
    """One ``# lint: allow(...)`` comment."""

    line: int
    rules: FrozenSet[str]
    covers: FrozenSet[int]      # the lines it suppresses findings on
    #: the named rules that suppressed a finding in this run
    used: Set[str] = field(default_factory=set)


def statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """Line spans covered by each statement, for pragma attachment.

    Simple statements span their full extent (so a pragma on any
    continuation line of a multi-line call covers the whole call);
    compound statements (``if``/``for``/``def``...) span their header
    only, so a pragma inside a block never blankets the block.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):  # type: ignore[arg-type]
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", start) or start
        body = getattr(node, "body", None)
        if isinstance(body, list) and body \
                and isinstance(body[0], ast.stmt):
            end = body[0].lineno - 1
        if end >= start:
            spans.append((start, end))
    return spans


def parse_pragmas(source: str,
                  tree: Optional[ast.AST] = None) -> List[Pragma]:
    """Every pragma comment in ``source``, in line order.

    A pragma covers its own line and the line below it, so both styles
    work::

        for proc in procs:  # lint: allow(set-iteration)

        # lint: allow(dict-order)  -- insertion order is build order
        for name, node in self.nodes.items():

    When the module's parsed ``tree`` is supplied, a pragma anywhere
    inside a multi-line statement additionally covers that whole
    statement, so findings anchored to the first line of a long call
    can be suppressed from any of its continuation lines.
    """
    if "lint:" not in source:       # no pragma: spare the tokenizer
        return []
    spans = statement_spans(tree) if tree is not None else []
    pragmas: List[Pragma] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        m = (_PRAGMA_RE.match(tok.string)
             if tok.type == tokenize.COMMENT else None)
        if not m:
            continue
        line = tok.start[0]
        covers = {line, line + 1}
        for start, end in spans:
            if start <= line <= end and end > start:
                covers.update(range(start, end + 1))
        pragmas.append(Pragma(
            line, frozenset(r.strip() for r in m.group(1).split(",")
                            if r.strip()), frozenset(covers)))
    return pragmas


def suppressed(finding: Finding,
               pragmas: Sequence[Pragma]) -> List[Pragma]:
    """The pragmas that suppress ``finding`` (empty when none does)."""
    return [p for p in pragmas
            if finding.line in p.covers and finding.rule in p.rules]


def unused_pragmas(path: str, pragmas: Sequence[Pragma],
                   lines: Sequence[str],
                   rules: Optional[Set[str]]) -> List[Finding]:
    """An ``unused-pragma`` finding for each rule name a pragma in
    ``path`` gives that suppressed nothing.  A run restricted to
    ``rules`` judges only the names among them: the others were never
    given a finding to suppress."""
    return [Finding("unused-pragma", path, p.line,
                    f"allow({name}) suppresses no finding",
                    code=lines[p.line - 1].strip())
            for p in pragmas for name in sorted(p.rules - p.used)
            if rules is None or name in rules]
