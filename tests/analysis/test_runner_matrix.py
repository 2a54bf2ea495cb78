"""Runner/CLI matrix: exit codes × pragmas.

Covers the 0/1/2 exit paths, pragma coverage of multi-line statements,
pragmas read from comments only, and the unused-pragma check that keeps
every pragma load-bearing.
"""

import ast
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.cli import main as lint_main
from repro.analysis.findings import parse_pragmas, statement_spans

HAZARD = ("import random\n"
          "def jitter():\n"
          "    return random.random()\n")


def make_tree(tmp_path: Path, files) -> Path:
    tree = tmp_path / "tree"
    tree.mkdir(exist_ok=True)
    for name, text in files.items():
        (tree / name).write_text(text)
    return tree


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_zero_on_clean_tree(tmp_path, capsys):
    tree = make_tree(tmp_path, {"mod.py": "X = 1\n"})
    assert lint_main([str(tree)]) == 0
    assert "OK" in capsys.readouterr().out


def test_exit_one_on_new_finding(tmp_path, capsys):
    tree = make_tree(tmp_path, {"mod.py": HAZARD})
    assert lint_main([str(tree)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pragmas on multi-line statements
# ---------------------------------------------------------------------------

def test_statement_spans_cover_multiline_simple_statements():
    src = "x = f(\n    1,\n    2,\n)\n"
    assert (1, 4) in statement_spans(ast.parse(src))


def test_statement_spans_keep_compound_headers_narrow():
    src = "if cond:\n    a = 1\n    b = 2\n"
    spans = statement_spans(ast.parse(src))
    assert (1, 1) in spans          # the if header only, not the block


def test_pragma_on_continuation_line_covers_whole_statement():
    src = "x = f(\n    1,\n    2,  # lint: allow(foo)\n)\n"
    [pragma] = parse_pragmas(src, ast.parse(src))
    assert pragma.rules == {"foo"}
    assert {1, 2, 3, 4} <= pragma.covers


def test_pragma_inside_block_does_not_blanket_the_block():
    src = ("for item in items:\n"
           "    a = 1  # lint: allow(foo)\n"
           "    b = 2\n"
           "    c = 3\n")
    [pragma] = parse_pragmas(src, ast.parse(src))
    assert 4 not in pragma.covers


def test_runner_suppresses_finding_via_trailing_pragma(tmp_path):
    # The stale use anchors at a continuation line; the pragma sits on
    # the closing line of the same statement — only the statement-span
    # expansion can connect the two.
    mod = ("def worker(self):\n"
           "    epoch = self.epoch\n"
           "    yield self.sim.timeout(0.1)\n"
           "    self.apply(\n"
           "        epoch,\n"
           "    )  # lint: allow(stale-guard-across-yield)\n"
           "\n"
           "def boot(sim, node):\n"
           "    spawn(sim, worker(node))\n"
           "\n"
           "def spawn(sim, gen):\n"
           "    return gen\n")
    tree = make_tree(tmp_path, {"mod.py": mod})
    result = run_lint(tree, protocols=())
    assert [f.rule for f in result.pragma_suppressed] \
        == ["stale-guard-across-yield"]
    assert result.findings == []


# ---------------------------------------------------------------------------
# pragmas are comments, and each must suppress a finding
# ---------------------------------------------------------------------------

SCHEDULING_LOOP = ("def crash_all(nodes):\n"
                   "    for name, node in nodes.items():\n"
                   "        node.interrupt('crash')\n")


def test_docstring_quoting_a_pragma_suppresses_nothing(tmp_path):
    # A docstring ending in the pragma's text sits on the line above a
    # dict-view loop that feeds scheduling: only a comment is a pragma.
    mod = SCHEDULING_LOOP.replace(
        "    for", '    """Crash every node.  The lint hatch reads\n'
                  '    # lint: allow(dict-order)"""\n'
                  "    for")
    result = run_lint(make_tree(tmp_path, {"mod.py": mod}), protocols=())
    assert [(f.rule, f.line) for f in result.findings] \
        == [("dict-order", 4)]
    assert result.pragma_suppressed == []


def test_stale_pragma_is_a_finding_and_a_load_bearing_one_is_not(
        tmp_path):
    misspelt = "X = 1  # lint: allow(dict-ordr)\n"
    # two lines above the loop, the pragma covers nothing
    mod = "# lint: allow(dict-order)\n\n" + SCHEDULING_LOOP + misspelt
    result = run_lint(make_tree(tmp_path, {"mod.py": mod}), protocols=())
    assert result.pragma_suppressed == []
    assert [(f.rule, f.line, f.message) for f in result.findings] == [
        ("unused-pragma", 1, "allow(dict-order) suppresses no finding"),
        ("dict-order", 4, result.findings[1].message),
        ("unused-pragma", 6, "allow(dict-ordr) suppresses no finding")]
    # on the loop's own line it suppresses the finding and is used
    mod = SCHEDULING_LOOP.replace(
        ".items():", ".items():  # lint: allow(dict-order)") + misspelt
    result = run_lint(make_tree(tmp_path, {"mod.py": mod}), protocols=())
    assert [f.rule for f in result.pragma_suppressed] == ["dict-order"]
    assert [(f.rule, f.line) for f in result.findings] \
        == [("unused-pragma", 4)]


def test_rule_filter_judges_only_pragmas_naming_selected_rules(tmp_path):
    tree = make_tree(tmp_path, {"mod.py": (
        "X = 1  # lint: allow(set-iteration)\n"
        "Y = 2  # lint: allow(nondet-import, dict-order)\n")})
    # a run restricted to other rules cannot judge set-iteration ...
    restricted = run_lint(tree, protocols=(), rules={"nondet-import"})
    assert [(f.line, f.message) for f in restricted.findings] \
        == [(2, "allow(nondet-import) suppresses no finding")]
    # ... but a full run judges every name
    full = run_lint(tree, protocols=())
    assert [f.message for f in full.findings] == [
        "allow(set-iteration) suppresses no finding",
        "allow(dict-order) suppresses no finding",
        "allow(nondet-import) suppresses no finding"]


def test_exit_one_on_unused_pragma(tmp_path, capsys):
    tree = make_tree(tmp_path, {"mod.py": "X = 1  # lint: allow(real-io)\n"})
    assert lint_main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "mod.py:1: [unused-pragma]" in out and "FAIL" in out
