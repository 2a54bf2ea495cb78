"""Unit tests for the determinism linter rules, over fixture snippets.

Each fixture file exercises one rule three ways: positive (the hazard
is flagged), suppressed (a pragma silences it), and clean (correct
idioms stay green).
"""

from pathlib import Path

from repro.analysis import lint_source, run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, **kwargs):
    path = FIXTURES / name
    return lint_source(path.read_text(), name, **kwargs)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# nondet-import
# ---------------------------------------------------------------------------

def test_nondet_import_flags_every_entropy_source():
    findings = lint_fixture("hazard_nondet_import.py")
    nondet = [f for f in findings if f.rule == "nondet-import"]
    messages = " ".join(f.message for f in nondet)
    assert len(nondet) == 6   # 3 imports + 3 hazardous calls
    assert "'random'" in messages
    assert "'uuid'" in messages
    assert "'datetime'" in messages
    assert "datetime.now()" in messages
    assert "os.urandom()" in messages
    assert "uuid.uuid4()" in messages


def test_nondet_import_reports_file_and_line():
    findings = lint_fixture("hazard_nondet_import.py")
    first = [f for f in findings if "'random'" in f.message][0]
    assert first.path == "hazard_nondet_import.py"
    assert first.line == 3
    assert first.code.startswith("import random")


# ---------------------------------------------------------------------------
# set-iteration
# ---------------------------------------------------------------------------

def test_set_iteration_flags_for_listcomp_and_materialization():
    findings = lint_fixture("hazard_set_iteration.py")
    flagged = [f for f in findings if f.rule == "set-iteration"]
    assert len(flagged) == 4  # comp, list(), for, module-level for


def test_set_iteration_allows_sorted():
    findings = lint_fixture("hazard_set_iteration.py")
    sorted_ok_line = [i for i, text in enumerate(
        (FIXTURES / "hazard_set_iteration.py").read_text().splitlines(),
        start=1) if "sorted_ok" in text][0]
    assert all(f.line < sorted_ok_line or f.line > sorted_ok_line + 1
               for f in findings)


# ---------------------------------------------------------------------------
# dict-order
# ---------------------------------------------------------------------------

def test_dict_order_flags_only_scheduling_visible_loops():
    findings = lint_fixture("hazard_dict_order.py")
    flagged = [f for f in findings if f.rule == "dict-order"]
    assert len(flagged) == 2       # crash_all + rebalance
    codes = " ".join(f.code for f in flagged)
    assert "nodes.items()" in codes
    assert "nodes.values()" in codes


def test_dict_order_ignores_pure_formatting_and_sorted():
    findings = lint_fixture("hazard_dict_order.py")
    for f in findings:
        assert "report" not in f.code
        assert "sorted" not in f.code


# ---------------------------------------------------------------------------
# id-hash-order / real-io
# ---------------------------------------------------------------------------

def test_id_hash_order_flags_sort_keys():
    findings = lint_fixture("hazard_id_hash.py")
    flagged = [f for f in findings if f.rule == "id-hash-order"]
    assert len(flagged) == 3


def test_real_io_flags_threading_open_print():
    findings = lint_fixture("hazard_real_io.py")
    flagged = [f for f in findings if f.rule == "real-io"]
    assert len(flagged) == 3


def test_real_io_not_applied_outside_sim_visible_code():
    findings = lint_fixture("hazard_real_io.py", sim_visible=False)
    assert not [f for f in findings if f.rule == "real-io"]


# ---------------------------------------------------------------------------
# yield-discipline
# ---------------------------------------------------------------------------

def test_yield_discipline_flags_literal_yields_in_process_bodies():
    findings = lint_fixture("hazard_yield.py")
    flagged = [f for f in findings if f.rule == "yield-discipline"]
    assert len(flagged) == 3
    messages = " ".join(f.message for f in flagged)
    assert "bare yield" in messages
    assert "'worker'" in messages
    assert "'helper'" in messages      # reached via yield-from closure


def test_yield_discipline_ignores_plain_iterators():
    findings = lint_fixture("hazard_yield.py")
    assert not [f for f in findings if "plain_iterator" in f.message]


def test_yield_discipline_uses_cross_module_spawn_names():
    # A generator spawned from *another* module is still a process.
    source = "def ticker(sim):\n    yield None\n"
    assert not lint_source(source, "mod.py")
    flagged = lint_source(source, "mod.py", spawned={"ticker"})
    assert [f.rule for f in flagged] == ["yield-discipline"]


# ---------------------------------------------------------------------------
# write-only-slot (whole-tree: driven through the runner)
# ---------------------------------------------------------------------------

SLOTTED = (
    "class Timer:\n"
    "    __slots__ = ('when', '_entry',\n"
    "                 'fired', '__weakref__')\n"
    "    def __init__(self, when):\n"
    "        self.when = when\n"
    "        self._entry = [when, self]\n"
    "        self.fired = 0\n"
    "    def fire(self):\n"
    "        self.fired += 1\n"          # an update is not a read
    "        return self.when\n")


def rule_findings(findings, rule):
    """Of a whole-tree run's findings, the one rule's."""
    return [f for f in findings if f.rule == rule]


def slot_findings(root):
    result = run_lint(root, protocols=(), rules={"write-only-slot"})
    return result, sorted(f.message.split(":")[0] for f in result.findings)


def test_write_only_slot_flags_stored_but_never_read_names(tmp_path):
    (tmp_path / "timer.py").write_text(SLOTTED)
    result, names = slot_findings(tmp_path)
    assert names == ["Timer._entry", "Timer.fired"]
    by_name = {f.message.split(":")[0]: f for f in result.findings}
    assert by_name["Timer._entry"].line == 2      # where the name is listed
    assert by_name["Timer.fired"].line == 3
    assert by_name["Timer.fired"].code.startswith("'fired'")


def test_write_only_slot_counts_reads_in_any_module_of_the_tree(tmp_path):
    (tmp_path / "timer.py").write_text(SLOTTED)
    (tmp_path / "user.py").write_text(
        "from operator import attrgetter\n"
        "def entry_of(timer):\n"
        "    return timer._entry\n"
        "FIRED = attrgetter('fired')\n")
    assert slot_findings(tmp_path)[1] == []
    (tmp_path / "user.py").write_text(
        "def peek(timer):\n"
        "    return getattr(timer, '_entry', None)\n")
    assert slot_findings(tmp_path)[1] == ["Timer.fired"]


def test_write_only_slot_counts_reads_in_the_projects_tests(tmp_path):
    """A counter only a test asserts on is read: the linted tree's
    project (the directory with pyproject.toml) is searched too."""
    (tmp_path / "pyproject.toml").write_text("")
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "timer.py").write_text(SLOTTED)
    assert slot_findings(pkg)[1] == ["Timer._entry", "Timer.fired"]
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_timer.py").write_text(
        "def test_fired(timer):\n    assert timer.fired == 1\n")
    assert slot_findings(pkg)[1] == ["Timer._entry"]


def test_write_only_slot_pragma_and_real_tree(tmp_path, tree_lint):
    # on the line above, a pragma covers the names on the first line;
    # inside the statement, all of it
    (tmp_path / "timer.py").write_text(SLOTTED.replace(
        "    __slots__", "    # lint: allow(write-only-slot) — kept\n"
                         "    __slots__"))
    assert slot_findings(tmp_path)[1] == ["Timer.fired"]
    (tmp_path / "timer.py").write_text(SLOTTED.replace(
        "'_entry',", "'_entry',  # lint: allow(write-only-slot) — kept"))
    result, names = slot_findings(tmp_path)
    assert names == [] and len(result.pragma_suppressed) == 2
    # src/repro: clean — none baselined either — with at most the one
    # justified pragma
    assert rule_findings(tree_lint.findings, "write-only-slot") == []
    assert rule_findings(tree_lint.baselined, "write-only-slot") == []
    assert [f.message.split(":")[0] for f in rule_findings(
        tree_lint.pragma_suppressed, "write-only-slot")] == [
        "BurstyArrivals.burst_factor"]


# ---------------------------------------------------------------------------
# unset-option (whole-tree: driven through the runner)
# ---------------------------------------------------------------------------

OPTIONS = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class DemoConfig:\n"
    "    period: float = 1.0\n"
    "    depth: int = 2\n"
    "    def halve(self):\n"
    "        self.depth = self.depth // 2\n"   # its own module: no setter
    "class Plain:\n"
    "    unset: int = 0\n")                    # not a *Config dataclass


def option_findings(root):
    result = run_lint(root, protocols=(), rules={"unset-option"})
    return sorted(f.message.split(":")[0] for f in result.findings)


def test_unset_option_flags_fields_nothing_sets(tmp_path):
    (tmp_path / "pyproject.toml").write_text("")
    pkg = tmp_path / "src" / "pkg"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "config.py").write_text(OPTIONS)
    assert option_findings(pkg) == ["DemoConfig.depth", "DemoConfig.period"]
    # a keyword in the project's tests is a setter ...
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_demo.py").write_text(
        "def test_fast(make):\n    make(period=0.1)\n")
    assert option_findings(pkg) == ["DemoConfig.depth"]
    # ... the knob registry, which names every field, is not ...
    (pkg / "tune").mkdir()
    (pkg / "tune" / "registry.py").write_text("GRID = {'depth': (1, 2)}\n")
    assert option_findings(pkg) == ["DemoConfig.depth"]
    # ... a checked-in config file (or a dict key, or a store) is
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "tuned.json").write_text(
        '{"meta": {"seed": 1}, "values": {"depth": 4}}')
    assert option_findings(pkg) == []
    (tmp_path / "configs" / "tuned.json").unlink()
    (pkg / "bench.py").write_text("def deep(cfg):\n    cfg.depth = 8\n")
    assert option_findings(pkg) == []
    (pkg / "bench.py").write_text("DEEP = {'depth': 8}\n")
    assert option_findings(pkg) == []
    # only core/ and baseline/ configs are options of the system
    (pkg / "chaos").mkdir()
    (pkg / "chaos" / "config.py").write_text(
        OPTIONS.replace("period", "gap"))
    assert option_findings(pkg) == []


def test_unset_option_real_tree_is_clean_without_a_pragma(tree_lint):
    for findings in (tree_lint.findings, tree_lint.baselined,
                     tree_lint.pragma_suppressed):
        assert rule_findings(findings, "unset-option") == []


# ---------------------------------------------------------------------------
# pragmas, clean file, whole-tree runner
# ---------------------------------------------------------------------------

def test_clean_fixture_is_clean():
    assert lint_fixture("clean.py") == []


def test_runner_applies_pragma_suppression(tmp_path):
    result = run_lint(FIXTURES, protocols=())
    suppressed_paths = {f.path for f in result.pragma_suppressed}
    assert "hazard_suppressed.py" in suppressed_paths
    new_paths = {f.path for f in result.findings}
    assert "hazard_suppressed.py" not in new_paths
    assert "clean.py" not in new_paths


def test_runner_baseline_roundtrip(tmp_path):
    from repro.analysis import Baseline

    first = run_lint(FIXTURES, protocols=())
    assert first.findings
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(first.all_raw()).dump(baseline_path)
    second = run_lint(FIXTURES, baseline_path=baseline_path, protocols=())
    assert second.ok
    assert len(second.baselined) == len(first.findings)


def test_baseline_matches_by_code_not_line(tmp_path):
    from repro.analysis import Baseline, Finding

    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings([Finding(
        rule="nondet-import", path="mod.py", line=99,
        message="x", code="import random")]).dump(baseline_path)
    src_dir = tmp_path / "tree"
    src_dir.mkdir()
    (src_dir / "mod.py").write_text(
        "# a comment shifting the line number\nimport random\n")
    result = run_lint(src_dir, baseline_path=baseline_path, protocols=())
    assert result.ok
    assert len(result.baselined) == 1
