"""Tier-1 gate: the full lint suite over ``src/repro`` must stay green.

This is the enforcement point for the determinism invariants listed in
DESIGN.md: any new nondeterminism hazard or protocol gap in the tree
fails CI here, exactly as ``python -m repro lint`` fails in the shell.
A second set of tests proves the gate actually fires by injecting a
hazard into a copy of a package and watching the exit code flip.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.cli import main as lint_main
from repro.analysis.runner import iter_py_files

REPRO_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_tree_is_lint_clean(tree_lint):
    result = tree_lint
    assert result.parse_errors == []
    assert result.findings == [], "\n".join(
        f.format() for f in result.findings)
    assert result.files_checked > 50


def test_cli_exits_zero_on_clean_tree(capsys, monkeypatch, tree_lint):
    def shared(root, rules=None):
        # the run ``tree_lint`` made, asked for the same way
        assert (root, rules) == (REPRO_ROOT, None)
        return tree_lint

    monkeypatch.setattr("repro.analysis.cli.run_lint", shared)
    rc = lint_main([str(REPRO_ROOT)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out


def _copy_tree_with_hazard(tmp_path: Path) -> Path:
    """A copy of the sim package plus one injected hazard module."""
    tree = tmp_path / "tree"
    shutil.copytree(REPRO_ROOT / "sim", tree / "sim")
    (tree / "sim" / "injected_hazard.py").write_text(
        "import random\n"
        "def jitter():\n"
        "    return random.random()\n")
    return tree


def test_cli_exits_nonzero_on_injected_hazard(tmp_path, capsys):
    tree = _copy_tree_with_hazard(tmp_path)
    rc = lint_main([str(tree)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "sim/injected_hazard.py:1" in out
    assert "[nondet-import]" in out
    assert "FAIL" in out


def test_cli_json_output_reports_injected_hazard(tmp_path, capsys):
    tree = _copy_tree_with_hazard(tmp_path)
    rc = lint_main([str(tree), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["ok"] is False
    hazards = [f for f in payload["findings"]
               if f["path"] == "sim/injected_hazard.py"]
    assert hazards and hazards[0]["rule"] == "nondet-import"
    assert hazards[0]["line"] == 1


def _copy_tree_with_topology_hazard(tmp_path: Path) -> Path:
    """A copy of the sim package plus a module with the two dict-order
    hazards the topology layer must avoid: injecting link faults and
    placing endpoints while iterating an unsorted dict view."""
    tree = tmp_path / "topo-tree"
    shutil.copytree(REPRO_ROOT / "sim", tree / "sim")
    (tree / "sim" / "injected_topology_hazard.py").write_text(
        "def degrade_all(topo, net):\n"
        "    for (src, dst), extra in topo.wan_delays.items():\n"
        "        net.set_extra_delay(src, dst, extra)\n"
        "def place_all(topo, dcs):\n"
        "    for name, dc in dcs.items():\n"
        "        topo.place(name, dc)\n")
    return tree


def test_topology_dict_iteration_hazards_fire(tmp_path, capsys):
    tree = _copy_tree_with_topology_hazard(tmp_path)
    rc = lint_main([str(tree), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    hazards = [f for f in payload["findings"]
               if f["path"] == "sim/injected_topology_hazard.py"]
    assert {f["line"] for f in hazards} == {2, 5}
    assert all(f["rule"] == "dict-order" for f in hazards)


def test_topology_module_is_covered_and_clean(tree_lint):
    # the whole-tree run checks every module, sim/topology.py included
    assert (REPRO_ROOT / "sim" / "topology.py").exists()
    assert tree_lint.files_checked == len(iter_py_files(REPRO_ROOT))
    assert [f for f in tree_lint.findings
            if f.path.startswith("sim/")] == []


def test_rule_filter_restricts_findings(tmp_path, capsys):
    tree = _copy_tree_with_hazard(tmp_path)
    rc = lint_main([str(tree), "--rule", "set-iteration"])
    out = capsys.readouterr().out
    assert rc == 0, out  # the injected hazard is a nondet-import
    assert "OK" in out


def test_module_entrypoint_runs_lint():
    # `python -m repro lint` end to end, as CI invokes it.
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(REPRO_ROOT)],
        capture_output=True, text=True, timeout=120,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout
