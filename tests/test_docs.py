"""CI docs gate: the README and top-level markdown stay in sync with
the tree.

Five checks, each tied to a drift that has actually happened in repos
like this one: a new package that never makes it into the architecture
map, a new CLI subcommand missing from the reference table, a renamed
file leaving dangling markdown links, TUNING.md's knob inventory
drifting from the registry it documents, and DESIGN.md's experiment
index drifting from the experiment registry.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
README = REPO / "README.md"
TUNING = REPO / "TUNING.md"
DESIGN = REPO / "DESIGN.md"


def _packages():
    """Every package directory under src/repro (has an __init__.py)."""
    return sorted(p.name for p in SRC.iterdir()
                  if p.is_dir() and (p / "__init__.py").exists())


def _subcommands():
    """Every subcommand dispatched by src/repro/__main__.py."""
    source = (SRC / "__main__.py").read_text()
    commands = re.findall(r'command == "(\w+)"', source)
    assert commands, "no subcommands parsed from __main__.py"
    return sorted(set(commands))


def test_every_package_is_in_the_readme_architecture_map():
    readme = README.read_text()
    section = readme.split("## Architecture", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in _packages()
               if f"`{name}/`" not in section]
    assert not missing, (
        f"packages missing from README.md's Architecture section "
        f"(add a `{missing[0]}/` paragraph): {missing}")


def test_every_cli_subcommand_is_in_the_readme_cli_table():
    readme = README.read_text()
    section = readme.split("## CLI reference", 1)[1].split("\n## ", 1)[0]
    missing = [cmd for cmd in _subcommands()
               if f"python -m repro {cmd}" not in section]
    assert not missing, (
        f"subcommands missing from README.md's CLI reference table: "
        f"{missing}")


def _inventory_knobs():
    """Knob names documented in TUNING.md's inventory tables.

    Inventory rows are table lines whose first cell is a backticked
    knob name: ``| `commit_period` | ... |``.
    """
    text = TUNING.read_text()
    section = text.split("## Knob inventory", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\|\s*`(\w+)`", section, flags=re.MULTILINE)


def test_tuning_inventory_matches_the_registry():
    from repro.tune.registry import knob_names
    documented = _inventory_knobs()
    assert len(documented) == len(set(documented)), (
        "duplicate knob rows in TUNING.md's inventory")
    registry = set(knob_names())
    phantom = sorted(set(documented) - registry)
    missing = sorted(registry - set(documented))
    assert not phantom, (
        f"TUNING.md documents knobs the registry doesn't have: {phantom}")
    assert not missing, (
        f"registry knobs missing from TUNING.md's inventory: {missing}")


def test_tuning_inventory_rows_are_in_registry_order():
    # registry order is the coordinate-descent walk order; the doc
    # mirrors it so a ledger reads top-to-bottom against the table
    from repro.tune.registry import knob_names
    assert _inventory_knobs() == knob_names()


def test_design_experiment_index_matches_the_registry():
    # index rows are table lines whose first cell is a backticked id
    from repro.bench.experiments import ALL_EXPERIMENTS
    text = DESIGN.read_text()
    section = text.split("## Experiment index", 1)[1].split("\n##", 1)[0]
    indexed = re.findall(r"^\|\s*`([\w-]+)`\s*\|", section,
                         flags=re.MULTILINE)
    assert indexed == list(ALL_EXPERIMENTS), (
        "DESIGN.md's experiment index and ALL_EXPERIMENTS differ (ids "
        "or order): add/move the row for the experiment you changed")
    for exp_id in indexed:
        assert f"`pytest benchmarks -k {exp_id}`" in section


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: fenced blocks and inline code spans: markdown renders no links there,
#: and ``REGISTRY["id"](arg)`` in one looks exactly like a link
_CODE = re.compile(r"```.*?```|`[^`\n]*`", re.DOTALL)


def _intra_repo_links(path: Path):
    for match in _LINK.finditer(_CODE.sub("", path.read_text())):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


def test_intra_repo_markdown_links_resolve():
    broken = []
    for doc in sorted(REPO.glob("*.md")):
        for target in _intra_repo_links(doc):
            if not target:
                continue
            if not (doc.parent / target).exists():
                broken.append(f"{doc.name}: {target}")
    assert not broken, f"dangling markdown links: {broken}"
