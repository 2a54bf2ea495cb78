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


def _inventory_rows():
    """TUNING.md's inventory as ``(knob, search grid)`` pairs.

    Inventory rows are table lines whose first cell is a backticked
    knob name: ``| `commit_period` | 1 | 0.05 – 15 | 0.25, 0.5, 1 | ...``;
    the grid is the fourth cell, ``—`` for none, with any "(while
    `gate`)" note dropped.
    """
    text = TUNING.read_text()
    section = text.split("## Knob inventory", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        name = re.fullmatch(r"`(\w+)`", cells[0])
        if name:
            grid = cells[3].split(" (while", 1)[0]
            rows.append((name.group(1),
                         [] if grid == "—" else grid.split(", ")))
    return rows


def test_tuning_inventory_matches_the_registry():
    # one row per knob, each with the registry's grid
    from repro.tune.registry import KNOBS, get_knob
    documented = [name for name, _ in _inventory_rows()]
    assert len(documented) == len(set(documented)), (
        "duplicate knob rows in TUNING.md's inventory")
    registry = {k.name for k in KNOBS}
    phantom = sorted(set(documented) - registry)
    missing = sorted(registry - set(documented))
    assert not phantom, (
        f"TUNING.md documents knobs the registry doesn't have: {phantom}")
    assert not missing, (
        f"registry knobs missing from TUNING.md's inventory: {missing}")
    for name, grid in _inventory_rows():
        assert grid == [str(c) if isinstance(c, bool) else f"{c:g}"
                        for c in get_knob(name).candidates], name


def test_tuning_inventory_rows_are_in_registry_order():
    # the registry lists knobs in SpinnakerConfig's field order (minus
    # log_profile) and the inventory table mirrors it row for row
    import dataclasses

    from repro.core.config import SpinnakerConfig
    from repro.tune.registry import KNOBS
    fields = [f.name for f in dataclasses.fields(SpinnakerConfig)
              if f.name != "log_profile"]
    assert [k.name for k in KNOBS] == fields
    assert [name for name, _ in _inventory_rows()] == fields


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
