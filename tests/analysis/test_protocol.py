"""Exhaustiveness-checker tests: synthetic protocol + the real tree."""

from pathlib import Path

import repro
from repro.analysis import (DEFAULT_PROTOCOLS, ProtocolSpec,
                            check_protocol, check_protocols)
from repro.analysis.protocol import parse_catalog

FIXTURES = Path(__file__).parent / "fixtures"
REPRO_ROOT = Path(repro.__file__).resolve().parent

SYNTHETIC = ProtocolSpec(
    name="proto",
    messages="proto/messages.py",
    dispatchers=("proto/node.py",),
    senders=("proto/client.py",),
)


def findings_by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f)
    return out


# ---------------------------------------------------------------------------
# Synthetic protocol fixture
# ---------------------------------------------------------------------------

def test_checker_catches_deliberately_unhandled_type():
    by_rule = findings_by_rule(check_protocol(SYNTHETIC, FIXTURES))
    unhandled = by_rule.get("unhandled-message", [])
    assert [f for f in unhandled if "Orphan" in f.message]
    # Handled, reply-only, and component types must NOT be reported.
    text = " ".join(f.message for f in unhandled)
    for name in ("Ping", "Pong", "Part", "Epochal"):
        assert name not in text


def test_checker_catches_dead_type():
    by_rule = findings_by_rule(check_protocol(SYNTHETIC, FIXTURES))
    dead = by_rule.get("dead-message", [])
    assert len(dead) == 1
    assert "Unused" in dead[0].message
    assert dead[0].path == "proto/messages.py"


def test_checker_catches_epoch_unchecked_handler():
    by_rule = findings_by_rule(check_protocol(SYNTHETIC, FIXTURES))
    stale = by_rule.get("stale-epoch", [])
    assert len(stale) == 1
    assert "Epochal" in stale[0].message
    assert stale[0].path == "proto/node.py"


def test_checker_findings_carry_lines_into_catalog():
    catalog = parse_catalog(
        (FIXTURES / "proto/messages.py").read_text(), "proto/messages.py")
    assert set(catalog) == {"Part", "Ping", "Pong", "Orphan", "Unused",
                            "Epochal", "Sized"}
    assert catalog["Ping"].embeds == {"Part"}
    assert "epoch" in catalog["Epochal"].fields


def test_checker_catches_missing_size_calls():
    by_rule = findings_by_rule(check_protocol(SYNTHETIC, FIXTURES))
    missing = by_rule.get("missing-size", [])
    # Exactly two: the dispatcher's bare respond() and the client's
    # bare Sized send.
    assert len(missing) == 2, [f.format() for f in missing]
    assert any(f.path == "proto/node.py" and "respond()" in f.message
               for f in missing)
    assert any(f.path == "proto/client.py" and "Sized" in f.message
               for f in missing)


def test_missing_size_exemptions():
    # Size on a continuation line, positional size, **kwargs
    # forwarding, and non-endpoint .send() must all stay exempt.
    by_rule = findings_by_rule(check_protocol(SYNTHETIC, FIXTURES))
    flagged = {f.line for f in by_rule.get("missing-size", [])
               if f.path == "proto/client.py"}
    src = (FIXTURES / "proto/client.py").read_text().splitlines()
    exempt = [i for i, text in enumerate(src, start=1)
              if "size=96" in text or ", 32)" in text
              or "**opts" in text or "gen.send" in text]
    assert exempt and not flagged & set(exempt)


def test_fixing_the_dispatcher_clears_the_finding(tmp_path):
    # Copy the fixture protocol, add the missing Orphan branch, and the
    # unhandled-message finding disappears.
    proto = tmp_path / "proto"
    proto.mkdir()
    for name in ("__init__.py", "messages.py", "client.py"):
        (proto / name).write_text((FIXTURES / "proto" / name).read_text())
    node = (FIXTURES / "proto/node.py").read_text().replace(
        "elif isinstance(payload, Epochal):",
        "elif isinstance(payload, Orphan):\n"
        "            pass\n"
        "        elif isinstance(payload, Epochal):").replace(
        "from .messages import Epochal, Ping, Pong",
        "from .messages import Epochal, Orphan, Ping, Pong")
    (proto / "node.py").write_text(node)
    findings = check_protocol(SYNTHETIC, tmp_path)
    assert not [f for f in findings if f.rule == "unhandled-message"]


# ---------------------------------------------------------------------------
# The real tree (acceptance criterion: zero unhandled message types)
# ---------------------------------------------------------------------------

def test_core_and_baseline_dispatchers_are_exhaustive():
    findings = check_protocols(REPRO_ROOT, DEFAULT_PROTOCOLS)
    unhandled = [f for f in findings if f.rule == "unhandled-message"]
    assert unhandled == [], [f.format() for f in unhandled]


def test_real_tree_protocol_findings_all_carry_pragmas():
    # dead-message / stale-epoch findings on the real tree are allowed
    # only where a '# lint: allow' pragma documents the reason.
    from repro.analysis import parse_pragmas, suppressed

    findings = check_protocols(REPRO_ROOT, DEFAULT_PROTOCOLS)
    leftovers = []
    for f in findings:
        pragmas = parse_pragmas((REPRO_ROOT / f.path).read_text())
        if not suppressed(f, pragmas):
            leftovers.append(f.format())
    assert leftovers == []


def test_catalog_covers_chunked_catchup_messages():
    """The chunked catch-up protocol's messages are in the real catalog
    (and the retired one-shot reply and pull-path final are gone)."""
    catalog = parse_catalog(
        (REPRO_ROOT / "core" / "messages.py").read_text(),
        "core/messages.py")
    for name in ("CatchupRequest", "CatchupChunk", "TakeoverState"):
        assert name in catalog, name
    assert "CatchupReply" not in catalog
    assert "CatchupFinal" not in catalog
    for field in ("floor", "seen", "source"):
        assert field in catalog["CatchupRequest"].fields
    for field in ("sstables", "snapshot_seen", "floor", "valid_after",
                  "valid_upto", "more", "final"):
        assert field in catalog["CatchupChunk"].fields
    # Chunks carry an epoch the follower checks before ingesting.
    assert "epoch" in catalog["CatchupChunk"].fields
