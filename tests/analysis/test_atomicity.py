"""Unit tests for the cross-yield atomicity rules, over fixtures.

Each fixture exercises one rule three ways: positive (the hazard is
flagged), clean (the blessed re-check idioms stay green), and
suppressed (a pragma silences it through the normal machinery).
"""

import ast
from pathlib import Path

import repro
from repro.analysis import lint_atomicity, parse_pragmas, suppressed
from repro.analysis.determinism import collect_continuations

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, **kwargs):
    path = FIXTURES / name
    return lint_atomicity(path.read_text(), name, **kwargs)


def processes_of(findings):
    out = set()
    for f in findings:
        out.add(f.message.split("'")[1])   # "in process 'name': ..."
    return out


# ---------------------------------------------------------------------------
# stale-guard-across-yield
# ---------------------------------------------------------------------------

def test_stale_guard_flags_snapshots_and_params():
    findings = lint_fixture("hazard_stale_guard.py")
    stale = [f for f in findings if f.rule == "stale-guard-across-yield"]
    assert processes_of(stale) == {"handler", "loop_stale", "param_guard",
                                   "suppressed_handler"}


def test_stale_guard_blessed_idioms_stay_green():
    findings = lint_fixture("hazard_stale_guard.py")
    clean = {"revalidated", "fresh_reader", "commit_loop",
             "param_revalidated"}
    assert not processes_of(findings) & clean


def test_stale_guard_names_the_snapshot_site():
    findings = lint_fixture("hazard_stale_guard.py")
    handler = [f for f in findings if "'handler'" in f.message][0]
    assert "'self.epoch'" in handler.message
    assert "used after a yield" in handler.message
    param = [f for f in findings if "'param_guard'" in f.message][0]
    assert "parameter 'epoch'" in param.message


# ---------------------------------------------------------------------------
# write-after-yield-unguarded
# ---------------------------------------------------------------------------

def test_write_after_yield_flags_pre_yield_guards_only():
    findings = lint_fixture("hazard_write_after_yield.py")
    writes = [f for f in findings
              if f.rule == "write-after-yield-unguarded"]
    assert processes_of(writes) == {"promote", "suppressed_promote"}


def test_write_after_yield_recheck_merge_and_counter_stay_green():
    findings = lint_fixture("hazard_write_after_yield.py")
    clean = {"guarded_promote", "monotonic", "counter"}
    assert not processes_of(findings) & clean


# ---------------------------------------------------------------------------
# mutate-while-iterating
# ---------------------------------------------------------------------------

def test_mutate_while_iterating_flags_live_loops():
    findings = lint_fixture("hazard_mutate_iter.py")
    mut = [f for f in findings if f.rule == "mutate-while-iterating"]
    assert processes_of(mut) == {"drain", "view_loop", "suppressed_drain"}
    messages = " ".join(f.message for f in mut)
    assert "list(self.queue)" in messages    # the suggested snapshot
    assert "self.members" in messages


def test_mutate_while_iterating_snapshot_and_post_loop_stay_green():
    findings = lint_fixture("hazard_mutate_iter.py")
    clean = {"snapshot_drain", "mutate_after"}
    assert not processes_of(findings) & clean


# ---------------------------------------------------------------------------
# continuations: parked functions are post-yield segments
# ---------------------------------------------------------------------------

def test_bad_continuations_are_flagged_by_both_rules():
    findings = lint_fixture("hazard_continuation.py")
    by_rule = {}
    for f in findings:
        assert f.message.startswith("in continuation ")
        by_rule.setdefault(f.rule, set()).update(processes_of([f]))
    assert by_rule == {
        "write-after-yield-unguarded": {"open_after_force", "late_promote",
                                        "suppressed_open"},
        "stale-guard-across-yield": {"seal_epoch", "serve_on_old_layout"},
    }


def test_good_continuations_and_first_segments_stay_green():
    findings = lint_fixture("hazard_continuation.py")
    clean = {"on_arrival", "open_if_leader", "seal_checked", "count_ack",
             "serve_if_same_layout"}
    assert not processes_of(findings) & clean


def test_a_live_read_through_an_attribute_chain_is_a_re_check():
    """``node.partitioner.version`` re-validates a ``map_version``
    snapshot as ``self.epoch`` does an ``epoch`` one; the same name read
    off the request's payload (immutable, itself a snapshot) does not;
    and a chain read *is* a snapshot when bound before a yield."""
    ok = ("def _serve(self, req, map_version):\n"
          "    node = self.node\n"
          "    if map_version != node.partitioner.version:\n"
          "        return\n"
          "    self.engine.get(req.payload.key)\n")
    assert not lint_atomicity(ok, "mod.py", continuations={"_serve"})
    for stale in ("req.payload.map_version", "self.config.map_version"):
        bad = ok.replace("node.partitioner.version", stale)
        flagged = lint_atomicity(bad, "mod.py", continuations={"_serve"})
        assert [f.rule for f in flagged] == ["stale-guard-across-yield"]
    proc = ("def mover(replica):\n"
            "    version = replica.node.partitioner.version\n"
            "    yield replica.node.sim.timeout(1.0)\n"
            "    replica.publish(version)\n")
    flagged = lint_atomicity(proc, "mod.py", spawned={"mover"})
    assert [f.rule for f in flagged] == ["stale-guard-across-yield"]
    assert "'replica.node.partitioner.version'" in flagged[0].message
    reread = proc.replace(
        "    replica.publish(version)\n",
        "    if version == replica.node.partitioner.version:\n"
        "        replica.publish(version)\n")
    assert not lint_atomicity(reread, "mod.py", spawned={"mover"})


def test_continuations_parked_from_another_module_are_roots():
    source = ("def _ack(self, req):\n"
              "    self.leader = req.src\n")
    assert not lint_atomicity(source, "mod.py")
    flagged = lint_atomicity(source, "mod.py", continuations={"_ack"})
    assert [f.rule for f in flagged] == ["write-after-yield-unguarded"]
    # a generator of that name is a process body or nothing
    assert not lint_atomicity(source + "    yield req.done\n", "mod.py",
                              continuations={"_ack"})


def test_the_tree_parks_its_message_handlers():
    """The handlers that used to be found through ``spawn(...)`` are
    still roots: each step after a wait is parked by name."""
    source = Path(repro.__file__).parent / "core" / "replication.py"
    parked = collect_continuations(ast.parse(source.read_text()))
    assert {"_serve_get", "_serve_scan", "_log_propose", "_ack_propose",
            "_admit_write", "_stage_write", "_reply_write",
            "handle_client_write"} <= parked


# ---------------------------------------------------------------------------
# pragmas, cross-module closure, configurable guards
# ---------------------------------------------------------------------------

def test_pragmas_silence_each_atomicity_rule():
    for name in ("hazard_stale_guard.py", "hazard_write_after_yield.py",
                 "hazard_mutate_iter.py", "hazard_continuation.py"):
        findings = lint_fixture(name)
        pragmas = parse_pragmas((FIXTURES / name).read_text())
        flagged = [f for f in findings if "suppressed" in f.message]
        assert flagged, name
        assert all(suppressed(f, pragmas) for f in flagged), name
        survivors = [f for f in findings if not suppressed(f, pragmas)]
        assert not [f for f in survivors if "suppressed" in f.message]


def test_atomicity_uses_cross_module_spawn_names():
    source = ("def ticker(node):\n"
              "    epoch = node.epoch\n"
              "    yield node.sim.timeout(1.0)\n"
              "    node.seal(epoch)\n")
    assert not lint_atomicity(source, "mod.py")
    flagged = lint_atomicity(source, "mod.py", spawned={"ticker"})
    assert [f.rule for f in flagged] == ["stale-guard-across-yield"]


def test_guard_attr_list_is_configurable():
    source = ("def worker(self):\n"
              "    owner = self.shard_owner\n"
              "    yield self.sim.timeout(1.0)\n"
              "    self.apply(owner)\n")
    assert not lint_atomicity(source, "mod.py", spawned={"worker"})
    flagged = lint_atomicity(source, "mod.py", spawned={"worker"},
                             guard_attrs={"shard_owner"})
    assert [f.rule for f in flagged] == ["stale-guard-across-yield"]
