"""Search-driver tests: determinism, budgets, ledger shape, CLI.

The real evaluator runs here at tiny scale (a few dozen simulated ops
per trial), so these stay unit-test fast while exercising the whole
tune() -> evaluate() -> bench harness -> sim stack.
"""

import json

from repro.sim.disk import DiskProfile
from repro.core.config import SpinnakerConfig
from repro.tune.objective import ObjectiveSpec
from repro.tune.profiles import DETUNED_START, TuneProfile
from repro.tune.search import tune

#: tiny injected profile: 3-node memory-log cluster, two searched knobs
TINY = TuneProfile(
    name="tiny",
    base_config=lambda: SpinnakerConfig(
        log_profile=DiskProfile.memory_log()),
    searched=("commit_period", "piggyback_commits"),
    objective=ObjectiveSpec(focus_phases=("propose",)),
    n_nodes=3, threads=2, ops_per_thread=6, warmup_ops=2)


def test_same_seed_gives_bit_identical_ledgers():
    a = tune("tiny", seed=7, max_trials=8, profile=TINY)
    b = tune("tiny", seed=7, max_trials=8, profile=TINY)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)
    assert a.best_values == b.best_values
    assert a.best_score == b.best_score


def test_different_seed_changes_the_measurements():
    a = tune("tiny", seed=1, max_trials=4, profile=TINY)
    b = tune("tiny", seed=2, max_trials=4, profile=TINY)
    assert (a.baseline.eval.metrics["p50_ms"]
            != b.baseline.eval.metrics["p50_ms"])


def test_budget_caps_trials_and_baseline_counts():
    res = tune("tiny", seed=1, max_trials=3, profile=TINY)
    assert 1 <= len(res.trials) <= 3
    assert res.trials[0].knob is None and res.trials[0].adopted
    assert not res.converged or len(res.trials) < 3


def test_ledger_shape_and_monotone_best():
    res = tune("tiny", seed=1, max_trials=10, profile=TINY)
    assert [t.index for t in res.trials] == list(range(len(res.trials)))
    best = res.trials[0].best_so_far
    for trial in res.trials:
        assert trial.best_so_far <= best + 1e-12
        best = trial.best_so_far
    assert res.best_score <= res.baseline_score
    payload = res.to_json()
    assert payload["searched"] == list(TINY.searched)
    assert len(payload["trials"]) == len(res.trials)
    assert payload["evaluator"]["threads"] == TINY.threads


def test_no_configuration_is_evaluated_twice():
    # the memo serves later-pass re-probes; every ledger row is distinct
    res = tune("tiny", seed=1, max_trials=12, passes=3, profile=TINY)
    seen = [tuple(sorted(t.values.items())) for t in res.trials]
    assert len(seen) == len(set(seen))


def test_no_ledger_row_probes_a_gated_knob_while_its_gate_is_off():
    from repro.tune.registry import get_knob
    gated = TuneProfile(
        name="gated",
        base_config=TINY.base_config,
        searched=("propose_batching", "propose_batch_max_records"),
        objective=TINY.objective,
        n_nodes=3, threads=2, ops_per_thread=6, warmup_ops=2)
    probed = set()
    for start in ({}, {"propose_batching": False}):
        res = tune("gated", seed=1, max_trials=16, passes=2,
                   profile=gated, start=start)
        for trial in res.trials[1:]:
            gate = get_knob(trial.knob).gate
            if gate is not None:
                assert trial.values.get(gate, True), trial.to_json()
                probed.add(trial.knob)
    # batching on (the default): the batch shape is searched
    assert probed == {"propose_batch_max_records"}


def test_start_overlay_seeds_the_baseline():
    res = tune("tiny", seed=1, max_trials=2, profile=TINY,
               start={"commit_period": 10.0})
    assert res.trials[0].values == {"commit_period": 10.0}


def test_detuned_start_is_a_valid_overlay():
    from repro.tune.registry import validate_values
    validate_values(DETUNED_START)


def test_cli_writes_a_parsable_ledger(tmp_path, capsys):
    from repro.tune.cli import main
    ledger = tmp_path / "ledger.json"
    rc = main(["--profile", "mem", "--scale", "0.08",
               "--max-trials", "4", "--ledger", str(ledger)])
    assert rc == 0
    payload = json.loads(ledger.read_text())
    assert payload["profile"] == "mem"
    assert 1 <= len(payload["trials"]) <= 4
    assert payload["trials"][0]["knob"] is None
    out = capsys.readouterr().out
    assert "baseline score" in out


def test_cli_list_knobs(capsys):
    from repro.tune.cli import main
    assert main(["--profile", "sata", "--list-knobs"]) == 0
    out = capsys.readouterr().out
    assert "propose_batch_max_records" in out and "grid=" in out
