"""Profile and tuned-config tests, including the --tuned-profile hook."""

import json

import pytest

from repro.bench.harness import SpinnakerTarget
from repro.tune.profiles import (PROFILES, activate_tuned_profile,
                                 active_overlay, clear_tuned_profile,
                                 get_profile, load_tuned_config,
                                 load_tuned_values, tuned_config_path,
                                 write_tuned_config)
from repro.tune.registry import get_knob, validate_values


@pytest.fixture(autouse=True)
def _no_overlay_leaks():
    clear_tuned_profile()
    yield
    clear_tuned_profile()


def test_profiles_cover_the_benchmark_matrix():
    assert set(PROFILES) == {"sata", "ssd", "mem", "wan"}
    for profile in PROFILES.values():
        assert profile.searched, profile.name
        for name in profile.searched:
            assert get_knob(name).candidates, (profile.name, name)
        profile.base_config().validate()
    assert PROFILES["wan"].topology is not None
    assert PROFILES["wan"].placement == "spread"


def test_get_profile_rejects_unknown_names():
    with pytest.raises(KeyError):
        get_profile("floppy")


def test_checked_in_tuned_configs_validate():
    # the committed configs/tuned-*.json must stay loadable and in range
    for name in PROFILES:
        assert tuned_config_path(name).exists(), name
        values = load_tuned_values(name)
        validate_values(values)
        cfg = load_tuned_config(name)
        for key, value in values.items():
            assert getattr(cfg, key) == value


def test_checked_in_tuned_configs_reproduce_their_own_numbers():
    # a stale config (the search, a knob or a default moved since it
    # was written) fails here instead of silently tuning for nothing
    from repro.tune.evaluator import evaluate
    for name, profile in PROFILES.items():
        with open(tuned_config_path(name)) as fh:
            meta = json.load(fh)["meta"]
        ev = evaluate(profile, load_tuned_values(name),
                      seed=meta["seed"], scale=meta["scale"])
        assert ev.metrics["p50_ms"] == meta["best_p50_ms"], name
        assert ev.metrics["throughput"] == meta["best_throughput"], name


def test_a_config_naming_a_removed_knob_fails_to_load(tmp_path):
    path = tuned_config_path("ssd", tmp_path)
    path.write_text(json.dumps(
        {"profile": "ssd", "values": {"propose_batch_adaptive": False}}))
    with pytest.raises(KeyError):
        load_tuned_values("ssd", config_dir=tmp_path)


def test_write_load_round_trip(tmp_path):
    values = {"commit_period": 0.25, "propose_batch_max_records": 16,
              "group_commit": False}
    write_tuned_config("sata", values, meta={"seed": 1},
                       config_dir=tmp_path)
    back = load_tuned_values("sata", config_dir=tmp_path)
    assert back == values
    # ints and floats survive the JSON round trip with their types
    assert isinstance(back["propose_batch_max_records"], int)
    assert isinstance(back["commit_period"], float)
    assert isinstance(back["group_commit"], bool)


def test_activate_overlay_reaches_every_new_target(tmp_path):
    values = {"commit_period": 0.25, "propose_batching": False}
    write_tuned_config("ssd", values, config_dir=tmp_path)
    activate_tuned_profile("ssd", config_dir=tmp_path)
    assert active_overlay() == values
    target = SpinnakerTarget(n_nodes=3, seed=1)
    assert target.cluster.config.commit_period == 0.25
    assert target.cluster.config.propose_batching is False
    clear_tuned_profile()
    assert active_overlay() is None
    untouched = SpinnakerTarget(n_nodes=3, seed=1)
    assert untouched.cluster.config.propose_batching is True


def test_overlay_lays_over_the_experiments_own_config(tmp_path):
    from repro.core.config import SpinnakerConfig
    write_tuned_config("mem", {"commit_period": 0.5},
                       config_dir=tmp_path)
    activate_tuned_profile("mem", config_dir=tmp_path)
    target = SpinnakerTarget(
        n_nodes=3, seed=1,
        config=SpinnakerConfig(session_timeout=4.0, commit_period=2.0))
    # untouched experiment knobs survive; overlaid ones win
    assert target.cluster.config.session_timeout == 4.0
    assert target.cluster.config.commit_period == 0.5


def test_evaluator_suspends_and_restores_the_overlay(tmp_path):
    from repro.core.config import SpinnakerConfig
    from repro.sim.disk import DiskProfile
    from repro.tune.evaluator import evaluate
    from repro.tune.objective import ObjectiveSpec
    from repro.tune.profiles import TuneProfile
    write_tuned_config("sata", {"commit_period": 0.25},
                       config_dir=tmp_path)
    activate_tuned_profile("sata", config_dir=tmp_path)
    tiny = TuneProfile(
        name="tiny",
        base_config=lambda: SpinnakerConfig(
            log_profile=DiskProfile.memory_log()),
        searched=("commit_period",),
        objective=ObjectiveSpec(focus_phases=("propose",)),
        n_nodes=3, threads=2, ops_per_thread=6, warmup_ops=2)
    ev = evaluate(tiny, {"commit_period": 1.0}, seed=1)
    assert ev.metrics["ops"] > 0
    assert active_overlay() == {"commit_period": 0.25}
