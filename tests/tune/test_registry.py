"""The knob registry must match the real config dataclass exactly."""

import dataclasses

import pytest

from repro.baseline.config import CassandraConfig
from repro.core.config import CLIENT_RETRY_BACKOFF_CAP, SpinnakerConfig
from repro.tune.registry import (KNOBS, apply_values, config_values,
                                 get_knob, knob_names, searched_knobs,
                                 validate_registry, validate_values)


def test_registry_validates_against_config():
    validate_registry()


def test_every_knob_is_a_config_field_with_matching_default():
    fields = {f.name: f for f in dataclasses.fields(SpinnakerConfig)}
    for knob in KNOBS:
        assert knob.name in fields
        assert knob.default == fields[knob.name].default
        assert knob.contains(knob.default)


def test_registry_is_the_config_fields_minus_log_profile():
    # an option is either set by somebody (a field, hence a knob) or a
    # constant in core/config.py — nothing sits in between
    fields = {f.name for f in dataclasses.fields(SpinnakerConfig)}
    assert set(knob_names()) == fields - {"log_profile"}
    assert (len(fields), len(KNOBS)) == (16, 15)
    assert len(dataclasses.fields(CassandraConfig)) == 5


@pytest.mark.parametrize("field, bad", [
    ("replication_factor", 0),
    ("commit_period", 0.0),
    ("propose_batch_max_records", 0),
    ("propose_batch_window", 0.0),
    ("catchup_chunk_bytes", 0),
    ("client_try_timeout", 0.0),
    ("client_op_timeout", CLIENT_RETRY_BACKOFF_CAP / 2),
])
def test_validate_rejects(field, bad):
    SpinnakerConfig().validate()
    with pytest.raises(ValueError):
        SpinnakerConfig(**{field: bad}).validate()


def test_knob_names_unique_and_lookup_round_trips():
    names = knob_names()
    assert len(names) == len(set(names))
    for name in names:
        assert get_knob(name).name == name
    with pytest.raises(KeyError):
        get_knob("no_such_knob")


def test_searched_knobs_have_in_range_candidates():
    searched = searched_knobs()
    assert searched, "the default search space must not be empty"
    for knob in searched:
        assert len(knob.candidates) >= 2
        for cand in knob.candidates:
            assert knob.contains(cand)


def test_apply_values_overlays_without_mutating_the_original():
    base = SpinnakerConfig()
    out = apply_values(base, {"commit_period": 0.5,
                              "propose_batching": False})
    assert out.commit_period == 0.5
    assert out.propose_batching is False
    assert base.commit_period == get_knob("commit_period").default
    assert base.propose_batching is True


def test_apply_values_rejects_bad_overlays():
    base = SpinnakerConfig()
    with pytest.raises(KeyError):
        apply_values(base, {"no_such_knob": 1})
    with pytest.raises(KeyError):
        apply_values(base, {"acks_needed": 1})  # derived, not set
    with pytest.raises(ValueError):
        apply_values(base, {"commit_period": -1.0})  # below lo
    with pytest.raises(ValueError):
        apply_values(base, {"propose_batch_max_records": 2.5})  # not int
    with pytest.raises(ValueError):
        apply_values(base, {"group_commit": 1})  # int is not bool


def test_validate_values_accepts_range_edges():
    knob = get_knob("commit_period")
    validate_values({"commit_period": knob.lo})
    validate_values({"commit_period": knob.hi})
    with pytest.raises(ValueError):
        validate_values({"commit_period": knob.hi * 2})


def test_config_values_reads_back_the_overlay():
    cfg = apply_values(SpinnakerConfig(), {"commit_period": 0.25})
    values = config_values(cfg, ["commit_period", "group_commit"])
    assert values == {"commit_period": 0.25, "group_commit": True}
    everything = config_values(cfg)
    assert set(everything) == set(knob_names())
