"""The objective must match the documented formula, hand-computed."""

import pytest

from repro.tune.objective import ObjectiveSpec, focus_ms, objective_score

PHASES = {
    "log_force": {"mean_ms": 6.0, "p95_ms": 9.0, "share": 0.6},
    "replicate_rtt": {"mean_ms": 2.0, "p95_ms": 3.0, "share": 0.2},
}


def test_score_matches_hand_computation():
    spec = ObjectiveSpec(focus_phases=("log_force",), phase_emphasis=0.25,
                         throughput_weight=0.5, error_penalty=1000.0)
    metrics = {"p50_ms": 10.0, "throughput": 2000.0,
               "errors": 0, "ops": 100}
    # 10 + 0.25*6 - 0.5*2000/1000 + 0 = 10.5
    assert objective_score(metrics, PHASES, spec) == pytest.approx(10.5)


def test_focus_terms_sum_over_named_phases_only():
    spec = ObjectiveSpec(focus_phases=("log_force", "replicate_rtt",
                                       "not_traced"))
    assert focus_ms(PHASES, spec) == pytest.approx(8.0)


def test_errors_dominate_the_score():
    spec = ObjectiveSpec()
    clean = {"p50_ms": 10.0, "throughput": 1000.0,
             "errors": 0, "ops": 100}
    dirty = dict(clean, errors=2)
    # 2 errors over 100 ops adds 1000 * 0.02 = 20 ms-equivalent
    assert (objective_score(dirty, PHASES, spec)
            - objective_score(clean, PHASES, spec)) == pytest.approx(20.0)


def test_empty_phase_table_drops_the_focus_term():
    spec = ObjectiveSpec(phase_emphasis=0.25, throughput_weight=0.0,
                         error_penalty=0.0)
    metrics = {"p50_ms": 7.0, "throughput": 0.0, "errors": 0, "ops": 1}
    assert objective_score(metrics, {}, spec) == pytest.approx(7.0)


def test_adding_latency_outside_focus_never_lowers_the_score():
    # The regression the absolute-time form exists to prevent: a config
    # that adds non-focus latency (worse p50, same throughput) must
    # score strictly worse, even though the focus *share* shrinks.
    spec = ObjectiveSpec(focus_phases=("log_force",))
    before = {"p50_ms": 10.0, "throughput": 1000.0,
              "errors": 0, "ops": 100}
    after = dict(before, p50_ms=11.0)
    shifted = {"log_force": {"mean_ms": 6.0, "p95_ms": 9.0,
                             "share": 6.0 / 11.0}}
    assert (objective_score(after, shifted, spec)
            > objective_score(before, PHASES, spec))
