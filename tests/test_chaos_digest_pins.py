"""Chaos storms, pinned: the sha256 of two storms' full reports.

``python -m repro chaos`` is deterministic in its seed and flags, so a
refactor of the fault injector, the protocol's handlers or the kernel
must leave a storm's report byte-identical.  The two storms below hit
all nine fault kinds between them: the flat 5-node defaults at seed 21
run the seven topology-oblivious kinds (lose-disk included), and the
3-DC 9-node harsh storm at seed 1 adds partition-dc and wan-degrade.
A change that means to move a storm updates this table and says so.
"""

import hashlib

import pytest

from repro.chaos import ChaosConfig, run_chaos

#: sha256 of ``run_chaos(seed, config).format()``
STORMS = {
    "flat-5-defaults-seed21": (
        21, ChaosConfig(),
        "30e78c9334a75be7bd6552e7147eb3a0b4b52a8c5b6bf09cd7633af3785585cb"),
    "dc3-9-harsh-seed1": (
        1, ChaosConfig(n_nodes=9, n_dcs=3, mean_fault_gap=1.0,
                       mean_repair=2.0),
        "7150bbfc4f59efa8e6b2b87d287c032b914f7b5826f75754c2a3fcca3efc646c"),
}


@pytest.mark.parametrize("storm", sorted(STORMS))
def test_the_storm_report_is_pinned(storm):
    seed, config, digest = STORMS[storm]
    report = run_chaos(seed, config)
    assert report.ok, report.format()
    text = report.format()
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def test_the_pinned_storms_hit_every_fault_kind():
    from repro.chaos.nemesis import FAULT_KINDS, generate_schedule
    kinds = set()
    for seed, config, _digest in STORMS.values():
        kinds |= {ev.kind for ev in generate_schedule(seed, config)}
    assert kinds == set(FAULT_KINDS)
