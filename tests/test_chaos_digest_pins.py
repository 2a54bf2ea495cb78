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
        "2a99a7730bb27988b6f1d558cbf44fbdc8f624028551caea2e6c9eed46a7890d"),
    "dc3-9-harsh-seed1": (
        1, ChaosConfig(n_nodes=9, n_dcs=3, mean_fault_gap=1.0,
                       mean_repair=2.0),
        "77a5eaf25305c9946db0b39a6128a361c3534f5e57d983f4fbf168553fa5ed2d"),
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
