"""Datacenter-level chaos: whole-DC partitions and WAN degradation.

Covers three layers: schedule generation (flat configs must keep
drawing from the original fault pool, bit-identically), the applier
(``partition-dc`` / ``wan-degrade`` inject and repair exactly the
cross-DC link set), and end-to-end multi-DC storms staying clean.
"""

import pytest

from repro.chaos import ChaosConfig, FaultEvent, arm_schedule, run_chaos
from repro.chaos.nemesis import _FLAT_KINDS, FAULT_KINDS, generate_schedule
from repro.core import SpinnakerCluster


SMOKE_DC = ChaosConfig(duration=8.0, settle=8.0, n_dcs=3, n_nodes=6)


# -- schedule generation -----------------------------------------------------

def test_flat_schedules_never_contain_dc_kinds():
    config = ChaosConfig(duration=60.0)
    for seed in (1, 2, 3):
        kinds = {ev.kind for ev in generate_schedule(seed, config)}
        assert kinds <= set(_FLAT_KINDS)


def test_flat_schedule_is_unchanged_by_topology_knobs():
    """n_dcs=1 must reproduce pre-topology schedules bit-identically,
    whatever the (inert) WAN knobs say."""
    base = ChaosConfig(duration=60.0)
    tweaked = ChaosConfig(duration=60.0, wan_one_way=0.5,
                          wan_asymmetry=0.9)
    for seed in (1, 5, 9):
        assert generate_schedule(seed, base) == \
            generate_schedule(seed, tweaked)


def test_multi_dc_schedules_draw_dc_level_faults():
    config = ChaosConfig(duration=60.0, n_dcs=3)
    kinds = set()
    for seed in range(6):
        kinds |= {ev.kind for ev in generate_schedule(seed, config)}
    assert "partition-dc" in kinds and "wan-degrade" in kinds
    for seed in range(6):
        for ev in generate_schedule(seed, config):
            if ev.kind == "partition-dc":
                assert ev.a in config.dc_names()
            elif ev.kind == "wan-degrade":
                assert ev.a != ev.b
                assert {ev.a, ev.b} <= set(config.dc_names())
                assert ev.extra > 0.0


def test_chaos_config_builds_a_round_robin_topology():
    config = ChaosConfig(n_dcs=3, n_nodes=6)
    topo = config.topology()
    assert topo.dc_of("node0") == "dc0"
    assert topo.dc_of("node4") == "dc1"
    assert config.placement() == "spread"
    # Asymmetry: at least one ordered pair differs from its reverse.
    assert any(topo.wan_delay(a, b) != topo.wan_delay(b, a)
               for a in topo.dcs() for b in topo.dcs() if a != b)
    flat = ChaosConfig(n_dcs=1)
    assert flat.topology() is None
    assert flat.placement() == "ring"


# -- the applier -------------------------------------------------------------

def dc_cluster():
    config = ChaosConfig(n_dcs=3, n_nodes=6)
    cl = SpinnakerCluster(n_nodes=6, seed=23,
                          config=config.spinnaker_config(),
                          topology=config.topology(),
                          placement=config.placement())
    cl.start()
    return cl


def test_partition_dc_blocks_exactly_the_cross_dc_pairs():
    cl = dc_cluster()
    topo = cl.network.topology
    log = arm_schedule(cl, [FaultEvent(at=0.0, kind="partition-dc",
                                       duration=1.0, a="dc0")])
    cl.run(0.5)                               # mid-window
    inside = {n for n in cl.nodes if topo.dc_of(n) == "dc0"}
    outside = set(cl.nodes) - inside
    for a in inside:
        for b in outside:
            assert cl.network.is_blocked(a, b)
            assert cl.network.is_blocked(b, a)
    survivor_a, survivor_b = sorted(outside)[:2]
    assert not cl.network.is_blocked(survivor_a, survivor_b)
    cl.run(1.0)                               # past the repair
    assert not cl.network._blocked
    assert any("partition-dc" in line for line in log)


def test_wan_degrade_adds_directed_delay_and_clears():
    cl = dc_cluster()
    topo = cl.network.topology
    arm_schedule(cl, [FaultEvent(at=0.0, kind="wan-degrade",
                                 duration=1.0, a="dc0", b="dc1",
                                 extra=0.25)])
    cl.run(0.5)
    a_side = [n for n in cl.nodes if topo.dc_of(n) == "dc0"]
    b_side = [n for n in cl.nodes if topo.dc_of(n) == "dc1"]
    for a in a_side:
        for b in b_side:
            assert cl.network._extra_delays.get((a, b)) == 0.25
            # one-directional: the reverse path stays nominal
            assert not cl.network._extra_delays.get((b, a))
    cl.run(1.0)
    assert not any(cl.network._extra_delays.values())


def test_partition_dc_without_topology_is_a_noop():
    cl = SpinnakerCluster(n_nodes=3, seed=2)
    cl.start()
    log = arm_schedule(cl, [FaultEvent(at=0.0, kind="partition-dc",
                                       duration=1.0, a="dc0")])
    cl.run(0.5)
    assert not cl.network._blocked
    assert any("skipped" in line for line in log)


# -- end to end --------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 4])
def test_multi_dc_storm_stays_clean(seed):
    report = run_chaos(seed, SMOKE_DC)
    assert report.ok, report.format()
    assert report.counters["writes_acked"] > 0
    assert report.counters["reads"] > 0


def test_multi_dc_storm_is_reproducible():
    first = run_chaos(3, SMOKE_DC)
    second = run_chaos(3, SMOKE_DC)
    assert first.format() == second.format()
    assert first.schedule == second.schedule


def test_harsh_nine_node_three_dc_storm_seed_8_stays_clean():
    """``python -m repro chaos --nodes 9 --mean-fault-gap 1.0
    --mean-repair 2.0 --duration 30 --dcs 3 --seed 8``: node7's rejoin
    used to die with NoNodeError('/nodes/node7') at t=32.7 — its old
    ephemeral expired between ``join``'s failed create and its delete."""
    config = ChaosConfig(n_nodes=9, duration=30.0, mean_fault_gap=1.0,
                         mean_repair=2.0, n_dcs=3)
    report = run_chaos(8, config)
    assert report.ok, report.format()
