"""Tests for the logging-device model (group commit, profiles, crashes)."""

import pytest

from repro.sim.disk import DiskProfile, LogDevice
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry


def make_disk(profile=None, group_commit=True):
    sim = Simulator()
    disk = LogDevice(sim, RngRegistry(3), "log0", profile=profile,
                     group_commit=group_commit)
    return sim, disk


def test_force_completes_within_profile_bounds():
    profile = DiskProfile("flat", 1e-3, 1e-3, transfer_rate=0)
    sim, disk = make_disk(profile)
    ev = disk.force(512)
    sim.run()
    assert ev.ok
    assert sim.now == pytest.approx(1e-3)


def test_group_commit_batches_concurrent_forces():
    profile = DiskProfile("flat", 1e-3, 1e-3, transfer_rate=0)
    sim, disk = make_disk(profile)
    first = disk.force(512)
    # These arrive while op 1 is in flight and must share op 2.
    rest = [disk.force(512) for _ in range(9)]
    sim.run()
    assert first.ok and all(ev.ok for ev in rest)
    assert disk.ops_performed == 2
    assert disk.forces_completed == 10
    assert sim.now == pytest.approx(2e-3)


def test_without_group_commit_forces_serialize():
    profile = DiskProfile("flat", 1e-3, 1e-3, transfer_rate=0)
    sim, disk = make_disk(profile, group_commit=False)
    for _ in range(5):
        disk.force(512)
    sim.run()
    assert disk.ops_performed == 5
    assert sim.now == pytest.approx(5e-3)


def test_transfer_time_scales_with_batch_bytes():
    profile = DiskProfile("flat", 0.0, 0.0, transfer_rate=1e6)
    sim, disk = make_disk(profile)
    disk.force(1_000_000)  # 1 second of transfer
    sim.run()
    assert sim.now == pytest.approx(1.0)


def test_seek_penalty_applies_on_file_growth_boundary():
    profile = DiskProfile("seeky", 0.0, 0.0, transfer_rate=0,
                          seek_penalty=10e-3, seek_interval=1024)
    sim, disk = make_disk(profile)
    disk.force(512)   # below the boundary: no seek
    sim.run()
    t1 = sim.now
    disk.force(600)   # crosses 1024: seek penalty
    sim.run()
    assert t1 == pytest.approx(0.0)
    assert sim.now == pytest.approx(10e-3)


def test_crash_drops_inflight_forces():
    profile = DiskProfile("flat", 1e-3, 1e-3, transfer_rate=0)
    sim, disk = make_disk(profile)
    ev = disk.force(512)
    sim.schedule(0.5e-3, disk.crash)
    sim.run()
    assert not ev.triggered


def test_force_after_crash_never_fires_until_restart():
    profile = DiskProfile("flat", 1e-3, 1e-3, transfer_rate=0)
    sim, disk = make_disk(profile)
    disk.crash()
    dead = disk.force(512)
    sim.run()
    assert not dead.triggered
    disk.restart()
    alive = disk.force(512)
    sim.run()
    assert alive.ok


def test_completion_from_before_a_crash_is_inert_after_restart():
    """``lose_disk`` crashes and reboots a node at one instant, so the
    operation in flight completes into a live device: it must fire no
    event, move no counter and start no second operation."""
    profile = DiskProfile("flat", 1e-3, 1e-3, transfer_rate=0)
    sim, disk = make_disk(profile)
    lost = disk.force(512)              # in flight until t = 1.0 ms
    sim.run(until=0.5e-3)
    disk.crash()
    disk.restart()
    fresh = disk.force(512)             # the new incarnation's: 1.5 ms
    sim.run(until=1.2e-3)               # the old operation's time passes
    assert not lost.triggered and not fresh.triggered
    assert disk.forces_completed == 0 and disk.ops_performed == 0
    queued = disk.force(512)            # device busy: waits for 1.5 ms
    sim.run()
    assert fresh.ok and queued.ok and not lost.triggered
    assert disk.forces_completed == 2 and disk.ops_performed == 2
    assert sim.now == pytest.approx(2.5e-3)   # one operation at a time


def test_ssd_profile_is_much_faster_than_sata():
    sim1, sata = make_disk(DiskProfile.sata_log())
    sata.force(4096)
    sim1.run()
    sim2, ssd = make_disk(DiskProfile.ssd_log())
    ssd.force(4096)
    sim2.run()
    assert sim2.now < sim1.now / 4


def test_memory_profile_is_microseconds():
    sim, mem = make_disk(DiskProfile.memory_log())
    mem.force(4096)
    sim.run()
    assert sim.now < 1e-4


def test_append_noforce_tracks_growth_without_latency():
    profile = DiskProfile("seeky", 0.0, 0.0, transfer_rate=0,
                          seek_penalty=5e-3, seek_interval=1024)
    sim, disk = make_disk(profile)
    disk.append_noforce(2000)  # grows the file past a boundary, free now
    assert sim.now == 0.0
    disk.force(10)  # next force pays the boundary seek
    sim.run()
    assert sim.now == pytest.approx(5e-3)
