"""The chaos engine itself: smoke storms, determinism, shrinking.

``test_chaos_smoke`` is the tier-1 guarantee: a handful of fixed seeds
storm a live cluster and the invariant auditor, history checker, and
durability sweep must all come back clean.  The remaining tests pin the
engine's own machinery — schedule generation is a pure function of
``(seed, config)``, whole runs are bit-reproducible, ``ddmin`` actually
minimizes, and the emitted regression test is valid Python.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.chaos import (ChaosConfig, ChaosReport, FaultEvent,
                         InvariantAuditor, InvariantViolation, ddmin,
                         format_regression_test, generate_schedule,
                         replay_schedule, run_chaos)
from repro.chaos.nemesis import MAX_DISK_LOSSES, MAX_REPAIR
from repro.chaos.shrinker import ShrinkResult
from repro.core.replication import Role
from repro.storage.lsn import LSN

SMOKE = ChaosConfig(duration=8.0, settle=8.0)


@pytest.mark.parametrize("seed", [1, 3, 5, 7, 11])
def test_chaos_smoke(seed):
    report = run_chaos(seed, SMOKE)
    assert report.ok, report.format()
    assert report.counters["writes_acked"] > 0
    assert report.counters["reads"] > 0
    assert report.counters["audit_ticks"] > 0


#: ``python -m repro chaos --nodes 5 --duration 30 --seed N``: the
#: crash-heavy seeds (1-8 schedule no disk loss) and four that lose a
#: disk — crash, wipe and boot at one instant, the hardest case for the
#: incarnation guard that keeps a dead incarnation's handlers inert
STORM_SEEDS = [1, 2, 3, 4, 5, 6, 7, 8]
LOSE_DISK_SEEDS = [12, 13, 21, 26]


@pytest.mark.parametrize("seed", STORM_SEEDS + LOSE_DISK_SEEDS)
def test_full_length_storm_stays_clean(seed):
    config = ChaosConfig()          # the CLI's defaults: 5 nodes, 30 s
    report = run_chaos(seed, config)
    assert report.ok and not report.violation_summary(), report.format()
    assert report.format().rstrip().endswith("PASS")
    kinds = {event.kind for event in report.schedule}
    assert ("lose-disk" in kinds) == (seed in LOSE_DISK_SEEDS)


#: ``--mean-fault-gap 1.0 --mean-repair 2.0``: outages overlap
HARSH = {"mean_fault_gap": 1.0, "mean_repair": 2.0}


def _storm_sweep():
    """The rest of the sweep: seeds 1-24 of {flat, 3-DC} x {5, 9 nodes}
    x {the CLI's defaults, harsh} (flat 5-node defaults from seed 9:
    the test above has 1-8).  Four used to fail: 3-DC 5-node harsh seed
    1 (a deposed leader's unacked tail passed for committed), seed 3 (a
    re-proposal below f.cmt stalled a later takeover), 3-DC 9-node harsh
    seed 10 (two nodes restarted inside a DC isolation never opened a
    coordination session) and 3-DC 5-node defaults seed 9 (a follower
    that lost a propose logged the next and won an election without the
    lost, committed record)."""
    for dcs in (1, 3):
        for nodes in (5, 9):
            for knobs in ("default", "harsh"):
                first = 9 if (dcs, nodes, knobs) == (1, 5, "default") else 1
                for seed in range(first, 25):
                    yield pytest.param(
                        seed, ChaosConfig(n_nodes=nodes, n_dcs=dcs,
                                          **(HARSH if knobs == "harsh"
                                             else {})),
                        id=f"{dcs}dc-{nodes}n-{knobs}-s{seed}")


#: the tests whose storms ``storm_reports`` runs in a process pool
POOLED = ("test_storm_sweep_stays_clean", "test_regression_storm_recovers")


@pytest.fixture(scope="session")
def storm_reports(request):
    """Node id -> future report, for every collected (so ``-k``
    selected) test in ``POOLED``: their storms run in a process pool of
    one worker per CPU, and each test asserts its own.  ``run_chaos`` is
    deterministic in ``(seed, config)``, so a worker's report is the one
    the test would have computed; an error in a storm is raised by its
    own test."""
    storms = {item.nodeid: item.callspec.params
              for item in request.session.items
              if getattr(item, "originalname", None) in POOLED}
    with ProcessPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        yield {nodeid: pool.submit(run_chaos, p["seed"], p["config"])
               for nodeid, p in storms.items()}
        pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("seed, config", _storm_sweep())
def test_storm_sweep_stays_clean(seed, config, storm_reports, request):
    report = storm_reports[request.node.nodeid].result()
    assert report.ok and not report.violation_summary(), report.format()


#: storms whose coordination calls used to wait forever on a lost
#: message (monitors blocked in ``CoordClient._call``); the session now
#: ends at the next heartbeat and the node rejoins
COORD_LOSS_STORMS = [
    pytest.param(116, ChaosConfig(n_nodes=5, n_dcs=3), id="3dc-5n-s116"),
    pytest.param(73, ChaosConfig(n_nodes=9, n_dcs=3, **HARSH),
                 id="3dc-9n-harsh-s73"),
]
#: the other half of the liveness FAILs, not coordination: a takeover's
#: re-proposal wait (``core/recovery.py``, ``yield committed``) hung with
#: both followers RECOVERING, while ``_on_catchup_request`` dropped their
#: asks because the leader was not yet open for writes; a leader whose
#: re-proposals are out now serves them
TAKEOVER_WAIT_STORMS = [
    pytest.param(62, ChaosConfig(), id="flat-5n-s62"),
    pytest.param(34, ChaosConfig(**HARSH), id="flat-5n-harsh-s34"),
    pytest.param(111, ChaosConfig(n_nodes=5, n_dcs=3), id="3dc-5n-s111"),
    pytest.param(117, ChaosConfig(n_nodes=5, n_dcs=3), id="3dc-5n-s117"),
]
#: storms whose elections counted announcements that had outlived their
#: round (a restarted node's previous incarnation, a follower's from the
#: last election) and elected a replica without acknowledged writes
#: (recency, durability, ``log-prefix``); a round now counts one
#: announcement per member, its latest, of the cohort's current epoch
STALE_COUNT_STORMS = [
    pytest.param(29, ChaosConfig(), id="flat-5n-s29"),
    pytest.param(80, ChaosConfig(**HARSH), id="flat-5n-harsh-s80"),
    pytest.param(30, ChaosConfig(n_nodes=5, n_dcs=3, **HARSH),
                 id="3dc-5n-harsh-s30"),
    pytest.param(43, ChaosConfig(n_nodes=9, n_dcs=3, **HARSH),
                 id="3dc-9n-harsh-s43"),
    pytest.param(91, ChaosConfig(n_nodes=9, n_dcs=3, **HARSH),
                 id="3dc-9n-harsh-s91"),
]


@pytest.mark.parametrize("seed, config",
                         COORD_LOSS_STORMS + TAKEOVER_WAIT_STORMS
                         + STALE_COUNT_STORMS)
def test_regression_storm_recovers(seed, config, storm_reports, request):
    report = storm_reports[request.node.nodeid].result()
    assert report.ok and not report.violation_summary(), report.format()


def test_same_seed_reproduces_bit_for_bit():
    first = run_chaos(2, SMOKE)
    second = run_chaos(2, SMOKE)
    assert first.format() == second.format()
    assert first.schedule == second.schedule
    assert first.counters == second.counters


def test_different_seeds_differ():
    assert generate_schedule(1, SMOKE) != generate_schedule(2, SMOKE)


def test_schedule_respects_budgets():
    config = ChaosConfig(duration=60.0)
    schedule = generate_schedule(4, config)
    assert schedule, "a 60s storm must inject something"
    times = [ev.at for ev in schedule]
    assert times == sorted(times)
    assert all(0.0 < t < config.duration for t in times)
    disk_losses = [ev for ev in schedule if ev.kind == "lose-disk"]
    assert len(disk_losses) <= MAX_DISK_LOSSES
    for ev in schedule:
        if ev.duration is not None:
            assert ev.duration <= MAX_REPAIR + 1e-9


def test_replay_schedule_matches_original_run():
    report = run_chaos(6, SMOKE)
    replayed = replay_schedule(6, SMOKE, report.schedule)
    assert replayed.format() == report.format()


# ---------------------------------------------------------------------------
# ddmin + regression-test emission
# ---------------------------------------------------------------------------

def test_ddmin_finds_minimal_failing_pair():
    calls = []

    def fails(subset):
        calls.append(list(subset))
        return {3, 7} <= set(subset)

    result = ddmin(list(range(1, 11)), fails)
    assert result == [3, 7]


def test_ddmin_single_culprit():
    assert ddmin(list(range(20)), lambda s: 13 in s) == [13]


def test_ddmin_budget_returns_best_so_far():
    result = ddmin(list(range(1, 11)),
                   lambda s: {3, 7} <= set(s), max_runs=3)
    assert {3, 7} <= set(result)


def test_format_regression_test_is_valid_python():
    config = ChaosConfig(duration=8.0)
    events = [
        FaultEvent(at=1.5, kind="crash-node", duration=0.5, node="node1"),
        FaultEvent(at=3.0, kind="partition-oneway", duration=2.0,
                   a="node2", b="node3"),
    ]
    report = ChaosReport(seed=9, config=config, schedule=events,
                         fault_log=[], invariant_violations=[],
                         history_violations=[], durability_failures=[],
                         counters={})
    result = ShrinkResult(failed=True, seed=9, config=config,
                          original=events * 3, minimized=events,
                          report=report, replays=12)
    source = format_regression_test(result)
    compile(source, "<regression>", "exec")        # must parse
    assert "replay_schedule(seed=9" in source
    assert source.count("FaultEvent(") >= 2
    assert "n_dcs" not in source                    # flat: the default


def test_regression_test_of_a_multi_dc_storm_replays_its_topology():
    config = ChaosConfig(duration=8.0, n_nodes=9, n_dcs=3, wan_one_way=0.05)
    events = [FaultEvent(at=1.5, kind="partition-dc", duration=0.5,
                         a="dc1")]
    report = ChaosReport(seed=4, config=config, schedule=events,
                         fault_log=[], invariant_violations=[],
                         history_violations=[], durability_failures=[],
                         counters={})
    source = format_regression_test(ShrinkResult(
        failed=True, seed=4, config=config, original=events,
        minimized=events, report=report, replays=1))
    compile(source, "<regression>", "exec")
    assert "--dcs 3`" in source
    assert "mean_repair=1.5, n_dcs=3, wan_one_way=0.05)" in source


# ---------------------------------------------------------------------------
# Invariant auditor unit tests (against a hand-built fake cluster)
# ---------------------------------------------------------------------------

class _FakeSim:
    now = 42.0


class _FakeEngine:
    checkpoint_lsn = LSN.zero()


class _FakeWal:
    def __init__(self, records=()):
        self._records = list(records)

    def write_records(self, cohort_id, after=LSN.zero(), upto=None):
        return [r for r in self._records
                if r.lsn > after and (upto is None or r.lsn <= upto)]

    def min_retained_lsn(self, cohort_id):
        return LSN.zero()

    def skipped_lsns(self, cohort_id):
        return set()


class _FakeRecord:
    def __init__(self, lsn, version=1):
        self.lsn = lsn
        self.key = b"k"
        self.colname = b"c"
        self.value = b"v%d" % version
        self.version = version
        self.tombstone = False


class _FakeReplica:
    def __init__(self, role=Role.FOLLOWER, epoch=1,
                 committed=LSN.zero(), records=()):
        self.role = role
        self.epoch = epoch
        self.open_for_writes = role == Role.LEADER
        self.committed_lsn = committed
        self.catchup_floor = LSN.zero()
        self.engine = _FakeEngine()
        self._records = records


class _FakeNode:
    def __init__(self, replicas):
        self.alive = True
        self.incarnation = 1
        self.replicas = replicas
        self.wal = _FakeWal()


class _FakeCohort:
    def __init__(self, cohort_id, members):
        self.cohort_id = cohort_id
        self.members = members


class _FakePartitioner:
    def __init__(self, cohorts):
        self.cohorts = cohorts


class _FakeCluster:
    def __init__(self, nodes, cohorts):
        self.sim = _FakeSim()
        self.nodes = nodes
        self.partitioner = _FakePartitioner(cohorts)

    def all_failures(self):
        return []


def _two_node_cluster(rep_a, rep_b):
    nodes = {"a": _FakeNode({0: rep_a}), "b": _FakeNode({0: rep_b})}
    for node in nodes.values():
        (replica,) = node.replicas.values()
        node.wal = _FakeWal(replica._records)
    return _FakeCluster(nodes, [_FakeCohort(0, ["a", "b"])])


def test_auditor_flags_two_leaders_in_same_epoch():
    cluster = _two_node_cluster(_FakeReplica(Role.LEADER, epoch=3),
                                _FakeReplica(Role.LEADER, epoch=3))
    auditor = InvariantAuditor(cluster)
    auditor.audit_tick()
    assert [v.rule for v in auditor.violations] == ["leader-uniqueness"]
    assert "epoch 3" in auditor.violations[0].detail


def test_auditor_allows_leaders_in_different_epochs():
    # A deposed leader that has not yet heard of the new epoch is a
    # liveness wrinkle, not a safety violation.
    cluster = _two_node_cluster(_FakeReplica(Role.LEADER, epoch=3),
                                _FakeReplica(Role.LEADER, epoch=4))
    auditor = InvariantAuditor(cluster)
    auditor.audit_tick()
    assert auditor.violations == []


def test_auditor_flags_committed_lsn_regression_within_incarnation():
    replica = _FakeReplica(committed=LSN(1, 5))
    cluster = _two_node_cluster(replica, _FakeReplica())
    auditor = InvariantAuditor(cluster)
    auditor.audit_tick()
    replica.committed_lsn = LSN(1, 3)
    auditor.audit_tick()
    rules = [v.rule for v in auditor.violations]
    assert rules == ["committed-lsn-monotonicity"]


def test_auditor_allows_lsn_reset_across_incarnations():
    replica = _FakeReplica(committed=LSN(1, 5))
    cluster = _two_node_cluster(replica, _FakeReplica())
    auditor = InvariantAuditor(cluster)
    auditor.audit_tick()
    cluster.nodes["a"].incarnation = 2     # crashed and restarted
    replica.committed_lsn = LSN.zero()
    auditor.audit_tick()
    assert auditor.violations == []


def test_auditor_flags_missing_committed_record():
    recs = [_FakeRecord(LSN(1, 1)), _FakeRecord(LSN(1, 2))]
    rep_a = _FakeReplica(committed=LSN(1, 2), records=recs)
    rep_b = _FakeReplica(committed=LSN(1, 2), records=recs[:1])
    cluster = _two_node_cluster(rep_a, rep_b)
    auditor = InvariantAuditor(cluster)
    auditor._check_log_prefixes()
    assert [v.rule for v in auditor.violations] == ["log-prefix"]
    assert "missing from b" in auditor.violations[0].detail


def test_auditor_respects_catchup_floor():
    # b got record 1.1 as a shipped SSTable, not a log record; its
    # catch-up floor covers the hole.
    recs = [_FakeRecord(LSN(1, 1)), _FakeRecord(LSN(1, 2))]
    rep_a = _FakeReplica(committed=LSN(1, 2), records=recs)
    rep_b = _FakeReplica(committed=LSN(1, 2), records=recs[1:])
    rep_b.catchup_floor = LSN(1, 1)
    cluster = _two_node_cluster(rep_a, rep_b)
    auditor = InvariantAuditor(cluster)
    auditor._check_log_prefixes()
    assert auditor.violations == []


def test_auditor_flags_diverging_values():
    rep_a = _FakeReplica(committed=LSN(1, 1),
                         records=[_FakeRecord(LSN(1, 1), version=1)])
    rep_b = _FakeReplica(committed=LSN(1, 1),
                         records=[_FakeRecord(LSN(1, 1), version=2)])
    cluster = _two_node_cluster(rep_a, rep_b)
    auditor = InvariantAuditor(cluster)
    auditor._check_log_prefixes()
    assert [v.rule for v in auditor.violations] == ["log-prefix"]
    assert "diverge" in auditor.violations[0].detail


def test_violation_str_is_stable():
    v = InvariantViolation(at=1.25, rule="leader-uniqueness", detail="x")
    assert str(v) == "[t=1.2500] leader-uniqueness: x"
