"""Small-surface tests: helpers and edge branches across packages."""

import pytest

from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord
from repro.storage.wal import SharedLog


def wrec(seq, cohort=0):
    return WriteRecord(lsn=LSN(1, seq), cohort_id=cohort, key=b"k",
                       colname=b"c", value=b"v", version=seq)


def test_wal_record_at_and_cohorts():
    log = SharedLog()
    log.append(wrec(1, cohort=0))
    log.append(wrec(1, cohort=3))
    assert log.record_at(0, LSN(1, 1)).cohort_id == 0
    assert log.record_at(0, LSN(9, 9)) is None
    assert sorted(log.cohorts()) == [0, 3]


def test_network_heal_single_pair():
    sim = Simulator()
    net = Network(sim, RngRegistry(2))
    net.endpoint("a")
    net.endpoint("b")
    net.endpoint("c")
    net.block("a", "b")
    net.block("a", "c")
    net.heal("a", "b")
    assert not net.is_blocked("a", "b")
    assert net.is_blocked("a", "c")


def test_baseline_double_crash_and_restart_are_idempotent():
    from repro.baseline import CassandraCluster, CassandraConfig
    from repro.sim.disk import DiskProfile
    cluster = CassandraCluster(
        n_nodes=3, config=CassandraConfig(
            log_profile=DiskProfile.ssd_log()), seed=4)
    node = cluster.nodes["cnode0"]
    node.crash()
    node.crash()       # no-op
    assert not node.alive
    node.restart()
    node.restart()     # no-op
    assert node.alive


def test_spinnaker_node_double_boot_is_noop():
    from repro.core import SpinnakerCluster, SpinnakerConfig
    from repro.sim.disk import DiskProfile
    cluster = SpinnakerCluster(
        n_nodes=3, config=SpinnakerConfig(
            log_profile=DiskProfile.ssd_log()), seed=4)
    cluster.start()
    node = cluster.nodes["node0"]
    incarnation = node.incarnation
    node.boot()        # already alive: no new incarnation
    assert node.incarnation == incarnation


def test_compaction_policy_bucket_reset_on_size_jump():
    from repro.storage.compaction import SizeTieredPolicy
    from repro.storage.memtable import Memtable
    from repro.storage.sstable import SSTable

    def table(size_bytes, seq):
        mt = Memtable()
        mt.apply(WriteRecord(lsn=LSN(1, seq), cohort_id=0,
                             key=b"k%d" % seq, colname=b"c",
                             value=b"x" * size_bytes, version=1))
        return SSTable.from_memtable(mt)

    policy = SizeTieredPolicy(fanin=2, bucket_ratio=1.5)
    # Sizes 100, 10_000, 10_500: the jump resets the bucket; the two
    # large ones merge.
    tables = [table(100, 1), table(10_000, 2), table(10_500, 3)]
    picked = policy.pick(tables)
    assert len(picked) == 2
    assert all(t.bytes_size > 1_000 for t in picked)


def test_histogram_single_sample_percentiles():
    from repro.sim.metrics import Histogram
    hist = Histogram()
    hist.add(3.0)
    assert hist.percentile(0) == hist.percentile(50) == \
        hist.percentile(100) == 3.0


def test_client_write_routing_key():
    from repro.core.messages import ClientWrite, WriteOp
    msg = ClientWrite(ops=(
        WriteOp(key=b"first", colname=b"c", value=b"1"),
        WriteOp(key=b"second", colname=b"c", value=b"2")))
    assert msg.key == b"first"


def test_tracer_filters_compose():
    from repro.sim.tracing import Tracer
    tracer = Tracer()
    tracer.emit("a", "n1", "x")
    tracer.emit("a", "n2", "y")
    tracer.emit("b", "n1", "z")
    assert len(tracer.events(category="a", node="n1")) == 1
    tracer.clear()
    assert len(tracer) == 0
