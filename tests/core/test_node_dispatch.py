"""Tests for node-level dispatch: misrouted requests, cohort messages
for no local replica, coordination watch routing."""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.messages import TakeoverState
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn


@pytest.fixture
def cluster():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cl = SpinnakerCluster(n_nodes=5, config=cfg, seed=27)
    cl.start()
    return cl


def run(cluster, gen, limit=30.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="proc")
    return proc.result()


def test_write_to_non_replica_gets_wrong_node(cluster):
    key = b"misroute"
    cohort = cluster.partitioner.locate(key)
    outsider = next(name for name in cluster.nodes
                    if name not in cohort.members)
    client = cluster.client()
    from repro.core.messages import ClientWrite, WriteOp
    msg = ClientWrite(ops=(WriteOp(key=key, colname=b"c", value=b"v"),))

    def scenario():
        reply = yield client.endpoint.request(outsider, msg, size=128)
        return reply

    reply = run(cluster, scenario())
    assert reply == {"ok": False, "code": "wrong-node",
                     "map_version": cluster.partitioner.version}


def test_client_recovers_from_misrouted_cache(cluster):
    key = b"misroute2"
    cohort = cluster.partitioner.locate(key)
    outsider = next(name for name in cluster.nodes
                    if name not in cohort.members)
    client = cluster.client()
    client._leader_cache[cohort.cohort_id] = outsider  # poisoned

    def scenario():
        yield from client.put(key, b"c", b"v")
        return (yield from client.get(key, b"c", consistent=True))

    got = run(cluster, scenario())
    assert got.value == b"v"


def test_unknown_cohort_message_is_ignored(cluster):
    member = list(cluster.nodes)[0]
    client = cluster.client()

    def scenario():
        try:
            yield client.endpoint.request(
                member, TakeoverState(cohort_id=999, epoch=0), size=64,
                timeout=0.5)
            return "replied"
        except Exception:
            return "dropped"

    assert run(cluster, scenario()) == "dropped"
    assert cluster.all_failures() == []


def test_watch_events_reach_zk_client_through_dispatcher(cluster):
    """Coordination watch notifications are routed by the node's own
    dispatcher (nodes share one endpoint for everything)."""
    node = cluster.nodes["node0"]
    fired = []

    def scenario():
        yield from node.zk.create("/probe", b"x")
        yield from node.zk.get("/probe",
                               watcher=lambda ev: fired.append(ev.kind))
        yield from node.zk.set_data("/probe", b"y")

    proc = node.spawn(scenario(), "probe")
    cluster.run_until(lambda: proc.triggered, limit=30.0, what="watch")
    cluster.run(0.5)
    assert fired == ["changed"]
