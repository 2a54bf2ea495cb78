"""Regression tests for cross-yield races found by the atomicity lint.

Each test pins one interleaving the static pass flagged and the fix
closed: state snapshotted before a scheduling point must be
re-validated before it drives an externally visible decision.
"""

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.loadbalance import transfer_leadership
from repro.core.messages import CatchupChunk
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn
from repro.storage.lsn import LSN


def make_cluster(n=5, seed=47):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cluster = SpinnakerCluster(n_nodes=n, config=cfg, seed=seed)
    cluster.start()
    cluster.run(2.0)
    return cluster


def run(cluster, gen, limit=60.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit, what="proc")
    return proc.result()


def drive(gen):
    """Exhaust a generator whose delegates never yield real events."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# transfer_leadership: deposed during the catch-up push
# ---------------------------------------------------------------------------

def test_transfer_aborts_when_deposed_during_catchup(monkeypatch):
    """A leader deposed while pushing catch-up state to its successor
    must NOT name that successor on the leader znode afterwards — the
    znode now backs someone else's claim."""
    import repro.core.loadbalance as lb

    cluster = make_cluster()
    cohort_id = 0
    old_leader = cluster.leader_of(cohort_id)
    replica = cluster.replica(old_leader, cohort_id)
    successor = replica.peers()[0]

    def deposing_push(rep, peers):
        rep.step_down()            # a rival won mid-push
        return True
        yield                      # pragma: no cover - generator marker

    monkeypatch.setattr(lb, "try_push_catchup", deposing_push)
    znode_writes = []
    orig_set_data = replica.node.zk.set_data

    def recording_set_data(path, data, version=None):
        znode_writes.append(path)
        return orig_set_data(path, data, version=version)

    monkeypatch.setattr(replica.node.zk, "set_data", recording_set_data)

    ok = run(cluster, transfer_leadership(replica, successor))
    assert ok is False
    assert not [p for p in znode_writes if p.endswith("/leader")]
    assert not replica.is_leader
    # Writes are unblocked again (the finally ran) so a re-election can
    # restore service.
    assert not replica.write_block


# ---------------------------------------------------------------------------
# _handle_catchup_chunk: role/leader adoption re-validates after the ingest
# ---------------------------------------------------------------------------

class _FakeNode:
    name = "n1"
    request_tracer = None          # untraced chunks never touch it

    def trace(self, *a, **k):
        pass


class _FakeReplica:
    def __init__(self):
        self.cohort_id = 0
        self.committed_lsn = LSN.zero()
        self.catchup_floor = LSN.zero()
        self.epoch = 3
        self.role = Role.RECOVERING
        self.leader = None
        self.set_leader_calls = []

    def set_leader(self, leader):
        self.set_leader_calls.append(leader)
        self.leader = leader


class _FakeRequest:
    src = "n2"

    def __init__(self, payload):
        self.payload = payload
        self.replies = []

    def respond(self, reply, size):
        self.replies.append(reply)


def _chunk(final=True):
    return CatchupChunk(
        cohort_id=0, epoch=3, committed_lsn=LSN.zero(),
        source=("n2", 1), sstables=(),
        snapshot_seen=LSN.zero(), floor=LSN.zero(), records=(),
        valid_lsns=(), valid_after=LSN.zero(), valid_upto=LSN.zero(),
        more=False, final=final)


def _handle_chunk(monkeypatch, during_ingest, chunk=None):
    """Run the chunk handler with ``during_ingest(replica)`` standing in
    for whatever else ran while the ingest waited on its disk forces."""
    import repro.core.node as node_mod

    def fake_ingest(replica, chunk):
        during_ingest(replica)
        return None
        yield                      # pragma: no cover - generator marker

    monkeypatch.setattr(node_mod, "ingest_catchup", fake_ingest)
    replica = _FakeReplica()
    req = _FakeRequest(chunk if chunk is not None else _chunk())
    drive(node_mod.SpinnakerNode._handle_catchup_chunk(_FakeNode(), req,
                                                       replica))
    return replica, req


def test_catchup_adoption_discarded_after_promotion(monkeypatch):
    """If an election promotes this replica while it was ingesting the
    final page, the stale FOLLOWER/leader adoption must be discarded,
    not clobber the fresh leadership."""
    def promote(replica):
        replica.role = Role.LEADER   # we won an election mid-ingest

    replica, req = _handle_chunk(monkeypatch, promote)
    assert req.replies == ["stale"]
    assert replica.role == Role.LEADER
    assert replica.set_leader_calls == []


def test_catchup_adoption_discarded_after_new_leader(monkeypatch):
    """If the replica learned a *different* leader during the ingest,
    adopting the one that pushed the page would fork its view."""
    def relearn(replica):
        replica.leader = "n3"        # a fresh election named n3

    replica, req = _handle_chunk(monkeypatch, relearn)
    assert req.replies == ["stale"]
    assert replica.leader == "n3"
    assert replica.role == Role.RECOVERING
    assert replica.set_leader_calls == []


def test_catchup_adoption_discarded_after_newer_epoch(monkeypatch):
    """A newer epoch that reached us mid-ingest outranks the page."""
    def newer_epoch(replica):
        replica.epoch = 4

    replica, req = _handle_chunk(monkeypatch, newer_epoch)
    assert req.replies == ["stale"]
    assert replica.role == Role.RECOVERING
    assert replica.set_leader_calls == []


def test_catchup_adoption_still_runs_when_state_is_fresh(monkeypatch):
    replica, req = _handle_chunk(monkeypatch, lambda replica: None)
    assert req.replies == [{"cmt": LSN.zero(), "floor": LSN.zero()}]
    assert replica.role == Role.FOLLOWER
    assert replica.set_leader_calls == ["n2"]


def test_only_the_final_page_promotes(monkeypatch):
    """A bulk page is built with the leader's writes open: promoting on
    it would let the follower ack proposes above a gap."""
    replica, req = _handle_chunk(monkeypatch, lambda replica: None,
                                 chunk=_chunk(final=False))
    assert req.replies == [{"cmt": LSN.zero(), "floor": LSN.zero()}]
    assert replica.role == Role.RECOVERING
    assert replica.set_leader_calls == []
