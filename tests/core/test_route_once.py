"""Route once: a client request carries the cohort and the map version
it was routed with, and a server on the same version takes the cohort as
read.  Everything here pins that this is *only* faster: the replica a
stamped request reaches is the one locating its key would reach, on
every layout and every pair of versions; an unstamped or stale-stamped
request is answered as it always was; the ownership re-check after the
CPU slice still catches a layout that moved under the request; and no
client message can be added that skips the stamp."""

import ast
import dataclasses
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpinnakerCluster, SpinnakerConfig, api, messages
from repro.core.config import READ_SERVICE, WRITE_LEADER_SERVICE
from repro.core.datamodel import PutResult
from repro.core.messages import ClientGet, ClientWrite, WriteOp
from repro.core.partition import MembershipChange
from repro.core.rebalance import plan_join
from repro.sim.disk import DiskProfile
from repro.sim.process import drive

from .test_handler_continuations import SpyRequest
from .test_rebalance import rebalance

N_NODES = 5
KEYS = [b"route-%d" % i for i in range(24)]


# ---------------------------------------------------------------------------
# stamped dispatch == replica_for_key, on every layout and version pair
# ---------------------------------------------------------------------------

#: up to four splits / replaces, as (kind, cohort pick, split point,
#: member picks) — resolved against the layout they land on
LAYOUT_CHANGES = st.lists(st.tuples(
    st.sampled_from(["split", "replace"]),
    st.integers(0, 10_000),                           # which cohort
    st.floats(0.05, 0.95),                            # where in its range
    st.permutations(range(N_NODES))), max_size=4)


def apply_step(cluster, step):
    kind, pick, where, order = step
    part = cluster.partitioner
    cohort = part.cohorts[pick % len(part.cohorts)]
    names = sorted(cluster.nodes)
    members = tuple(names[i] for i in order[:3])
    if kind == "split":
        lo, hi = cohort.key_range.lo, cohort.key_range.hi
        split_key = min(max(lo + int((hi - lo) * where), lo + 1), hi - 1)
        change = MembershipChange(
            version=part.version + 1, kind="split",
            cohort_id=cohort.cohort_id, new_members=members,
            split_key=split_key, new_cohort_id=part.next_cohort_id())
    else:
        change = MembershipChange(
            version=part.version + 1, kind="replace",
            cohort_id=cohort.cohort_id, new_members=members,
            old_members=cohort.members)
    assert part.apply_change(change)
    for node in cluster.nodes.values():
        node._reconcile_replicas()          # what a committed change does


def reached(node, payload):
    """The replica ``_dispatch`` hands ``payload`` to (None: it answered
    ``wrong-node`` itself)."""
    got = []
    node._cohort_handlers[type(payload)] = (
        lambda replica, req: got.append(replica))
    req = SpyRequest("spy", payload)
    node._dispatch(req)
    assert node.failures == []
    if got:
        assert req.responses == []
        return got[0]
    assert req.responses == [{"ok": False, "code": "wrong-node",
                              "map_version": node.partitioner.version}]
    return None


@settings(max_examples=30, deadline=None)
@given(LAYOUT_CHANGES)
def test_a_stamped_request_reaches_the_replica_its_key_locates(steps):
    """For every key, every client snapshot (version v) and every later
    server layout (version V >= v), on every node: the stamp finds the
    replica ``replica_for_key`` finds — by ``cohort_id`` when v == V, by
    key when the versions differ."""
    cluster = SpinnakerCluster(n_nodes=N_NODES, seed=1,
                               config=SpinnakerConfig())
    part = cluster.partitioner
    snapshots = [part.snapshot()]
    for step in [None] + steps:
        if step is not None:
            apply_step(cluster, step)
            snapshots.append(part.snapshot())
        for snap in snapshots:
            for key in KEYS:
                stamp = dict(cohort_id=snap.locate(key).cohort_id,
                             map_version=snap.version)
                get = ClientGet(key=key, colname=b"c", consistent=True,
                                **stamp)
                put = ClientWrite(ops=(WriteOp(key, b"c", b"v"),), **stamp)
                for node in cluster.nodes.values():
                    want = node.replica_for_key(key)
                    assert reached(node, get) is want
                    assert reached(node, put) is want
    assert [s.version for s in snapshots] == list(
        range(1, len(steps) + 2))


# ---------------------------------------------------------------------------
# unstamped and stale-stamped requests: answered as ever
# ---------------------------------------------------------------------------

def started_cluster(seed=29):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cluster = SpinnakerCluster(n_nodes=N_NODES, config=cfg, seed=seed)
    cluster.start()
    cluster.run(2.0)
    return cluster


def split_cohort_0(cluster):
    """Move the layout on by splitting cohort 0 at its midpoint, the
    layout only (no migration): cohort 0's replicas stay where they are
    and nobody hosts the new cohort."""
    part = cluster.partitioner
    cohort = part.cohort(0)
    mid = (cohort.key_range.lo + cohort.key_range.hi) // 2
    assert part.apply_change(MembershipChange(
        version=part.version + 1, kind="split", cohort_id=0,
        new_members=cohort.members, split_key=mid,
        new_cohort_id=part.next_cohort_id()))
    return mid


def answer(cluster, node, payload, wait):
    req = SpyRequest("spy", payload)
    node._dispatch(req)
    cluster.run(wait)
    assert len(req.responses) == 1 and cluster.all_failures() == []
    return req.responses[0]


def test_unstamped_and_stale_stamped_requests_are_answered_as_ever():
    """A hand-built message (no stamp), one stamped on an older layout
    and one stamped on this one get the same reply from every node: the
    result from the leader, ``not-leader`` + hint from a follower,
    ``wrong-node`` + the server's version from everybody else."""
    cluster = started_cluster()
    part = cluster.partitioner
    old = part.snapshot()
    mid = split_cohort_0(cluster)
    key = next(k for k in cluster.keys_in_cohort(0, 50, b"stay-")
               if part.key_mapper(k) < mid)
    leader = cluster.leader_of(0)
    stamps = [dict(),                                           # by hand
              dict(cohort_id=old.locate(key).cohort_id,
                   map_version=old.version),                    # stale
              dict(cohort_id=3, map_version=old.version),       # stale, wrong
              dict(cohort_id=0, map_version=part.version)]      # current
    version = 0
    for name, node in sorted(cluster.nodes.items()):
        gets = [answer(cluster, node, ClientGet(
            key=key, colname=b"c", consistent=True, **stamp),
            wait=4 * READ_SERVICE) for stamp in stamps]
        puts = [answer(cluster, node, ClientWrite(
            ops=(WriteOp(key, b"c", b"v"),), **stamp), wait=0.05)
            for stamp in stamps]
        if name == leader:
            assert [r["ok"] for r in gets] == [True] * len(stamps)
            assert [r["result"].version for r in gets] == (
                [version] * len(stamps))
            assert puts == [{"ok": True, "result": PutResult(version=v)}
                            for v in range(version + 1,
                                           version + 1 + len(stamps))]
            version += len(stamps)
        elif name in part.cohort(0).members:
            assert gets + puts == [{"ok": False, "code": "not-leader",
                                    "hint": leader}] * (2 * len(stamps))
        else:
            assert gets + puts == [{"ok": False, "code": "wrong-node",
                                    "map_version": part.version}] * (
                                        2 * len(stamps))
    assert version == len(stamps)           # the leader was among them


# ---------------------------------------------------------------------------
# the re-check after the CPU slice
# ---------------------------------------------------------------------------

def stamped(cluster, key):
    part = cluster.partitioner
    return dict(cohort_id=part.locate(key).cohort_id,
                map_version=part.version)


def keys_either_side_of_the_midpoint(cluster):
    part = cluster.partitioner
    cohort = part.cohort(0)
    mid = (cohort.key_range.lo + cohort.key_range.hi) // 2
    keys = cluster.keys_in_cohort(0, 50, b"side-")
    stays = next(k for k in keys if part.key_mapper(k) < mid)
    moves = next(k for k in keys if part.key_mapper(k) >= mid)
    return stays, moves


def test_a_split_under_a_get_holding_its_core_is_still_caught():
    """Both gets were routed on version 1 and found cohort 0's leader;
    the split lands while they hold their cores.  The version noted on
    arrival no longer matches, the keys are located again: one is still
    cohort 0's, the other now belongs to a cohort this node has no
    replica of."""
    cluster = started_cluster()
    stays, moves = keys_either_side_of_the_midpoint(cluster)
    node = cluster.nodes[cluster.leader_of(0)]
    reqs = [SpyRequest("spy", ClientGet(key=key, colname=b"c",
                                        consistent=True,
                                        **stamped(cluster, key)))
            for key in (stays, moves)]
    for req in reqs:
        node._dispatch(req)
    assert node.cpu.in_use == 2
    split_cohort_0(cluster)
    cluster.run(4 * READ_SERVICE)
    assert reqs[0].responses[0]["ok"]
    assert reqs[1].responses == [{"ok": False, "code": "wrong-node",
                                  "map_version": 2}]
    assert cluster.all_failures() == []


def test_a_split_under_a_put_holding_its_core_is_still_caught():
    cluster = started_cluster()
    stays, moves = keys_either_side_of_the_midpoint(cluster)
    node = cluster.nodes[cluster.leader_of(0)]
    reqs = [SpyRequest("spy", ClientWrite(
        ops=(WriteOp(key, b"c", b"v"),), **stamped(cluster, key)))
        for key in (stays, moves)]
    # one transaction, routed by a key that stays, with an op that moves
    reqs.append(SpyRequest("spy", ClientWrite(
        ops=(WriteOp(stays, b"d", b"v"), WriteOp(moves, b"d", b"v")),
        **stamped(cluster, stays))))
    for req in reqs:
        node._dispatch(req)
    assert node.cpu.in_use == 3
    split_cohort_0(cluster)
    cluster.run(0.05)
    assert reqs[0].responses == [{"ok": True,
                                  "result": PutResult(version=1)}]
    assert reqs[1].responses == [{"ok": False, "code": "wrong-node",
                                  "map_version": 2}]
    assert reqs[2].responses == [{"ok": False, "code": "cross-cohort",
                                  "hint": None}]
    assert cluster.all_failures() == []


def test_a_split_under_a_put_held_at_the_write_gate_is_still_caught():
    """The gate is where a migration parks writes while it moves the
    layout: a write released from it starts its CPU slice on the *new*
    version, which says nothing about the layout it was routed on — it
    must be located again, not waved through."""
    cluster = started_cluster()
    stays, moves = keys_either_side_of_the_midpoint(cluster)
    replica = cluster.replica(cluster.leader_of(0), 0)
    reqs = [SpyRequest("spy", ClientWrite(
        ops=(WriteOp(key, b"c", b"v"),), **stamped(cluster, key)))
        for key in (stays, moves)]
    replica.block_writes()
    for req in reqs:
        replica.node._dispatch(req)
    split_cohort_0(cluster)
    replica.unblock_writes()
    cluster.run(2 * WRITE_LEADER_SERVICE)
    assert reqs[1].responses == [{"ok": False, "code": "wrong-node",
                                  "map_version": 2}]
    cluster.run(0.05)
    assert reqs[0].responses == [{"ok": True,
                                  "result": PutResult(version=1)}]
    assert cluster.all_failures() == []


# ---------------------------------------------------------------------------
# no client message without the stamp
# ---------------------------------------------------------------------------

#: built by the client but not routed to a cohort by key
NOT_ROUTED = {
    "WriteOp": "a part of ClientWrite, not a message",
    "GetCohortMap": "asks any node for the layout itself",
}


def test_every_message_the_client_builds_carries_the_routing_stamp():
    """Each message class ``core/api.py`` constructs has ``cohort_id``
    and ``map_version`` fields and is given both where it is built — a
    new client operation cannot quietly go back to being located three
    times (or, like a scan before it carried the version, to being
    silently wrong on a stale map)."""
    tree = ast.parse(Path(api.__file__).read_text())
    built = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and dataclasses.is_dataclass(
                 getattr(messages, node.func.id, None))]
    routed = [call for call in built if call.func.id not in NOT_ROUTED]
    assert {call.func.id for call in routed} == {
        "ClientGet", "ClientWrite", "ClientScan"}
    assert {call.func.id for call in built} - {c.func.id for c in routed} \
        == set(NOT_ROUTED)
    for call in routed:
        fields = {f.name for f in dataclasses.fields(
            getattr(messages, call.func.id))}
        assert {"cohort_id", "map_version"} <= fields, call.func.id
        given_here = {kw.arg for kw in call.keywords}
        assert {"cohort_id", "map_version"} <= given_here, (
            f"{call.func.id} built at api.py:{call.lineno} without its "
            f"routing stamp")


def test_a_rerouted_request_is_restamped():
    """After ``wrong-node`` + refresh the client re-resolves the cohort
    and sends the message stamped for *that* layout (it used to resend
    the message it had)."""
    cluster = started_cluster()
    client = cluster.client("restamp")
    _stays, moves = keys_either_side_of_the_midpoint(cluster)
    sent = []       # what the client puts on the wire
    transmit = cluster.network._transmit

    def spy(env, src_ep, dst, size):
        if src_ep is client.endpoint:
            sent.append(env.payload)
        transmit(env, src_ep, dst, size)

    cluster.network._transmit = spy
    cluster.add_node("node5")
    part = cluster.partitioner
    plans = plan_join(part, ["node5"], heat={
        c.cohort_id: 1.0 if c.cohort_id == 0 else 0.0
        for c in part.cohorts})
    rebalance(cluster, plans)
    assert client.map_version == 1 < part.version
    # first contact: the one old member with no seat in the child cohort
    client._leader_cache[0] = next(m for m in part.cohort(0).members
                                   if m not in plans[0].new_members)

    def ops():
        yield from client.put(moves, b"c", b"v")
        return (yield from client.get(moves, b"c", consistent=True))

    assert drive(cluster, ops(), limit=60.0).value == b"v"
    writes = [m for m in sent if isinstance(m, ClientWrite)]
    assert (writes[0].cohort_id, writes[0].map_version) == (0, 1)
    assert (writes[-1].cohort_id, writes[-1].map_version) == (
        part.locate(moves).cohort_id, part.version)
    assert writes[-1].cohort_id != 0
    gets = [m for m in sent if isinstance(m, ClientGet)]
    assert [(m.cohort_id, m.map_version) for m in gets] == [
        (part.locate(moves).cohort_id, part.version)]
    assert cluster.all_failures() == []
