"""WAN regression tests: RTT-derived client timeouts, jittered retry
backoff, lease survival over slow coordination links, nearest-replica
timeline routing, and ``wan_hop`` span tagging.

Each test pins one of the LAN-assumption fixes from the multi-datacenter
sweep: hardcoded per-try/map-refresh budgets, lockstep retry storms
after a healed whole-DC partition, and heartbeat loops that misread a
merely-slow WAN link as a dead session.
"""

import pytest

from repro.chaos import FaultEvent, arm_schedule
from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.config import (CLIENT_MAP_TIMEOUT, CLIENT_RETRY_BACKOFF,
                               CLIENT_RETRY_BACKOFF_CAP,
                               CLIENT_RTT_MULTIPLIER)
from repro.obs import RequestTracer
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn
from repro.sim.topology import Topology


def fast_config(**overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def run_client(cluster, gen, limit=30.0):
    proc = spawn(cluster.sim, gen)
    cluster.run_until(lambda: proc.triggered, limit=limit,
                      what="client op")
    return proc.result()


# -- satellite 1: per-try / map-refresh budgets derive from the RTT ----------

def test_flat_network_keeps_the_configured_timeout_floors():
    cl = SpinnakerCluster(n_nodes=3, config=fast_config(), seed=1)
    client = cl.client()
    assert client._per_try == cl.config.client_try_timeout == 2.0
    assert client._map_timeout == CLIENT_MAP_TIMEOUT == 1.0


def test_wan_topology_raises_the_derived_timeouts():
    topo = Topology(wan_one_way=1.5)          # RTT ~3s > the 2s floor
    topo.place("client0", "dc1")              # nodes default to dc0
    cl = SpinnakerCluster(n_nodes=3, config=fast_config(), seed=1,
                          topology=topo)
    client = cl.client()
    rtt = cl.network.rtt_bound()
    assert rtt > 3.0
    assert client._per_try == pytest.approx(CLIENT_RTT_MULTIPLIER * rtt)
    assert client._map_timeout == pytest.approx(CLIENT_RTT_MULTIPLIER * rtt)


def test_cross_wan_put_succeeds_without_burning_retries():
    """Regression: with the old hardcoded 2.0s per-try budget a 3s-RTT
    link turned every op into a retry storm; the derived budget rides
    out the latency and completes first try."""
    topo = Topology(wan_one_way=1.5)
    topo.place("client0", "dc1")
    cl = SpinnakerCluster(n_nodes=3, seed=7, topology=topo,
                          config=fast_config(client_op_timeout=60.0))
    cl.start()
    client = cl.client()

    def scenario():
        put = yield from client.put(b"far", b"c", b"away")
        got = yield from client.get(b"far", b"c", consistent=True)
        return put, got

    put, got = run_client(cluster=cl, gen=scenario(), limit=60.0)
    assert put.version == 1
    assert got.found and got.value == b"away"
    assert client.retries == 0
    assert cl.all_failures() == []


# -- satellite 2: jittered exponential backoff -------------------------------

def test_backoff_grace_then_doubling_up_to_the_cap():
    cl = SpinnakerCluster(n_nodes=3, config=fast_config(), seed=3)
    client = cl.client()
    base, cap = CLIENT_RETRY_BACKOFF, CLIENT_RETRY_BACKOFF_CAP
    horizon = 1e9
    # First four attempts ride at the base step (brief unavailability —
    # a draining migration, a leader handoff — is ridden out at pace).
    for attempt in (1, 2, 3, 4):
        wait = client._backoff(attempt, horizon)
        assert base / 2 <= wait <= base
    # Then exponential: step doubles per attempt until the cap.
    assert base <= client._backoff(5, horizon) <= 2 * base
    assert 2 * base <= client._backoff(6, horizon) <= 4 * base
    for attempt in (8, 9, 20):
        wait = client._backoff(attempt, horizon)
        assert cap / 2 <= wait <= cap


def test_backoff_clamps_to_the_op_deadline():
    cl = SpinnakerCluster(n_nodes=3, config=fast_config(), seed=3)
    client = cl.client()
    assert client._backoff(1, cl.sim.now + 1e-4) <= 1e-4
    assert client._backoff(1, cl.sim.now - 1.0) == 0.0


def test_backoff_jitter_desynchronizes_simultaneous_clients():
    """Clients that all failed at the same instant must not re-arrive in
    lockstep: equal-jitter draws from per-client RNG streams spread the
    retry schedule across [step/2, step]."""
    cl = SpinnakerCluster(n_nodes=3, config=fast_config(), seed=5)
    clients = [cl.client(f"c{i}") for i in range(8)]
    waits = [c._backoff(1, 1e9) for c in clients]
    assert len(set(waits)) == len(waits)
    assert all(0.01 <= w <= 0.02 for w in waits)


def test_healed_dc_partition_does_not_thundering_herd():
    """Clients stranded by a whole-DC partition all fail together; after
    the heal their retries must complete at distinct times (jittered
    backoff), not as a synchronized herd."""
    topo = Topology(wan_one_way=0.002)        # fast WAN: keep the sim short
    n_clients = 5
    for i in range(n_clients):
        topo.place(f"c{i}", "dc1")            # nodes stay in default dc0
    cl = SpinnakerCluster(n_nodes=3, seed=11, topology=topo,
                          config=fast_config())
    cl.start()
    clients = [cl.client(f"c{i}") for i in range(n_clients)]
    done = {}

    def scenario(client):
        result = yield from client.put(b"herd", b"c",
                                       client.name.encode())
        done[client.name] = cl.sim.now
        return result

    log = arm_schedule(cl, [FaultEvent(at=0.0, kind="partition-dc",
                                       duration=1.0, a="dc1")])
    procs = [spawn(cl.sim, scenario(c)) for c in clients]
    cl.run_until(lambda: all(p.triggered for p in procs), limit=30.0,
                 what="herd puts")
    assert any("partition-dc" in line for line in log)
    assert len(done) == n_clients
    assert all(c.retries >= 1 for c in clients)
    heal_time = 1.0
    assert all(t > heal_time for t in done.values())
    assert len(set(done.values())) == n_clients   # de-synchronized
    assert cl.all_failures() == []


# -- satellite 4: leases across a merely-slow WAN ----------------------------

def test_leases_survive_slow_wan_coordination_link():
    """Nodes heartbeating the coordination service across a 0.8s-RTT WAN
    link must not flap their sessions: the heartbeat RPC budget carries
    an RTT allowance and the lease deadline is anchored at the send time
    of the last acked heartbeat.  (Under the old bare ``interval``
    budget and ack-time anchor, every node here lost its session within
    a few beats despite a perfectly healthy link.)"""
    topo = Topology(wan_one_way=0.4)          # RTT ~0.80s
    for i in range(3):
        topo.place(f"node{i}", "dc1")         # "coord" stays in dc0
    cl = SpinnakerCluster(n_nodes=3, seed=13, topology=topo,
                          config=fast_config())
    cl.start(ready_timeout=120.0)
    cl.run(10.0)                              # many heartbeat rounds
    assert sum(n.session_losses for n in cl.nodes.values()) == 0
    assert cl.is_ready()
    assert cl.all_failures() == []


# -- tentpole: nearest-replica timeline routing + wan_hop spans --------------

def spread_cluster(seed=17, n_nodes=6, **kwargs):
    topo = Topology(wan_one_way=0.002, preferred_dc="dc0")
    for i in range(n_nodes):
        topo.place(f"node{i}", f"dc{i % 3}")
    topo.place("local", "dc0")
    topo.place("remote", "dc1")
    cl = SpinnakerCluster(n_nodes=n_nodes, seed=seed, topology=topo,
                          placement="spread", config=fast_config(),
                          **kwargs)
    return cl, topo


def test_timeline_reads_route_to_the_clients_own_dc():
    cl, topo = spread_cluster()
    client = cl.client("remote")
    for key in (b"a", b"b", b"c", b"q", b"z"):
        cohort = client._map.locate(key)
        for _ in range(8):
            target = client._timeline_target(cohort)
            assert topo.dc_of(target) == "dc1"


def test_timeline_routing_falls_back_when_local_replica_excluded():
    cl, topo = spread_cluster()
    client = cl.client("remote")
    cohort = client._map.locate(b"a")
    local = [m for m in cohort.members if topo.dc_of(m) == "dc1"]
    assert len(local) == 1                    # spread: one replica per DC
    target = client._timeline_target(cohort, exclude=local[0])
    assert target in cohort.members and target != local[0]


def test_route_spans_mark_wan_hops():
    tracer = RequestTracer(sample_every=1)
    cl, topo = spread_cluster(seed=19, request_tracer=tracer)
    cl.start()
    remote = cl.client("remote")                  # dc1
    local = cl.client("local")                    # dc0, same as leaders

    def scenario():
        yield from remote.put(b"k", b"c", b"v")   # crosses into dc0
        yield from local.get(b"k", b"c", consistent=True)

    run_client(cl, scenario())
    routes = [s for s in tracer.spans() if s.name == "route"]
    assert routes
    # Leaders sit in the preferred DC, so every route lands in dc0 …
    assert all(topo.dc_of(s.node) == "dc0" for s in routes)
    # … and only the remote client's ops are tagged as WAN hops.
    crossed = [s for s in routes if s.fields.get("wan_hop")]
    stayed = [s for s in routes if "wan_hop" not in s.fields]
    assert crossed and stayed
