"""Tests for the hierarchical topology: placement, link classes,
asymmetric WAN delays, and RNG-draw parity with the flat network."""

from repro.sim.events import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import Placement, Topology


class CountingRng:
    """Wraps an RNG stream, counting expovariate draws."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def expovariate(self, lam):
        self.draws += 1
        return self.rng.expovariate(lam)


class NoJitter:
    """An RNG stream whose every jitter draw is zero."""

    @staticmethod
    def expovariate(lam):
        return 0.0


def three_dc():
    topo = Topology(wan_one_way=0.02,
                    wan_delays={("dc0", "dc1"): 0.02,
                                ("dc1", "dc0"): 0.03},
                    preferred_dc="dc0")
    topo.place("a", "dc0")
    topo.place("b", "dc1")
    topo.place("c", "dc0", rack="dc0-rack1")
    topo.place("d", "dc2")
    return topo


def test_unplaced_endpoints_share_the_default_placement():
    topo = Topology()
    assert topo.placement_of("ghost") == Placement("dc0", "rack0")
    assert topo.same_dc("ghost", "phantom")


def test_link_classification():
    topo = three_dc()
    rack = topo.delay("a", "a", 4096, NoJitter)
    dc = topo.delay("a", "c", 4096, NoJitter)      # same DC, racks
    wan = topo.delay("a", "b", 4096, NoJitter)
    assert rack < dc < wan
    assert dc == topo.intra_dc.base + 4096 / topo.intra_dc.bandwidth
    assert not topo.same_dc("a", "b")
    assert topo.dcs() == ["dc0", "dc1", "dc2"]


def test_wan_delay_is_asymmetric_per_direction():
    topo = three_dc()
    assert topo.wan_delay("dc0", "dc1") == 0.02
    assert topo.wan_delay("dc1", "dc0") == 0.03
    # pairs not in the map fall back to the symmetric default
    assert topo.wan_delay("dc0", "dc2") == 0.02
    fwd = topo.delay("a", "b", 4096, NoJitter)
    back = topo.delay("b", "a", 4096, NoJitter)
    assert abs((back - fwd) - 0.01) < 1e-12


def test_delay_draws_exactly_one_jitter_sample_per_link_class():
    topo = three_dc()
    for src, dst in (("a", "a2"), ("a", "c"), ("a", "b")):
        rng = CountingRng(RngRegistry(3).stream("network"))
        topo.delay(src, dst, 4096, rng)
        assert rng.draws == 1, (src, dst)


def test_wan_rtt_sums_both_directions():
    topo = three_dc()
    transfer = 256 / topo.wan.bandwidth
    expect = 2 * (topo.wan.base + transfer) + 0.02 + 0.03
    assert abs(topo.wan_rtt("dc0", "dc1") - expect) < 1e-12
    assert topo.min_wan_rtt() <= topo.wan_rtt("dc0", "dc1")


def test_rtt_bound_covers_the_worst_wan_direction():
    topo = three_dc()
    transfer = 4096 / topo.wan.bandwidth
    worst_one_way = (topo.wan.base + transfer
                     + 3.0 * topo.wan.jitter + 0.03)
    assert topo.rtt_bound() >= 2.0 * worst_one_way


def test_flat_and_unplaced_topology_runs_are_bit_identical():
    """A topology where nobody is placed remotely must consume RNG state
    exactly like the flat path and deliver at identical times."""
    def deliveries(topology):
        sim = Simulator()
        net = Network(sim, RngRegistry(11), LatencyModel(),
                      topology=topology)
        a, b = net.endpoint("a"), net.endpoint("b")
        got = []
        b.on_request(lambda req: got.append((req.payload, sim.now)))
        for i in range(20):
            a.send("b", i, size=512 * (1 + i % 3))
        sim.run()
        return got

    assert deliveries(None) == deliveries(Topology())


def test_network_applies_wan_delay_between_placed_endpoints():
    topo = three_dc()
    sim = Simulator()
    net = Network(sim, RngRegistry(5), topology=topo)
    a, b, c = net.endpoint("a"), net.endpoint("b"), net.endpoint("c")
    got = {}
    b.on_request(lambda req: got.setdefault("wan", sim.now))
    c.on_request(lambda req: got.setdefault("lan", sim.now))
    a.send("b", "x", size=256)
    a.send("c", "x", size=256)
    sim.run()
    assert got["wan"] >= 0.02          # pays the propagation delay
    assert got["lan"] < 0.02           # intra-DC stays far below it
    assert net.rtt_bound() == topo.rtt_bound()


def test_flat_network_rtt_bound_comes_from_the_latency_model():
    sim = Simulator()
    net = Network(sim, RngRegistry(5), LatencyModel())
    assert net.rtt_bound() == 2.0 * net.latency.nominal(4096)
    # flat default ~1 GbE: well under the client per-try floor
    assert net.rtt_bound() < 0.01
