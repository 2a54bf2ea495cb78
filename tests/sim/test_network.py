"""Tests for the simulated network: ordering, RPC, crashes, partitions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import SimulationError, Simulator
from repro.sim.network import LatencyModel, Network, RpcTimeout
from repro.sim.process import spawn, timeout
from repro.sim.rng import RngRegistry


def make_net(jitter=30e-6):
    sim = Simulator()
    net = Network(sim, RngRegistry(7), LatencyModel(jitter=jitter))
    return sim, net


def test_one_way_message_is_delivered_with_latency():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on_request(lambda req: got.append((req.src, req.payload, sim.now)))
    a.send("b", "hello", size=4096)
    sim.run()
    assert len(got) == 1
    src, payload, when = got[0]
    assert (src, payload) == ("a", "hello")
    assert when > 0.0


def test_fifo_per_pair_even_with_jitter():
    sim, net = make_net(jitter=5e-3)  # huge jitter to tempt reordering
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on_request(lambda req: got.append(req.payload))
    for i in range(50):
        a.send("b", i)
    sim.run()
    assert got == list(range(50))


def test_request_reply_round_trip():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on_request(lambda req: req.respond(req.payload * 2))
    results = []

    def client():
        value = yield a.request("b", 21)
        results.append((value, sim.now))

    spawn(sim, client())
    sim.run()
    assert results[0][0] == 42
    assert results[0][1] > 0.0


def test_request_timeout_fires_when_dest_dead():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on_request(lambda req: None)  # never responds
    outcomes = []

    def client():
        try:
            yield a.request("b", "ping", timeout=0.5)
            outcomes.append("replied")
        except RpcTimeout:
            outcomes.append("timeout")

    spawn(sim, client())
    sim.run()
    assert outcomes == ["timeout"]
    assert sim.now == pytest.approx(0.5)


def test_message_to_crashed_endpoint_is_dropped():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on_request(lambda req: got.append(req.payload))
    b.crash()
    a.send("b", "lost")
    sim.run()
    assert got == []
    assert net.messages_dropped == 1


def test_crashed_endpoint_cannot_send():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on_request(lambda req: got.append(req.payload))
    a.crash()
    a.send("b", "ghost")
    sim.run()
    assert got == []


def test_restart_resumes_delivery():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on_request(lambda req: got.append(req.payload))
    b.crash()
    a.send("b", "lost")
    sim.run()
    b.restart()
    a.send("b", "found")
    sim.run()
    assert got == ["found"]


def test_partition_blocks_both_directions_until_heal():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got_a, got_b = [], []
    a.on_request(lambda req: got_a.append(req.payload))
    b.on_request(lambda req: got_b.append(req.payload))
    net.block("a", "b")
    a.send("b", 1)
    b.send("a", 2)
    sim.run()
    assert got_a == [] and got_b == []
    net.heal()
    a.send("b", 3)
    sim.run()
    assert got_b == [3]


def test_reply_lost_if_requester_crashes_before_delivery():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on_request(lambda req: req.respond("pong"))
    ev = a.request("b", "ping")
    # Crash the requester while the request is in flight.
    sim.schedule(1e-5, a.crash)
    sim.run()
    assert not ev.triggered


def test_larger_messages_take_longer():
    sim, net = make_net(jitter=0.0)
    a, b = net.endpoint("a"), net.endpoint("b")
    arrivals = {}
    b.on_request(lambda req: arrivals.setdefault(req.payload, sim.now))
    c = net.endpoint("c")
    c.on_request(lambda req: arrivals.setdefault(req.payload, sim.now))
    a.send("b", "small", size=64)
    a.send("c", "big", size=4 * 1024 * 1024)
    sim.run()
    assert arrivals["big"] > arrivals["small"]


def test_unknown_endpoint_lookup_raises():
    sim, net = make_net()
    with pytest.raises(Exception):
        net.get("nope")


# -- link faults: one-way blocks, lossy links, per-pair delays ----------------

def test_one_way_block_only_stops_one_direction():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got_a, got_b = [], []
    a.on_request(lambda req: got_a.append(req.payload))
    b.on_request(lambda req: got_b.append(req.payload))
    net.block("a", "b", symmetric=False)
    a.send("b", "a->b")      # blocked
    b.send("a", "b->a")      # still flows
    sim.run()
    assert got_b == [] and got_a == ["b->a"]
    assert net.is_blocked("a", "b") and not net.is_blocked("b", "a")
    net.heal("a", "b")
    a.send("b", "after")
    sim.run()
    assert got_b == ["after"]


def test_directional_heal_leaves_the_reverse_block_in_place():
    # Two independent one-way blocks; a directional heal of (a, b) must
    # not discard the (b, a) block the way a symmetric heal would.
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got_a, got_b = [], []
    a.on_request(lambda req: got_a.append(req.payload))
    b.on_request(lambda req: got_b.append(req.payload))
    net.block("a", "b", symmetric=False)
    net.block("b", "a", symmetric=False)
    net.heal("a", "b", symmetric=False)
    assert not net.is_blocked("a", "b")
    assert net.is_blocked("b", "a")
    a.send("b", "a->b")      # healed direction flows
    b.send("a", "b->a")      # reverse stays blocked
    sim.run()
    assert got_b == ["a->b"] and got_a == []


def test_symmetric_heal_still_clears_both_one_way_directions():
    sim, net = make_net()
    net.endpoint("a")
    net.endpoint("b")
    net.block("a", "b", symmetric=False)
    net.block("b", "a", symmetric=False)
    net.heal("a", "b")
    assert not net.is_blocked("a", "b")
    assert not net.is_blocked("b", "a")


@pytest.mark.parametrize("ends", [{"a": "a"}, {"b": "b"}])
def test_heal_with_one_end_named_raises_and_heals_nothing(ends):
    sim, net = make_net()
    net.endpoint("a")
    net.endpoint("b")
    net.block("a", "b")
    with pytest.raises(SimulationError):
        net.heal(**ends)
    assert net.is_blocked("a", "b")


def test_heal_all_clears_one_way_blocks():
    sim, net = make_net()
    net.endpoint("a")
    net.endpoint("b")
    net.block("a", "b", symmetric=False)
    net.heal()
    assert not net.is_blocked("a", "b")


def test_drop_rate_one_loses_everything_and_zero_restores():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on_request(lambda req: got.append(req.payload))
    net.set_drop_rate("a", "b", 1.0, symmetric=False)
    for i in range(10):
        a.send("b", i)
    sim.run()
    assert got == []
    assert net.messages_dropped == 10
    net.set_drop_rate("a", "b", 0.0)
    a.send("b", "through")
    sim.run()
    assert got == ["through"]


def test_symmetric_drop_rate_applies_both_ways():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got_a, got_b = [], []
    a.on_request(lambda req: got_a.append(req.payload))
    b.on_request(lambda req: got_b.append(req.payload))
    net.set_drop_rate("a", "b", 1.0)
    a.send("b", 1)
    b.send("a", 2)
    sim.run()
    assert got_a == [] and got_b == []


def test_per_pair_extra_delay_slows_only_that_link():
    sim, net = make_net(jitter=0.0)
    a, b, c = net.endpoint("a"), net.endpoint("b"), net.endpoint("c")
    arrivals = {}
    b.on_request(lambda req: arrivals.setdefault("b", sim.now))
    c.on_request(lambda req: arrivals.setdefault("c", sim.now))
    net.set_extra_delay("a", "b", 0.05)
    a.send("b", "slow", size=64)
    a.send("c", "fast", size=64)
    sim.run()
    assert arrivals["b"] >= arrivals["c"] + 0.05


def test_clear_link_faults_resets_drops_and_delays():
    """clear_link_faults removes lossy/slow links; blocks are heal()'s
    job, so the two compose without stepping on each other."""
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on_request(lambda req: got.append(req.payload))
    net.set_drop_rate("a", "b", 1.0)
    net.set_extra_delay("a", "b", 1.0)
    net.extra_delay = 0.5
    net.clear_link_faults()
    a.send("b", "ok")
    sim.run(until=0.5)
    assert got == ["ok"]
    assert net.extra_delay == 0.0


# -- late replies after an RPC timeout ---------------------------------------

def test_late_reply_after_timeout_is_discarded():
    """A reply landing after RpcTimeout must not resume the requester
    twice (or at all) — it is counted and dropped."""
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")

    def slow_handler(req):
        def _later():
            yield timeout(sim, 0.2)     # reply well past the timeout
            req.respond("too-late")
        spawn(sim, _later())

    b.on_request(slow_handler)
    outcomes = []

    def client():
        try:
            value = yield a.request("b", "ping", timeout=0.05)
            outcomes.append(value)
        except RpcTimeout:
            outcomes.append("timeout")

    spawn(sim, client())
    sim.run()
    assert outcomes == ["timeout"]      # resumed exactly once
    assert a.stale_replies == 1


def test_reply_before_timeout_cancels_it():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on_request(lambda req: req.respond("pong"))
    outcomes = []

    def client():
        value = yield a.request("b", "ping", timeout=5.0)
        outcomes.append(value)

    spawn(sim, client())
    sim.run()
    assert outcomes == ["pong"]
    assert a.stale_replies == 0
    assert sim.now < 1.0                # did not sit out the timeout


# -- RPC deadlines: one armed kernel entry per endpoint -----------------------

def silent_pair():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on_request(lambda req: None)      # never replies
    return sim, a


def expiry_log(sim, a, log, tag, timeout_s):
    def caller():
        try:
            yield a.request("b", tag, timeout=timeout_s)
        except RpcTimeout as exc:
            log.append((tag, sim.now, str(exc)))
    return caller()


def test_short_timeout_after_a_long_one_fires_first_and_on_time():
    sim, a = silent_pair()
    log = []
    spawn(sim, expiry_log(sim, a, log, "long", 2.0))
    spawn(sim, expiry_log(sim, a, log, "short", 0.5))
    sim.run()
    assert [(tag, when) for tag, when, _ in log] == [("short", 0.5),
                                                     ("long", 2.0)]
    assert log[0][2] == "rpc a->b timed out after 0.5s"


def test_expiries_tying_with_a_timer_run_in_request_order():
    """Each deadline keeps the kernel sequence number it reserved when
    the request was made: at one float timestamp, two expiries and an
    unrelated timer scheduled between them run in that order — even
    though the second deadline is only armed when the first fires."""
    sim, a = silent_pair()
    log = []

    def scenario():
        first = a.request("b", 1, timeout=0.25)
        sim.schedule(0.25, lambda: log.append("timer"))
        second = a.request("b", 2, timeout=0.25)
        for name, ev in (("first", first), ("second", second)):
            ev.add_callback(lambda ev, name=name: log.append(name))
        return
        yield

    spawn(sim, scenario())
    sim.run()
    assert log == ["first", "timer", "second"]
    assert sim.now == 0.25


def test_crash_drops_every_deadline_and_restart_resurrects_none():
    sim, a = silent_pair()
    events = [a.request("b", i, timeout=0.5 + i) for i in range(3)]
    sim.run(until=0.1)
    a.crash()
    a.restart()
    late = a.request("b", "after", timeout=0.2)
    sim.run()
    assert not any(ev.triggered for ev in events)   # never resolve (as before)
    assert late.triggered and not late.ok           # the new one still expires
    assert sim.now == pytest.approx(0.3)            # nothing ran at 0.5 .. 2.5
    assert not a._deadlines and a._armed is None


def test_reply_after_expiry_counts_one_stale_reply_and_resumes_nobody():
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    held = []
    b.on_request(held.append)
    resumed = []

    def caller():
        try:
            yield a.request("b", "ping", timeout=0.1)
        except RpcTimeout:
            resumed.append("timeout")
        yield timeout(sim, 1.0)
        resumed.append("slept")

    spawn(sim, caller())
    sim.run(until=0.5)
    held[0].respond("too late")
    sim.run()
    assert resumed == ["timeout", "slept"]
    assert a.stale_replies == 1


@pytest.mark.parametrize("bad", [
    {"timeout": -0.1},
    {"timeout": 0.5, "then": lambda reply: None},
])
def test_a_bad_request_raises_before_it_sends(bad):
    """Arguments are checked first: a request that raises sent nothing,
    scheduled nothing and queued no deadline (it used to raise only once
    its message was on the wire, and the reply still ran ``then``)."""
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on_request(lambda req: req.respond("pong"))
    a.request("b", "warm-up", timeout=1.0)

    def state():
        return (net.messages_sent, sim._seq, [list(e) for e in sim._heap],
                [list(e) for e in a._deadlines], a._armed)

    before = state()
    with pytest.raises(SimulationError):
        a.request("b", "ping", **bad)
    assert state() == before


def test_request_without_timeout_arms_nothing():
    sim, a = silent_pair()
    a.request("b", "ping")
    assert not a._deadlines and a._armed is None
    sim.run()
    assert sim.now < 0.01               # only the delivery ran


def test_an_idle_endpoint_parks_its_deadline_and_rearms_it():
    """Answered requests leave one parked entry behind, not one each;
    the next request re-uses it as its wake-up."""
    sim, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on_request(lambda req: req.payload == "drop" or req.respond("pong"))
    log = []

    def caller():
        for _ in range(50):
            assert (yield a.request("b", "ping", timeout=1.0)) == "pong"
        assert len(sim._heap) == 1 and sim._heap[0][3] is None   # parked
        yield timeout(sim, 0.5)
        sent_at = sim.now
        try:
            yield a.request("b", "drop", timeout=1.0)
        except RpcTimeout:
            log.append(sim.now - sent_at)

    spawn(sim, caller())
    sim.run()
    assert log == [pytest.approx(1.0)]  # woken by the old entry, on time


# -- the flat-network delay, computed in place, against its reference ------

@settings(max_examples=200, deadline=None)
@given(base=st.floats(0.0, 1e-2),
       bandwidth=st.one_of(st.just(0.0), st.floats(1e3, 1e11)),
       jitter=st.one_of(st.just(0.0), st.floats(1e-9, 1e-2)),
       seed=st.integers(0, 2 ** 32),
       sizes=st.lists(st.integers(0, 1 << 24), min_size=1, max_size=20))
def test_transmit_delay_equals_latency_model_delay_bit_for_bit(
        base, bandwidth, jitter, seed, sizes):
    """``Network._transmit`` inlines ``LatencyModel.delay`` (and the
    ``Random.expovariate`` under it) on a flat network: the same single
    draw from the same stream, the same float operations in the same
    order — equal delays to the last bit, and the stream left in the
    same state."""
    model = LatencyModel(base, bandwidth, jitter)
    sim = Simulator()
    net = Network(sim, RngRegistry(seed), latency=model)
    sender = net.endpoint("a")
    for i, size in enumerate(sizes):
        # a fresh destination each: no FIFO clamp, so at t=0 the
        # arrival time *is* the delay
        net.endpoint(f"b{i}")
        sender.send(f"b{i}", None, size=size)
    reference = RngRegistry(seed).stream("network")
    expected = [model.delay(size, reference) for size in sizes]
    scheduled = [entry[0] for entry in sorted(sim._heap,
                                              key=lambda e: e[2])]
    assert [d.hex() for d in scheduled] == [d.hex() for d in expected]
    assert net._rng.getstate() == reference.getstate()
