"""The RPC layer against its reference: a pending table and request ids.

A request used to draw an id, park its continuation in the caller's
``_pending`` dict and be matched by id when its reply came back; a
crash cleared the dict.  Now the request is its own pending record and
the reply hands its payload straight to the continuation.  The old
``Request`` / ``Endpoint`` (and the old ``Network._transmit`` under
them) are kept here, and both layers are driven through one random
schedule: the same handlers, the same resumes with the same values at
the same times, the same ``RpcTimeout`` messages, counters, kernel
sequence numbers and heap entries.
"""

import itertools
from bisect import insort
from collections import deque
from heapq import heapify, heappush
from math import log

from hypothesis import given, settings, strategies as st

from repro.sim.events import (_CALLBACK, _TIME, NORMAL, Event,
                              SimulationError, Simulator)
from repro.sim.network import LatencyModel, Network, RpcTimeout
from repro.sim.rng import RngRegistry


# -- the reference: the layer with a pending table --------------------------

class OldRequest:
    __slots__ = ("_net", "src", "dst", "payload", "req_id", "reply_to",
                 "responded")

    def __init__(self, net, src, dst, payload, req_id=None, reply_to=None):
        self._net = net
        self.src = src
        self.dst = dst
        self.payload = payload
        self.req_id = req_id
        self.reply_to = reply_to
        self.responded = False

    def respond(self, value, size=128):
        if self.responded:
            raise SimulationError("request already responded to")
        self.responded = True
        net = self._net
        if self.req_id is not None and net._endpoints[self.dst].alive:
            net._transmit(OldRequest(net, self.dst, self.src, value,
                                     reply_to=self.req_id), size)

    def __call__(self):
        net = self._net
        ep = net._endpoints.get(self.dst)
        if ep is None or not ep.alive:
            net.messages_dropped += 1
        elif self.reply_to is not None:
            ep._on_reply(self)
        elif ep._handler is not None:
            ep._handler(self)


class OldNetwork(Network):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last_delivery = {}
        self._req_ids = itertools.count(1)

    def endpoint(self, name):
        ep = self._endpoints.get(name)
        if ep is None:
            ep = self._endpoints[name] = OldEndpoint(self, name)
        return ep

    def _transmit(self, env, size):
        self.messages_sent += 1
        src, dst = env.src, env.dst
        if ((self._blocked or self._blocked_oneway)
                and self.is_blocked(src, dst)):
            self.messages_dropped += 1
            return
        if self._drop_rates:
            rate = self._drop_rates.get((src, dst))
            if rate and self._rng.random() < rate:
                self.messages_dropped += 1
                return
        lat = self.latency
        delay = (lat.base
                 + (size / lat.bandwidth if lat.bandwidth else 0.0)
                 + (-log(1.0 - self._rng.random()) / lat._jitter_rate
                    if lat.jitter else 0.0))
        delay += self.extra_delay
        if self._extra_delays:
            delay += self._extra_delays.get((src, dst), 0.0)
        sim = self.sim
        arrival = sim._now + delay
        key = (src, dst)
        last = self._last_delivery.get(key)
        if last is not None and last > arrival:
            arrival = last
        self._last_delivery[key] = arrival
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, [arrival, NORMAL, seq, env])


_REQ_ID, _DST, _TIMEOUT, _EVENT = 4, 5, 6, 7


class OldEndpoint:
    def __init__(self, network, name):
        self.network = network
        self.sim = network.sim
        self.name = name
        self.alive = True
        self._handler = None
        self._pending = {}
        self._deadlines = deque()
        self._armed = None
        self._expire = self._on_deadline
        self.stale_replies = 0

    def on_request(self, handler):
        self._handler = handler

    def crash(self):
        self.alive = False
        self._pending.clear()
        self._deadlines.clear()
        if self._armed is not None:
            self.sim.cancel(self._armed)
            self._armed = None

    def restart(self):
        self.alive = True

    def send(self, dst, payload, size=256):
        if not self.alive:
            return
        net = self.network
        net._transmit(OldRequest(net, self.name, dst, payload), size)

    def request(self, dst, payload, size=256, timeout=None, then=None):
        ev = None
        if then is None:
            ev = Event(self.sim)
            then = ev.succeed
        if not self.alive:
            if ev is not None:
                ev.fail(RpcTimeout(f"{self.name} is down"))
            return ev
        sim = self.sim
        net = self.network
        req_id = next(net._req_ids)
        self._pending[req_id] = then
        net._transmit(OldRequest(net, self.name, dst, payload, req_id), size)
        if timeout is not None:
            if timeout < 0 or ev is None:
                raise SimulationError(f"bad timeout {timeout!r}")
            seq = sim._seq
            sim._seq = seq + 1
            entry = [sim._now + timeout, NORMAL, seq, self._expire,
                     req_id, dst, timeout, ev]
            queue, armed = self._deadlines, self._armed
            if queue and entry < queue[-1]:
                insort(queue, entry)
            else:
                queue.append(entry)
            if (armed is not None and armed[_CALLBACK] is None
                    and armed[_TIME] <= sim._now):
                armed = None
            if armed is None or entry < armed:
                if armed is not None:
                    sim._heap.remove(armed)
                    heapify(sim._heap)
                self._armed = entry
                heappush(sim._heap, entry)
            else:
                armed[_CALLBACK] = self._expire
        return ev

    def _on_reply(self, env):
        pending = self._pending
        then = pending.pop(env.reply_to, None)
        queue = self._deadlines
        if queue:
            while queue and queue[0][_REQ_ID] not in pending:
                queue.popleft()
            if not queue:
                self._armed[_CALLBACK] = None
        if then is None:
            self.stale_replies += 1
            return
        then(env.payload)

    def _on_deadline(self):
        entry, self._armed = self._armed, None
        pending = self._pending
        unanswered = pending.pop(entry[_REQ_ID], None) is not None
        queue = self._deadlines
        while queue and queue[0][_REQ_ID] not in pending:
            queue.popleft()
        if queue:
            self._armed = queue[0]
            heappush(self.sim._heap, queue[0])
        if unanswered:
            entry[_EVENT].fail(RpcTimeout(
                f"rpc {self.name}->{entry[_DST]} timed out after "
                f"{entry[_TIMEOUT]}s"))


# -- one schedule, two layers ------------------------------------------------

NAMES = ("a", "b", "c")
DESTS = NAMES + ("ghost",)          # "ghost" never joins: always dropped
#: coarse steps, so deliveries, replies and deadlines tie in time
STEP = 1e-4
#: how long the receiver waits before answering; None: it never does
REPLY_DELAYS = (0.0, 0.0, STEP, 3 * STEP, 12 * STEP, None)
TIMEOUTS = (0.0, STEP, 2 * STEP, 5 * STEP, 20 * STEP)

names = st.sampled_from(NAMES)
requests = st.tuples(st.just("request"), names, st.sampled_from(DESTS),
                     st.sampled_from(("then", "event")),
                     st.one_of(st.none(), st.sampled_from(TIMEOUTS)),
                     st.sampled_from(REPLY_DELAYS))
faults = st.one_of(
    st.tuples(st.just("send"), names, st.sampled_from(DESTS)),
    st.tuples(st.just("crash"), names),
    st.tuples(st.just("restart"), names),
    st.tuples(st.just("block"), names, names, st.booleans()),
    st.tuples(st.just("heal"), names, names, st.booleans()),
    st.tuples(st.just("heal_all"),),
    st.tuples(st.just("drop_rate"), names, names,
              st.sampled_from((0.0, 0.3, 1.0)), st.booleans()),
    st.tuples(st.just("extra_delay"), names, names,
              st.sampled_from((0.0, STEP, 7 * STEP)), st.booleans()),
    st.tuples(st.just("net_delay"), st.sampled_from((0.0, 2 * STEP))),
)
#: mostly requests: a fault among every few keeps most of them whole
schedules = st.lists(st.tuples(st.integers(0, 30),
                               st.one_of(requests, requests, requests,
                                         faults)),
                     min_size=4, max_size=60)


def play(net_cls, seed, schedule):
    """Run ``schedule`` — (step, op) pairs, each op made at its step —
    on a fresh network of class ``net_cls``; return what an observer
    sees."""
    sim = Simulator()
    net = net_cls(sim, RngRegistry(seed), LatencyModel(jitter=STEP))
    endpoints = {name: net.endpoint(name) for name in NAMES}
    log = []

    def handler_of(name):
        def handle(req):
            tag, delay = req.payload
            log.append(("handled", name, tag, sim.now))
            if delay == 0.0:
                req.respond(("re", tag))
            elif delay is not None:
                sim.schedule(delay, lambda: req.respond(("re", tag)))
        return handle

    for name, ep in endpoints.items():
        ep.on_request(handler_of(name))

    def resumed(tag):
        return lambda value: log.append(("then", tag, value, sim.now))

    def fired(tag):
        def on_event(ev):
            outcome = (ev.result() if ev.ok
                       else (type(ev.exception).__name__, str(ev.exception)))
            log.append(("event", tag, ev.ok, outcome, sim.now))
        return on_event

    def run_op(tag, op):
        kind, *args = op
        if kind == "request":
            src, dst, form, timeout, delay = args
            ep = endpoints[src]
            if form == "then":
                ep.request(dst, (tag, delay), then=resumed(tag))
            else:
                ep.request(dst, (tag, delay),
                           timeout=timeout).add_callback(fired(tag))
        elif kind == "send":
            endpoints[args[0]].send(args[1], (tag, None))
        elif kind == "crash":
            endpoints[args[0]].crash()
        elif kind == "restart":
            endpoints[args[0]].restart()
        elif kind == "block":
            net.block(*args)
        elif kind == "heal":
            net.heal(*args)
        elif kind == "heal_all":
            net.heal()
        elif kind == "drop_rate":
            net.set_drop_rate(*args)
        elif kind == "extra_delay":
            net.set_extra_delay(*args)
        else:
            net.extra_delay = args[0]

    for tag, (step, op) in enumerate(schedule):
        sim.schedule(step * STEP, lambda tag=tag, op=op: run_op(tag, op))
    sim.run(until=15 * STEP)            # mid-flight: the heap is not empty
    heap = sorted((e[0], e[1], e[2], e[3] is None) for e in sim._heap)
    seq = sim._seq
    sim.run()
    return {"log": log, "heap_mid_run": heap, "seq_mid_run": seq,
            "now": sim.now, "seq": sim._seq, "heap": sorted(
                (e[0], e[1], e[2], e[3] is None) for e in sim._heap),
            "sent": net.messages_sent, "dropped": net.messages_dropped,
            "stale": [endpoints[n].stale_replies for n in NAMES],
            "rng": net._rng.getstate()}


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 16), schedule=schedules)
def test_rpcs_without_a_pending_table_match_the_reference(seed, schedule):
    assert play(Network, seed, schedule) == play(OldNetwork, seed, schedule)


def test_the_schedule_reaches_every_outcome():
    """The generator is worth trusting: one fixed schedule shows a reply
    on time, an expiry, a late (stale) reply, a drop and a reply to a
    crashed incarnation — each the same on both layers."""
    schedule = [
        (0, ("request", "a", "b", "then", None, 0.0)),       # on time
        (0, ("request", "a", "b", "event", STEP, 12 * STEP)),  # late
        (0, ("request", "a", "c", "event", 20 * STEP, None)),  # expires
        (1, ("request", "b", "c", "then", None, 3 * STEP)),  # crash, restart
        (2, ("crash", "b")),
        (3, ("restart", "b")),
        (4, ("send", "c", "ghost")),                          # dropped
    ]
    new, old = play(Network, 3, schedule), play(OldNetwork, 3, schedule)
    assert new == old
    kinds = [entry[:3] for entry in new["log"] if entry[0] != "handled"]
    assert ("then", 0, ("re", 0)) in kinds
    timeouts = [e for e in new["log"] if e[0] == "event" and not e[2]]
    assert {e[1] for e in timeouts} == {1, 2}
    assert new["stale"] == [1, 1, 0]        # a: late reply; b: old incarnation
    assert new["dropped"] >= 1
