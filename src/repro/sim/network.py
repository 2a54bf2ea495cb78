"""Simulated datacenter network.

Models the paper's setup (Appendix C): servers on a rack-level 1-GbE
switch, clients on a second rack, reliable in-order messaging over TCP
(Appendix A.1).  Concretely:

* every ordered pair of endpoints is a FIFO channel — message *i* is
  delivered before message *i + 1* (TCP in-order semantics);
* per-message latency = ``base + size / bandwidth + jitter`` where jitter
  is drawn from a deterministic per-network RNG stream;
* messages to a crashed endpoint are silently dropped (the sender learns
  about failures through acks/timeouts/coordination service, exactly as
  Spinnaker does);
* network partitions drop messages between blocked pairs — symmetric by
  default, or one-directional (``block(a, b, symmetric=False)``) to model
  asymmetric partitions;
* per-ordered-pair fault injection for chaos testing: a drop probability
  (lossy links) and an extra fixed delay (latency spikes), plus a
  network-wide ``extra_delay`` knob.

A small request/reply (RPC) layer is included because both datastores and
the benchmark clients are built around it.

Hot path (DESIGN.md, "Kernel hot paths"): a message is one
:class:`Request` that is its own kernel callback, and an RPC timeout
costs no kernel entry: each endpoint queues its own deadlines and keeps
at most **one** entry in the kernel heap (re-armed for the next pending
request when it fires, parked while none is), under the sequence number
the request *reserved when it was made* — ties break as they always did.
On a flat network :meth:`Network._transmit` computes the delay in place:
:meth:`LatencyModel.delay` and the ``Random.expovariate`` under it,
operation for operation (one draw, the same float operations in the same
order), without their two frames per message.  ``LatencyModel.delay``
stays as the reference a property test holds the inlined branch to.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from heapq import heapify, heappush
from math import log
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from .events import (_CALLBACK, _TIME, NORMAL, Event, SimulationError,
                     Simulator)
from .rng import RngRegistry

__all__ = ["LatencyModel", "Network", "Endpoint", "RpcTimeout", "Request"]


class RpcTimeout(Exception):
    """A :meth:`Endpoint.request` did not get a reply in time."""


class LatencyModel:
    """Latency parameters for one network.

    Defaults approximate a lightly tuned 1-GbE datacenter rack: ~120
    microseconds of fixed cost (NIC + switch + kernel) and 1 Gbit/s of
    bandwidth, so a 4 KB payload costs ~33 us of serialization.
    """

    def __init__(self, base: float = 120e-6,
                 bandwidth_bytes_per_sec: float = 125e6,
                 jitter: float = 30e-6):
        self.base = base
        self.bandwidth = bandwidth_bytes_per_sec
        self.jitter = jitter
        self._jitter_rate = 1.0 / jitter if jitter else 0.0

    def delay(self, size_bytes: int, rng) -> float:
        """One-way delay for a message of ``size_bytes``."""
        transfer = size_bytes / self.bandwidth if self.bandwidth else 0.0
        jitter = rng.expovariate(self._jitter_rate) if self.jitter else 0.0
        return self.base + transfer + jitter

    def nominal(self, size_bytes: int = 4096,
                jitter_mult: float = 3.0) -> float:
        """Jitter-free delay estimate padded by ``jitter_mult`` mean
        jitters — for timeout budgeting, never for transmission."""
        transfer = size_bytes / self.bandwidth if self.bandwidth else 0.0
        return self.base + transfer + jitter_mult * self.jitter


class Request:
    """One message in flight — and, at the receiver, what the handler
    gets: ``src``, ``payload`` and a ``respond`` hook.  It is also its
    own delivery callback: the kernel entry :meth:`Network._transmit`
    pushes carries it directly, so a message costs one allocation, not
    an envelope + closure + wrapper."""

    __slots__ = ("_net", "src", "dst", "payload", "req_id", "reply_to",
                 "responded")

    def __init__(self, net: "Network", src: str, dst: str, payload: Any,
                 req_id: Optional[int] = None,
                 reply_to: Optional[int] = None):
        self._net = net
        self.src = src
        self.dst = dst
        self.payload = payload
        self.req_id = req_id
        self.reply_to = reply_to
        self.responded = False

    def respond(self, value: Any, size: int = 128) -> None:
        """Send the reply back to the requester (at most once).  A dead
        responder, or a one-way message, sends nothing."""
        if self.responded:
            raise SimulationError("request already responded to")
        self.responded = True
        net = self._net
        if self.req_id is not None and net._endpoints[self.dst].alive:
            net._transmit(Request(net, self.dst, self.src, value,
                                  reply_to=self.req_id), size)

    def __call__(self) -> None:
        """Kernel callback at the arrival time: hand the message to the
        destination endpoint, or drop it if that is down."""
        net = self._net
        ep = net._endpoints.get(self.dst)
        if ep is None or not ep.alive:
            net.messages_dropped += 1
        elif self.reply_to is not None:
            ep._on_reply(self)
        elif ep._handler is not None:
            ep._handler(self)


class Network:
    """The switch: owns endpoints, channels, and the partition set."""

    def __init__(self, sim: Simulator, rng: RngRegistry,
                 latency: Optional[LatencyModel] = None, topology=None):
        self.sim = sim
        self.latency = latency or LatencyModel()
        #: optional :class:`~repro.sim.topology.Topology`; when set,
        #: per-message delay comes from the endpoints' placements
        #: instead of the single flat ``latency`` model
        self.topology = topology
        self._rng = rng.stream("network")
        self._endpoints: Dict[str, "Endpoint"] = {}
        self._last_delivery: Dict[Tuple[str, str], float] = {}
        self._blocked: set = set()
        self._blocked_oneway: set = set()      # ordered (src, dst) pairs
        self._drop_rates: Dict[Tuple[str, str], float] = {}
        self._extra_delays: Dict[Tuple[str, str], float] = {}
        #: additive network-wide delay (latency-spike injection)
        self.extra_delay = 0.0
        self._req_ids = itertools.count(1)
        self.messages_sent = 0
        self.messages_dropped = 0

    # -- membership -----------------------------------------------------
    def endpoint(self, name: str) -> "Endpoint":
        """Create (or fetch) the endpoint for node ``name``."""
        ep = self._endpoints.get(name)
        if ep is None:
            ep = Endpoint(self, name)
            self._endpoints[name] = ep
        return ep

    def get(self, name: str) -> "Endpoint":
        try:
            return self._endpoints[name]
        except KeyError:
            raise SimulationError(f"unknown endpoint {name!r}") from None

    # -- partitions ---------------------------------------------------------
    def block(self, a: str, b: str, symmetric: bool = True) -> None:
        """Drop traffic between ``a`` and ``b``.

        Symmetric (the default) blocks both directions; with
        ``symmetric=False`` only ``a`` → ``b`` messages are dropped while
        replies ``b`` → ``a`` still flow (asymmetric partition).
        """
        if symmetric:
            self._blocked.add(frozenset((a, b)))
        else:
            self._blocked_oneway.add((a, b))

    def heal(self, a: Optional[str] = None, b: Optional[str] = None,
             symmetric: bool = True) -> None:
        """Heal one pair, or everything with no args.

        By default both directions are restored (undoing a symmetric
        ``block`` and any one-way blocks between the pair).  With
        ``symmetric=False`` only the ``a`` → ``b`` direction is
        unblocked — healing one leg of an asymmetric partition must not
        silently heal the reverse leg too (it used to).
        """
        if a is None:
            self._blocked.clear()
            self._blocked_oneway.clear()
        elif symmetric:
            self._blocked.discard(frozenset((a, b)))
            self._blocked_oneway.discard((a, b))
            self._blocked_oneway.discard((b, a))
        else:
            self._blocked_oneway.discard((a, b))

    def is_blocked(self, a: str, b: str) -> bool:
        """True when ``a`` → ``b`` traffic is blocked (directional)."""
        return (frozenset((a, b)) in self._blocked
                or (a, b) in self._blocked_oneway)

    # -- lossy / slow links (chaos injection) ---------------------------
    def set_drop_rate(self, a: str, b: str, rate: float,
                      symmetric: bool = True) -> None:
        """Drop each ``a`` → ``b`` message with probability ``rate``
        (and ``b`` → ``a`` too when symmetric).  ``rate=0`` clears."""
        pairs = [(a, b), (b, a)] if symmetric else [(a, b)]
        for pair in pairs:
            if rate > 0:
                self._drop_rates[pair] = rate
            else:
                self._drop_rates.pop(pair, None)

    def set_extra_delay(self, a: str, b: str, extra: float,
                        symmetric: bool = True) -> None:
        """Add ``extra`` seconds of one-way delay on the link.
        ``extra=0`` clears.  FIFO ordering per pair is preserved."""
        pairs = [(a, b), (b, a)] if symmetric else [(a, b)]
        for pair in pairs:
            if extra > 0:
                self._extra_delays[pair] = extra
            else:
                self._extra_delays.pop(pair, None)

    def clear_link_faults(self) -> None:
        """Remove every injected drop rate and extra delay."""
        self._drop_rates.clear()
        self._extra_delays.clear()
        self.extra_delay = 0.0

    # -- timeout budgeting ----------------------------------------------
    def rtt_bound(self, size_bytes: int = 4096) -> float:
        """Upper estimate of one request/reply round trip on this
        network (jitter-padded, worst link).  Protocol layers derive
        their per-try RPC timeouts from this instead of hardcoding
        LAN-scale constants — on a WAN topology a literal ``1.0``/``2.0``
        second budget turns every slow-but-healthy link into a spurious
        :class:`RpcTimeout` retry storm."""
        if self.topology is not None:
            return self.topology.rtt_bound(size_bytes)
        return 2.0 * self.latency.nominal(size_bytes)

    # -- transmission -----------------------------------------------------
    def _transmit(self, env: Request, size: int) -> None:
        """Send one message from a live endpoint (every caller checks).
        Runs once per simulated message, so the fault-injection checks
        are guarded by container emptiness tests: a healthy network pays
        no frozenset or dict-lookup cost per message.  The drop-rate RNG
        draw still happens exactly when a rate is configured for the
        pair, so the draw order is that of unguarded lookups."""
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
        if self.topology is None:
            # LatencyModel.delay + Random.expovariate in place: the same
            # one draw and the same float operations in the same order.
            lat = self.latency
            delay = (lat.base
                     + (size / lat.bandwidth if lat.bandwidth else 0.0)
                     + (-log(1.0 - self._rng.random()) / lat._jitter_rate
                        if lat.jitter else 0.0))
        else:
            # Same RNG consumption: Topology.delay draws exactly one
            # jitter sample per message, like the flat model above.
            delay = self.topology.delay(src, dst, size, self._rng)
        delay += self.extra_delay
        if self._extra_delays:
            delay += self._extra_delays.get((src, dst), 0.0)
        sim = self.sim
        arrival = sim._now + delay
        # FIFO per ordered pair: never deliver before an earlier message.
        key = (src, dst)
        last = self._last_delivery.get(key)
        if last is not None and last > arrival:
            arrival = last
        self._last_delivery[key] = arrival
        # Simulator.call_at inlined; the message is its own callback.
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, [arrival, NORMAL, seq, env])


#: A deadline entry is a kernel heap entry + what its expiry needs.
_REQ_ID, _DST, _TIMEOUT, _EVENT = 4, 5, 6, 7


class Endpoint:
    """One node's attachment to the network."""

    def __init__(self, network: Network, name: str):
        self.network = network
        self.sim = network.sim
        self.name = name
        self.alive = True
        self._handler: Optional[Callable[[Request], None]] = None
        #: request id -> what its reply is handed to
        self._pending: Dict[int, Callable[[Any], None]] = {}
        #: deadline entries of requests sent with a timeout, earliest
        #: first; answered ones are dropped as they reach the front
        self._deadlines: Deque[list] = deque()
        #: the one deadline entry in the kernel heap, or None.  If its
        #: request was answered it just wakes us to arm the next; while
        #: none is pending it is *parked* (callback None: kernel skips it)
        self._armed: Optional[list] = None
        self._expire = self._on_deadline     # bound once, not per RPC
        #: replies that arrived after their request timed out (or after a
        #: crash cleared it) and were discarded — chaos runs assert these
        #: never resume a waiter twice
        self.stale_replies = 0

    # -- wiring ----------------------------------------------------------
    def on_request(self, handler: Callable[[Request], None]) -> None:
        """Install the (single) inbound-request handler."""
        self._handler = handler

    # -- lifecycle ----------------------------------------------------------
    def crash(self) -> None:
        """Take the endpoint off the network; pending RPCs never resolve."""
        self.alive = False
        self._pending.clear()
        self._deadlines.clear()
        if self._armed is not None:
            self.sim.cancel(self._armed)
            self._armed = None

    def restart(self) -> None:
        self.alive = True

    # -- messaging -----------------------------------------------------------
    def send(self, dst: str, payload: Any, size: int = 256) -> None:
        """Fire-and-forget one-way message."""
        if not self.alive:
            return
        net = self.network
        net._transmit(Request(net, self.name, dst, payload), size)

    def request(self, dst: str, payload: Any, size: int = 256,
                timeout: Optional[float] = None,
                then: Optional[Callable[[Any], None]] = None
                ) -> Optional[Event]:
        """Send a request; ``then(reply)`` runs when the reply arrives
        (or, without ``then``, the returned event fires with it).

        The event fails with :class:`RpcTimeout` at once from a down
        endpoint, and if ``timeout`` is given (the Event form only) and
        no reply arrives in time.  Without a timeout, a request to a node
        that dies before replying never resolves — callers in the
        replication protocol always pair this with quorum waits or
        failure-detector callbacks, as the paper's protocol does.
        """
        ev = None
        if then is None:        # the Event form: its succeed is the callback
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
        net._transmit(Request(net, self.name, dst, payload, req_id), size)
        if timeout is not None:
            if timeout < 0 or ev is None:
                raise SimulationError(f"bad timeout {timeout!r} (>= 0, "
                                      f"Event form only)")
            # Reserve the kernel sequence number *now*: whenever this
            # deadline is finally armed, it ties with other events at
            # its timestamp exactly as a timer scheduled here would.
            seq = sim._seq
            sim._seq = seq + 1
            entry = [sim._now + timeout, NORMAL, seq, self._expire,
                     req_id, dst, timeout, ev]
            queue, armed = self._deadlines, self._armed
            if queue and entry < queue[-1]:
                insort(queue, entry)    # shorter timeout after a longer one
            else:
                queue.append(entry)
            if (armed is not None and armed[_CALLBACK] is None
                    and armed[_TIME] <= sim._now):
                armed = None     # parked, and the kernel is past it: gone
            if armed is None or entry < armed:
                if armed is not None:
                    # Withdraw, not lazily cancel: a still-pending
                    # request is re-armed later under the same sequence
                    # number, which may sit in the heap only once.
                    sim._heap.remove(armed)
                    heapify(sim._heap)
                self._armed = entry
                heappush(sim._heap, entry)
            else:
                armed[_CALLBACK] = self._expire      # un-park
        return ev

    # -- inbound ------------------------------------------------------------
    def _on_reply(self, env: Request) -> None:
        pending = self._pending
        then = pending.pop(env.reply_to, None)
        queue = self._deadlines
        if queue:
            while queue and queue[0][_REQ_ID] not in pending:
                queue.popleft()
            if not queue:
                # Park (a cancel the next request undoes): an idle
                # endpoint must not advance the clock.
                self._armed[_CALLBACK] = None
        if then is None:
            # Late reply: the request already timed out (or the
            # endpoint restarted).  Drop it on the floor.
            self.stale_replies += 1
            return
        then(env.payload)

    def _on_deadline(self) -> None:
        """The armed deadline came up: expire its request if that is
        still pending, and arm the next pending one."""
        entry, self._armed = self._armed, None
        pending = self._pending
        # Remove the pending entry *before* failing it: a reply that
        # arrives later finds nothing and is discarded, so the waiting
        # process is resumed exactly once.
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
