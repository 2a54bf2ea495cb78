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

Hot path (DESIGN.md, "Kernel hot paths"): a message is one object that
is its own kernel callback — a :class:`Request`, or the :class:`Reply`
to one — and an RPC keeps no table.  A request carries what its reply
needs: the continuation ``then`` (None once answered or expired), the
calling :class:`Endpoint` and that endpoint's incarnation, which
:meth:`Endpoint.crash` bumps.  The reply's callback hands its payload
straight to ``then``: no request id, no pending dict, no endpoint lookup
by name.  An RPC timeout costs no kernel entry: each endpoint queues its
own deadlines (entries that hold the request) and keeps at most **one**
entry in the kernel heap (re-armed for the next pending request when it
fires, parked while none is), under the sequence number the request
*reserved when it was made* — ties break as they always did.  The
per-pair FIFO clamp lives on the sending endpoint, keyed by destination.
On a flat network :meth:`Network._transmit` computes the delay in place:
:meth:`LatencyModel.delay` and the ``Random.expovariate`` under it,
operation for operation (one draw, the same float operations in the same
order), without their two frames per message.  ``LatencyModel.delay``
stays as the reference a property test holds the inlined branch to.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heapify, heappush
from math import log
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from .events import (_CALLBACK, _TIME, NORMAL, Event, SimulationError,
                     Simulator)
from .rng import RngRegistry

__all__ = ["LatencyModel", "Network", "Endpoint", "RpcTimeout", "Request",
           "Reply"]


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

    def nominal(self, size_bytes: int = 4096) -> float:
        """Jitter-free delay estimate padded by three mean jitters — for
        timeout budgeting, never for transmission."""
        transfer = size_bytes / self.bandwidth if self.bandwidth else 0.0
        return self.base + transfer + 3.0 * self.jitter


class Request:
    """One message in flight — and, at the receiver, what the handler
    gets: ``src``, ``payload`` and a ``respond`` hook.  It is also its
    own delivery callback: the kernel entry :meth:`Network._transmit`
    pushes carries it directly, so a message costs one allocation, not
    an envelope + closure + wrapper.

    One made by :meth:`Endpoint.request` is also its own pending record:
    it holds the ``caller`` endpoint, the caller's ``incarnation`` when
    it was sent, and ``then``, what the reply is handed to — None once
    the request is answered or has expired.  A one-way message has no
    caller."""

    __slots__ = ("_net", "src", "dst", "payload", "caller", "incarnation",
                 "then", "responded")

    def __init__(self, net: "Network", src: str, dst: str, payload: Any,
                 caller: Optional["Endpoint"] = None, incarnation: int = 0,
                 then: Optional[Callable[[Any], None]] = None):
        self._net = net
        self.src = src
        self.dst = dst
        self.payload = payload
        self.caller = caller
        self.incarnation = incarnation
        self.then = then
        self.responded = False

    def respond(self, value: Any, size: int = 128) -> None:
        """Send the reply back to the requester (at most once).  A dead
        responder, or a one-way message, sends nothing."""
        if self.responded:
            raise SimulationError("request already responded to")
        self.responded = True
        if self.caller is not None:
            net = self._net
            ep = net._endpoints[self.dst]
            if ep.alive:
                net._transmit(Reply(self, value), ep, self.src, size)

    def __call__(self) -> None:
        """Kernel callback at the arrival time: hand the message to the
        destination endpoint, or drop it if that is down."""
        net = self._net
        ep = net._endpoints.get(self.dst)
        if ep is None or not ep.alive:
            net.messages_dropped += 1
        elif ep._handler is not None:
            ep._handler(self)


class Reply:
    """A reply in flight, and its own kernel callback: at the arrival
    time it hands ``payload`` straight to the request's continuation."""

    __slots__ = ("req", "payload")

    def __init__(self, req: Request, payload: Any):
        self.req = req
        self.payload = payload

    def __call__(self) -> None:
        req = self.req
        ep = req.caller
        if not ep.alive:
            req._net.messages_dropped += 1
            return
        then = req.then
        if then is None or req.incarnation != ep.incarnation:
            # Late: the request already timed out, or the caller crashed
            # since it was sent.  Drop it on the floor.
            ep.stale_replies += 1
            return
        req.then = None
        queue = ep._deadlines
        if queue:
            while queue and queue[0][_REQ].then is None:
                queue.popleft()
            if not queue:
                # Park (a cancel the next request undoes): an idle
                # endpoint must not advance the clock.
                ep._armed[_CALLBACK] = None
        then(self.payload)


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
        self._blocked: set = set()
        self._blocked_oneway: set = set()      # ordered (src, dst) pairs
        self._drop_rates: Dict[Tuple[str, str], float] = {}
        self._extra_delays: Dict[Tuple[str, str], float] = {}
        #: additive network-wide delay (latency-spike injection)
        self.extra_delay = 0.0
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
        silently heal the reverse leg too (it used to).  Naming one end
        alone is an error (it used to heal nothing, silently).
        """
        if (a is None) != (b is None):
            raise SimulationError(f"heal needs both ends or neither, "
                                  f"got a={a!r}, b={b!r}")
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
    def _transmit(self, env: Callable[[], None], src_ep: "Endpoint",
                  dst: str, size: int) -> None:
        """Send one message (``env``: a :class:`Request` or
        :class:`Reply`, its own delivery callback) from the live endpoint
        ``src_ep`` (every caller checks) to the endpoint named ``dst``.
        Runs once per simulated message, so the fault-injection checks
        are guarded by container emptiness tests: a healthy network pays
        no frozenset, tuple or dict-lookup cost per message.  The
        drop-rate RNG draw still happens exactly when a rate is
        configured for the pair, so the draw order is that of unguarded
        lookups."""
        self.messages_sent += 1
        src = src_ep.name
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
        last_delivery = src_ep._last_delivery
        last = last_delivery.get(dst)
        if last is not None and last > arrival:
            arrival = last
        last_delivery[dst] = arrival
        # Simulator.call_at inlined; the message is its own callback.
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, [arrival, NORMAL, seq, env])


#: A deadline entry is a kernel heap entry + what its expiry needs.
_REQ, _TIMEOUT, _EVENT = 4, 5, 6


class Endpoint:
    """One node's attachment to the network."""

    def __init__(self, network: Network, name: str):
        self.network = network
        self.sim = network.sim
        self.name = name
        self.alive = True
        #: bumped by each crash: a reply to a request sent by an earlier
        #: incarnation is stale
        self.incarnation = 0
        self._handler: Optional[Callable[[Request], None]] = None
        #: destination -> arrival time of the last message sent there
        #: (the FIFO clamp of that ordered pair)
        self._last_delivery: Dict[str, float] = {}
        #: deadline entries of requests sent with a timeout, earliest
        #: first; answered ones are dropped as they reach the front
        self._deadlines: Deque[list] = deque()
        #: the one deadline entry in the kernel heap, or None.  If its
        #: request was answered it just wakes us to arm the next; while
        #: none is pending it is *parked* (callback None: kernel skips it)
        self._armed: Optional[list] = None
        self._expire = self._on_deadline     # bound once, not per RPC
        #: replies that arrived after their request timed out (or after a
        #: crash) and were discarded — chaos runs assert these never
        #: resume a waiter twice
        self.stale_replies = 0

    # -- wiring ----------------------------------------------------------
    def on_request(self, handler: Callable[[Request], None]) -> None:
        """Install the (single) inbound-request handler."""
        self._handler = handler

    # -- lifecycle ----------------------------------------------------------
    def crash(self) -> None:
        """Take the endpoint off the network; pending RPCs never resolve."""
        self.alive = False
        self.incarnation += 1
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
        net._transmit(Request(net, self.name, dst, payload), self, dst, size)

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
        if timeout is not None and (timeout < 0 or then is not None):
            raise SimulationError(f"bad timeout {timeout!r} (>= 0, "
                                  f"Event form only)")
        ev = None
        if then is None:        # the Event form: its succeed is the callback
            ev = Event(self.sim)
            then = ev.succeed
        if not self.alive:
            if ev is not None:
                ev.fail(RpcTimeout(f"{self.name} is down"))
            return ev
        net = self.network
        req = Request(net, self.name, dst, payload, self, self.incarnation,
                      then)
        net._transmit(req, self, dst, size)
        if timeout is not None:
            # Reserve the kernel sequence number *now*: whenever this
            # deadline is finally armed, it ties with other events at
            # its timestamp exactly as a timer scheduled here would.
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            entry = [sim._now + timeout, NORMAL, seq, self._expire,
                     req, timeout, ev]
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
    def _on_deadline(self) -> None:
        """The armed deadline came up: expire its request if that is
        still pending, and arm the next pending one."""
        entry, self._armed = self._armed, None
        req = entry[_REQ]
        # Clear the continuation *before* failing the event: a reply
        # that arrives later finds none and is discarded, so the waiting
        # process is resumed exactly once.
        unanswered = req.then is not None
        req.then = None
        queue = self._deadlines
        while queue and queue[0][_REQ].then is None:
            queue.popleft()
        if queue:
            self._armed = queue[0]
            heappush(self.sim._heap, queue[0])
        if unanswered:
            entry[_EVENT].fail(RpcTimeout(
                f"rpc {self.name}->{req.dst} timed out after "
                f"{entry[_TIMEOUT]}s"))
