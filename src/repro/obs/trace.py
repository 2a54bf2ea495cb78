"""Causal request tracing: spans, contexts, and the per-node span store.

Model
-----
A *trace* is one client operation (a ``put``, ``get``, ``scan`` or
transaction) as seen across every machine it touches.  It is a flat set
of :class:`Span` objects sharing a ``trace_id``; each span names a
*phase* of the request (see :data:`repro.obs.phases.WRITE_PHASES`) and
carries ``[start, end]`` simulated-time endpoints plus the node that did
the work.  The *root* span (``parent_id is None``) brackets the whole
client round trip; phase spans are its children.

The :class:`TraceContext` is the piece that travels: the client attaches
it to the request message (``msg.trace``), and every protocol layer that
wants to attribute latency opens/closes spans against it.  Because the
simulator is single-threaded and deterministic, the context can carry
mutable rendezvous fields (``last_sent_at``, ``server_done_at``) without
locks — and traces are bit-identical across runs with the same seed.

Sampling
--------
``RequestTracer(sample_every=N)`` traces 1-in-N operations, decided by a
dedicated deterministic RNG stream (``obs:sampler``) so that enabling
sampling never perturbs protocol or workload randomness.  A non-sampled
operation gets ``ctx = None`` and every downstream hook is a single
``is None`` test.

Zero-cost off switch
--------------------
:class:`NullRequestTracer` is the default everywhere.  Its ``begin``
returns ``None`` and ``enabled`` is False, so the traced code paths
reduce to one attribute load and one branch per operation; no spans, no
stores, no RNG draws.

Crash truncation
----------------
Spans still open when their node crashes (or a replica steps down) are
closed at the current simulated time with ``truncated=True`` — a trace
of a failed-over write shows the dead leader's half-finished phases
*and* the successful retry's complete ones.  ``Span.finish`` is
idempotent, so the node-level sweep (:meth:`RequestTracer.truncate_node`)
and replica-level cleanup cannot double-report.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

__all__ = ["Span", "SpanStore", "TraceContext", "RequestTracer",
           "NullRequestTracer"]


class Span:
    """One timed phase of one request on one node.

    ``end is None`` while the span is open; ``duration`` is only
    meaningful once closed.  ``fields`` holds small structured
    annotations (batch sizes, queue depths) for rendering.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node",
                 "start", "end", "truncated", "fields")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, node: str, start: float,
                 fields: Optional[dict] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.truncated = False
        self.fields: Optional[dict] = fields

    @property
    def duration(self) -> float:
        """Closed-span duration in seconds (nan while open)."""
        if self.end is None:
            return float("nan")
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("open" if self.end is None
                 else f"{self.duration * 1e3:.3f}ms")
        mark = " TRUNCATED" if self.truncated else ""
        return (f"<Span t{self.trace_id} {self.name}@{self.node} "
                f"{state}{mark}>")


class SpanStore:
    """Bounded FIFO of finished spans for one node.

    When full, the oldest spans fall off and ``dropped`` counts them —
    long traced runs keep recent requests rather than exploding memory.
    """

    def __init__(self, max_spans: int = 100_000):
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self.dropped = 0

    def add(self, span: Span) -> None:
        if (self._spans.maxlen is not None
                and len(self._spans) == self._spans.maxlen):
            self.dropped += 1
        self._spans.append(span)

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        if trace_id is None:
            return list(self._spans)
        return [s for s in self._spans if s.trace_id == trace_id]


class TraceContext:
    """The sampled-request token carried on client messages.

    Mutable rendezvous fields (single-threaded simulator, so plain
    attributes are race-free):

    ``last_sent_at``
        Set by the client immediately before each (re)send; the server
        uses it as the ``route`` span's start so retries never
        double-count earlier attempts.
    ``server_done_at``
        Set by the server at the instant it responds; the client uses it
        as the ``reply`` span's start.
    """

    __slots__ = ("tracer", "trace_id", "op", "origin", "root",
                 "last_sent_at", "server_done_at")

    def __init__(self, tracer: "RequestTracer", trace_id: int, op: str,
                 origin: str, root: Span):
        self.tracer = tracer
        self.trace_id = trace_id
        self.op = op
        self.origin = origin
        self.root = root
        self.last_sent_at: Optional[float] = None
        self.server_done_at: Optional[float] = None


class RequestTracer:
    """Factory and sink for request traces across a whole cluster.

    Bound to a cluster's simulator and RNG registry by
    :class:`~repro.core.cluster.SpinnakerCluster` (mirroring the
    protocol-event :class:`~repro.sim.tracing.Tracer`); ``begin`` is the
    only entry point the client calls, everything else operates on the
    returned :class:`TraceContext` or on :class:`Span` objects.
    """

    enabled = True

    def __init__(self, sample_every: int = 1,
                 max_spans_per_node: int = 100_000):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.max_spans_per_node = max_spans_per_node
        self.sim = None
        self._rng = None
        self._stores: Dict[str, SpanStore] = {}
        #: open spans per node, span_id -> Span (insertion == start order)
        self._open: Dict[str, Dict[int, Span]] = {}
        self._next_trace = 0
        self._next_span = 0
        self.sampled = 0
        self.skipped = 0

    # -- wiring ---------------------------------------------------------
    def bind(self, sim, rng_registry) -> None:
        """Attach to a simulation; called once by the cluster."""
        self.sim = sim
        self._rng = rng_registry.stream("obs:sampler")

    # -- trace lifecycle ------------------------------------------------
    def begin(self, op: str, origin: str) -> Optional[TraceContext]:
        """Start (or skip) a trace for one client operation.

        Returns None when the sampler says no; callers must treat None
        as "tracing off" for this request.
        """
        if self.sample_every > 1:
            if self._rng.randrange(self.sample_every) != 0:
                self.skipped += 1
                return None
        self.sampled += 1
        trace_id = self._next_trace
        self._next_trace += 1
        root = self._new_span(trace_id, None, op, origin, self.sim.now, None)
        self._register(root)
        return TraceContext(self, trace_id, op, origin, root)

    def start(self, ctx: TraceContext, name: str, node: str,
              **fields) -> Span:
        """Open a child span now; close it later with :meth:`finish`."""
        span = self._new_span(ctx.trace_id, ctx.root.span_id, name, node,
                              self.sim.now, fields or None)
        self._register(span)
        return span

    def finish(self, span: Span, **fields) -> None:
        """Close a span at the current time.  Idempotent: a span already
        closed (e.g. by crash truncation) is left untouched."""
        if span.end is not None:
            return
        span.end = self.sim.now
        if fields:
            if span.fields is None:
                span.fields = fields
            else:
                span.fields.update(fields)
        self._deregister(span)
        self.store(span.node).add(span)

    def span_at(self, ctx: TraceContext, name: str, node: str,
                start: float, end: Optional[float] = None,
                **fields) -> Span:
        """Record an already-delimited span (start in the past, end
        defaulting to now) without going through the open registry."""
        span = self._new_span(ctx.trace_id, ctx.root.span_id, name, node,
                              start, fields or None)
        span.end = self.sim.now if end is None else end
        self.store(node).add(span)
        return span

    def truncate(self, span: Span) -> None:
        """Close an open span as interrupted (crash / step-down)."""
        if span.end is not None:
            return
        span.truncated = True
        self.finish(span)

    def truncate_node(self, node: str) -> int:
        """Close every open span on ``node`` as truncated; the node
        crash path calls this so no span outlives its machine.  Returns
        the number of spans closed."""
        open_spans = self._open.get(node)
        if not open_spans:
            return 0
        victims = list(open_spans.values())
        for span in victims:
            self.truncate(span)
        return len(victims)

    # -- access ---------------------------------------------------------
    def store(self, node: str) -> SpanStore:
        store = self._stores.get(node)
        if store is None:
            store = self._stores[node] = SpanStore(self.max_spans_per_node)
        return store

    def stores(self) -> Dict[str, SpanStore]:
        return dict(self._stores)

    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        """All finished spans across nodes (optionally one trace),
        ordered by (trace, start, span id) for stable rendering."""
        out: List[Span] = []
        for name in sorted(self._stores):
            out.extend(self._stores[name].spans(trace_id))
        out.sort(key=lambda s: (s.trace_id, s.start, s.span_id))
        return out

    def open_spans(self, node: Optional[str] = None) -> List[Span]:
        if node is not None:
            return list(self._open.get(node, {}).values())
        out: List[Span] = []
        for name in sorted(self._open):
            out.extend(self._open[name].values())
        return out

    # -- internals ------------------------------------------------------
    def _new_span(self, trace_id: int, parent_id: Optional[int], name: str,
                  node: str, start: float, fields: Optional[dict]) -> Span:
        span_id = self._next_span
        self._next_span += 1
        return Span(trace_id, span_id, parent_id, name, node, start, fields)

    def _register(self, span: Span) -> None:
        self._open.setdefault(span.node, {})[span.span_id] = span

    def _deregister(self, span: Span) -> None:
        open_spans = self._open.get(span.node)
        if open_spans is not None:
            open_spans.pop(span.span_id, None)


class NullRequestTracer:
    """Tracing disabled: ``begin`` yields None so every instrumented
    call site short-circuits on its ``ctx is None`` guard."""

    enabled = False
    sample_every = 0
    sampled = 0
    skipped = 0

    def bind(self, sim, rng_registry) -> None:
        pass

    def begin(self, op: str, origin: str) -> None:
        return None

    def truncate_node(self, node: str) -> int:
        return 0

    def stores(self) -> Dict[str, SpanStore]:
        return {}

    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        return []

    def open_spans(self, node: Optional[str] = None) -> List[Span]:
        return []
