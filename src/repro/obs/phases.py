"""Phase-breakdown aggregation over request traces.

Folds the spans collected by a :class:`~repro.obs.trace.RequestTracer`
into per-phase latency histograms, answering the paper's §9.1 question
— *where do the 40–90 ms writes go?* — with measured numbers: the mean
``log_force`` and ``quorum_wait`` per request, their share of the
end-to-end latency, and exemplar traces for the slow tail.

A request's per-phase duration is the **sum** of its same-named spans:
a write that retried after a leader crash has two ``route`` spans, and
both attempts' routing cost is honestly attributed to ``route``.  Spans
never overlap within a phase (the tracer opens at most one span per
phase per attempt), so the sum is wall-clock time, not double counting.

Shares are computed against the root span (client round trip).  They
need not sum to 1: ``log_force`` overlaps ``replicate_rtt`` by design
(Fig. 4 forces and proposes in parallel), and client-side retry backoff
sits in no phase at all.  ``OBSERVABILITY.md`` walks through reading
the numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.metrics import Histogram

__all__ = ["WRITE_PHASES", "READ_PHASES", "CATCHUP_PHASES", "TraceView",
           "collect_traces", "phase_durations", "phase_histograms",
           "phase_summary", "slowest_traces", "format_trace",
           "format_phase_table"]

#: Canonical phase order for the write path (Fig. 4).
WRITE_PHASES = ("route", "propose", "log_force", "replicate_rtt",
                "quorum_wait", "commit_apply", "reply")
#: Canonical phase order for the read path.
READ_PHASES = ("route", "read_serve", "reply")
#: Canonical phase order for chunked catch-up (§6.1): fetching one chunk
#: over the network vs. installing its snapshot slice locally.
CATCHUP_PHASES = ("catchup_fetch", "snapshot_install")


class TraceView:
    """One trace reassembled from per-node span stores."""

    __slots__ = ("trace_id", "op", "origin", "root", "spans")

    def __init__(self, trace_id: int, root, spans: List):
        self.trace_id = trace_id
        self.op = root.name
        self.origin = root.node
        self.root = root
        #: child spans sorted by (start, span_id); root excluded.
        self.spans = spans

    @property
    def duration(self) -> float:
        return self.root.duration

    @property
    def completed(self) -> bool:
        """Closed root, no error, not cut short by a crash."""
        return (self.root.end is not None and not self.root.truncated
                and not (self.root.fields or {}).get("error"))

    @property
    def truncated(self) -> bool:
        return any(s.truncated for s in self.spans) or self.root.truncated


def collect_traces(tracer, op: Optional[str] = None) -> List[TraceView]:
    """Reassemble finished traces (those whose root span closed) from a
    tracer's stores, in trace-id order."""
    by_trace: Dict[int, List] = {}
    for span in tracer.spans():
        by_trace.setdefault(span.trace_id, []).append(span)
    views: List[TraceView] = []
    for trace_id in sorted(by_trace):
        spans = by_trace[trace_id]
        root = None
        children = []
        for span in spans:
            if span.parent_id is None:
                root = span
            else:
                children.append(span)
        if root is None or root.end is None:
            continue  # still in flight, or root fell out of the store
        if op is not None and root.name != op:
            continue
        children.sort(key=lambda s: (s.start, s.span_id))
        views.append(TraceView(trace_id, root, children))
    return views


def phase_durations(view: TraceView) -> Dict[str, float]:
    """Per-phase seconds for one trace (same-named spans summed)."""
    out: Dict[str, float] = {}
    for span in view.spans:
        if span.end is None:
            continue
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out


def phase_histograms(views: List[TraceView]
                     ) -> Dict[str, Dict[str, Histogram]]:
    """``{op: {phase: Histogram, "_total": Histogram}}`` in seconds, over
    the completed traces."""
    out: Dict[str, Dict[str, Histogram]] = {}
    for view in views:
        if not view.completed:
            continue
        per_op = out.setdefault(view.op, {"_total": Histogram()})
        per_op["_total"].add(view.duration)
        for phase, seconds in phase_durations(view).items():
            hist = per_op.get(phase)
            if hist is None:
                hist = per_op[phase] = Histogram()
            hist.add(seconds)
    return out


def _phase_order(op: str, phases) -> List[str]:
    if op == "catchup":
        canon = CATCHUP_PHASES
    elif op in ("write", "txn"):
        canon = WRITE_PHASES
    else:
        canon = READ_PHASES
    ordered = [p for p in canon if p in phases]
    ordered.extend(sorted(p for p in phases
                          if p not in canon and p != "_total"))
    return ordered


def phase_summary(tracer_or_views) -> Dict[str, dict]:
    """JSON-ready ``{op: {count, total_ms, phases: {...}}}`` summary.

    ``phases[name]`` carries ``mean_ms``, ``p95_ms`` and ``share`` (the
    phase mean over the end-to-end mean).  This is the object embedded
    as the ``phases`` section of ``BENCH_report.json``.
    """
    if isinstance(tracer_or_views, list):
        views = tracer_or_views
    else:
        views = collect_traces(tracer_or_views)
    hists = phase_histograms(views)
    out: Dict[str, dict] = {}
    for op in sorted(hists):
        per_op = hists[op]
        total = per_op["_total"]
        total_mean = total.mean()
        phases: Dict[str, dict] = {}
        for phase in _phase_order(op, per_op):
            hist = per_op[phase]
            mean = hist.mean()
            phases[phase] = {
                "mean_ms": mean * 1e3,
                "p95_ms": hist.percentile(95) * 1e3,
                "share": (mean / total_mean) if total_mean else 0.0,
            }
        out[op] = {
            "count": total.count,
            "total_mean_ms": total_mean * 1e3,
            "total_p95_ms": total.percentile(95) * 1e3,
            "phases": phases,
        }
    return out


def slowest_traces(views: List[TraceView], k: int = 1) -> List[TraceView]:
    """The ``k`` slowest completed traces (ties broken by trace id for
    determinism), slowest first."""
    pool = [v for v in views if v.completed]
    pool.sort(key=lambda v: (-v.duration, v.trace_id))
    return pool[:k]


def format_trace(view: TraceView) -> str:
    """Render one trace as an indented span tree::

        trace 41 · write · 11.824 ms · origin client-0
        └─ route         node3   +0.000   0.712 ms
           propose       node3   +0.712   0.000 ms  batch=2
           ...
    """
    lines = [f"trace {view.trace_id} · {view.op} · "
             f"{view.duration * 1e3:.3f} ms · origin {view.origin}"
             + ("  [truncated spans]" if view.truncated else "")]
    t0 = view.root.start
    for i, span in enumerate(view.spans):
        lead = "└─ " if i == 0 else "   "
        mark = " ✂" if span.truncated else ""
        extra = ""
        if span.fields:
            extra = "  " + " ".join(f"{k}={v}" for k, v
                                    in sorted(span.fields.items()))
        lines.append(
            f"{lead}{span.name:<14} {span.node:<8} "
            f"+{(span.start - t0) * 1e3:7.3f} "
            f"{span.duration * 1e3:8.3f} ms{mark}{extra}")
    return "\n".join(lines)


def format_phase_table(summary: Dict[str, dict]) -> str:
    """Render :func:`phase_summary` output as an aligned text table."""
    lines: List[str] = []
    for op in sorted(summary):
        entry = summary[op]
        lines.append(f"{op}: n={entry['count']}  "
                     f"mean={entry['total_mean_ms']:.3f} ms  "
                     f"p95={entry['total_p95_ms']:.3f} ms")
        lines.append(f"  {'phase':<14}{'mean ms':>10}{'p95 ms':>10}"
                     f"{'share':>8}")
        # built in canonical phase order; rendering feeds no scheduling
        for phase, row in entry["phases"].items():  # lint: allow(dict-order)
            lines.append(f"  {phase:<14}{row['mean_ms']:>10.3f}"
                         f"{row['p95_ms']:>10.3f}"
                         f"{row['share'] * 100:>7.1f}%")
    return "\n".join(lines)
