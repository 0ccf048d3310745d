"""Unified observability: tracing + metrics for the whole query pipeline.

This package is the single switchboard the rest of the system reports
into.  It has three layers:

* :mod:`repro.obs.trace` — nested, timestamped spans (parse, rewrite,
  optimize, plan, execute, commit);
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  (queries run, rows/pairs per operator class, optimizer rule hits,
  transaction commits/aborts);
* :mod:`repro.obs.export` — a JSON-lines event log, a Chrome/Perfetto
  trace-event exporter, and plain-text summaries; plus
  :mod:`repro.obs.querylog`, the per-statement slow query log sessions
  write into, and :mod:`repro.obs.analyze`, the EXPLAIN ANALYZE
  pipeline pairing estimated with actual per-operator cardinalities.

**Off by default, zero cost when off.**  The module-level facade keeps
one optional active tracer; while it is ``None`` (the default),
:func:`span` returns the shared no-op span and :func:`add` /
:func:`observe` / :func:`gauge` return immediately, so the instrumented
hot paths pay a single flag check.  The tier-1 suite and the benches
run entirely in this disabled mode.

**Metrics without spans.**  :func:`enable_metrics` turns on counter /
histogram / gauge recording *without* a tracer — the mode the query
server's telemetry plane runs in, where aggregate totals must accumulate
continuously but per-span bookkeeping would be waste.  :func:`add` /
:func:`observe` / :func:`gauge` record whenever either a tracer is
active or metrics-only mode is on (one ``_recording`` flag check);
:func:`span` still requires a tracer.

Usage::

    from repro import obs

    tracer = obs.enable()                 # in-memory spans + metrics
    tracer = obs.enable(sink=JsonLinesSink("trace.jsonl"))  # + streaming
    ...run queries...
    print(obs.metrics().render())         # or .metrics in the CLI
    print(tracer.render())
    obs.disable()
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.obs.analyze import AnalyzeReport, OperatorStats
from repro.obs.export import (
    JsonLinesSink,
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    export_stitched_trace,
    render_summary,
    stitch_trace_events,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.querylog import QueryLog, QueryRecord
from repro.obs.telemetry import (
    ResourceAccount,
    TelemetryServer,
    render_prometheus,
    render_top,
)
from repro.obs.trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "Tracer",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "QueryLog",
    "QueryRecord",
    "AnalyzeReport",
    "OperatorStats",
    "JsonLinesSink",
    "export_jsonl",
    "render_summary",
    "chrome_trace_events",
    "export_chrome_trace",
    "stitch_trace_events",
    "export_stitched_trace",
    "ResourceAccount",
    "TelemetryServer",
    "render_prometheus",
    "render_top",
    "new_trace_id",
    "new_span_id",
    "enable",
    "disable",
    "enabled",
    "enable_metrics",
    "disable_metrics",
    "recording",
    "tracer",
    "metrics",
    "span",
    "add",
    "observe",
    "gauge",
    "reset",
]

#: The active tracer; None means span tracing is disabled.
_tracer: Optional[Tracer] = None
#: The process-wide registry (kept across enable/disable cycles).
_metrics = MetricsRegistry()
#: True while metrics-only recording is on (independent of the tracer).
_metrics_only = False
#: Derived: metrics calls record iff a tracer is active OR metrics-only.
_recording = False


def enable(sink: Optional[Any] = None, max_spans: int = 50_000) -> Tracer:
    """Turn observability on; returns the (new) active tracer.

    ``sink`` optionally streams spans as they close (see
    :class:`JsonLinesSink`).  Re-enabling replaces the active tracer but
    keeps the accumulated metrics.
    """
    global _tracer, _recording
    _tracer = Tracer(sink=sink, max_spans=max_spans)
    _recording = True
    return _tracer


def disable() -> None:
    """Turn span tracing off (closing the tracer's sink, if any).

    Metrics-only recording, if separately enabled, stays on.
    """
    global _tracer, _recording
    if _tracer is not None and _tracer.sink is not None:
        close = getattr(_tracer.sink, "close", None)
        if close is not None:
            close()
    _tracer = None
    _recording = _metrics_only


def enabled() -> bool:
    """True while a tracer is active."""
    return _tracer is not None


def enable_metrics() -> MetricsRegistry:
    """Record counters/histograms/gauges without span tracing.

    The query server turns this on when its telemetry plane is
    configured: ``/metrics`` needs live totals, but per-span tracing
    under production load would be pure overhead.  Returns the registry.
    """
    global _metrics_only, _recording
    _metrics_only = True
    _recording = True
    return _metrics


def disable_metrics() -> None:
    """Turn metrics-only recording off (an active tracer still records)."""
    global _metrics_only, _recording
    _metrics_only = False
    _recording = _tracer is not None


def recording() -> bool:
    """True while metric updates are being recorded (tracer or metrics-only).

    Call sites computing a non-trivial amount (``len``, a sum) before an
    :func:`add` should guard on this, mirroring ``span.recording``.
    """
    return _recording


def tracer() -> Optional[Tracer]:
    """The active tracer, or None when disabled."""
    return _tracer


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry (always available)."""
    return _metrics


def span(name: str, **attrs: Any) -> Union[Span, NullSpan]:
    """Open a span on the active tracer, or the no-op span when off."""
    active = _tracer
    if active is None:
        return NULL_SPAN
    return active.span(name, **attrs)


def add(name: str, amount: int = 1, **labels: Any) -> None:
    """Increment a counter — only while recording (tracer or metrics-only)."""
    if not _recording:
        return
    _metrics.counter(name, **labels).inc(amount)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record a histogram observation — only while recording."""
    if not _recording:
        return
    _metrics.histogram(name, **labels).observe(value)


def gauge(name: str, value: Any, **labels: Any) -> None:
    """Set a gauge — only while recording."""
    if not _recording:
        return
    _metrics.gauge(name, **labels).set(value)


def reset() -> None:
    """Disable all recording and wipe the registry (test isolation helper)."""
    disable_metrics()
    disable()
    _metrics.reset()
