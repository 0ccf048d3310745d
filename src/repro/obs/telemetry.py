"""Live telemetry: per-query resource accounts and an HTTP admin plane.

PR 9's query server is only observable post-hoc — JSONL traces, the slow
query log, ``.metrics`` inside a local session.  This module makes it
observable *live*, with zero dependencies beyond the standard library:

* :class:`ResourceAccount` — a per-query tally of the quantities the
  paper makes first-class: rows scanned vs. emitted, duplicate
  elimination input/output multiplicities (the δ operator of Section 2
  is the one place bag cardinality legitimately shrinks, so its in/out
  ratio *is* the query's duplicate factor), cache hits/misses, and
  vectorized vs. fallback batch counts.  The account rides through
  :class:`repro.language.context.ExecutionContext` via a thread-local
  (executor threads each run one statement at a time, so activation
  nests correctly); each run's per-operator records
  (:mod:`repro.engine.profiler`) are folded into it when the run ends.
  It gets attached to :class:`repro.obs.querylog` records and
  aggregates into per-connection gauges.

* :func:`render_prometheus` — the Prometheus text exposition (format
  0.0.4) renderer over :meth:`MetricsRegistry.snapshot` records, the
  registry's one stable schema.  Histogram buckets are derived from the
  reservoir percentiles (p50/p95/p99/max), which is exactly the
  information the bounded reservoir retains.

* :class:`TelemetryServer` — a hand-rolled HTTP/1.1 listener on the
  query server's own event loop serving ``/metrics`` (Prometheus),
  ``/healthz`` + ``/readyz`` (drain state, admission saturation,
  write-lock hold), and ``/slowlog`` + ``/stats`` (JSON).

* :func:`render_top` — the text dashboard behind the remote shell's
  ``.top``, rendered from the ``stats`` wire command's payload.

Everything here is ~zero-cost when idle: the HTTP listener only works
when a scraper connects, and a run is metered only while an account is
active or ``repro.obs`` records.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import threading
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ResourceAccount",
    "account",
    "activate",
    "render_prometheus",
    "TelemetryServer",
    "render_top",
]


# ---------------------------------------------------------------------------
# Per-query resource accounting
# ---------------------------------------------------------------------------


class ResourceAccount:
    """What one query (or one connection's lifetime) consumed.

    All fields are plain ints; :meth:`merge` folds one account into
    another, which is how per-request accounts roll up into the
    session-lifetime account behind the ``stats`` command.

    The duplicate-elimination fields deserve a note: ``dedup_rows_in``
    counts total multiplicity entering a δ (Unique/DISTINCT) operator and
    ``dedup_rows_out`` the distinct rows leaving it, so
    :attr:`dedup_ratio` is the measured duplicate factor — the quantity
    that separates bag from set semantics in the paper's cost analysis.
    """

    __slots__ = (
        "rows_scanned",
        "rows_emitted",
        "pairs_emitted",
        "dedup_rows_in",
        "dedup_rows_out",
        "cache_hits",
        "cache_misses",
        "batches_vectorized",
        "batches_fallback",
        "statements",
        "evaluations",
    )

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.rows_emitted = 0
        self.pairs_emitted = 0
        self.dedup_rows_in = 0
        self.dedup_rows_out = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches_vectorized = 0
        self.batches_fallback = 0
        self.statements = 0
        self.evaluations = 0

    @property
    def dedup_ratio(self) -> Optional[float]:
        """Input/output multiplicity ratio across δ operators (≥ 1.0).

        None until a duplicate elimination has run.  A ratio of 1.0
        means the inputs were already duplicate-free (δ was a no-op, cf.
        the idempotence law δ∘δ = δ); 4.0 means each surviving row stood
        for four duplicates.
        """
        if not self.dedup_rows_out:
            return None
        return self.dedup_rows_in / self.dedup_rows_out

    def merge(self, other: "ResourceAccount") -> "ResourceAccount":
        """Fold ``other``'s tallies into this account; returns self."""
        for field in self.__slots__:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict: every counter, plus the derived ratio."""
        record: Dict[str, Any] = {
            field: getattr(self, field) for field in self.__slots__
        }
        record["dedup_ratio"] = self.dedup_ratio
        return record

    def __repr__(self) -> str:
        busy = {
            field: value
            for field in self.__slots__
            if (value := getattr(self, field))
        }
        return f"<ResourceAccount {busy or 'idle'}>"


#: The thread's active account, if a query is being metered right now.
_local = threading.local()


def account() -> Optional[ResourceAccount]:
    """The calling thread's active account, or None.

    One thread-local attribute lookup; a run checks it when it starts
    (is it metered?) and when it ends (where do its records go?).
    """
    return getattr(_local, "account", None)


@contextmanager
def activate(acct: ResourceAccount) -> Iterator[ResourceAccount]:
    """Make ``acct`` the calling thread's active account for the block.

    Activations nest (an inner activation shadows, then restores, the
    outer one) so a metered statement that internally evaluates
    sub-queries keeps its tallies in one place.
    """
    previous = getattr(_local, "account", None)
    _local.account = acct
    try:
        yield acct
    finally:
        _local.account = previous


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_CLEAN = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_CLEAN = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, kind: str, namespace: str) -> str:
    """``server.requests`` → ``repro_server_requests_total`` etc."""
    flat = _NAME_CLEAN.sub("_", name)
    full = f"{namespace}_{flat}" if namespace else flat
    if kind == "counter" and not full.endswith("_total"):
        full += "_total"
    return full


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _label_body(labels: Dict[str, Any], extra: str = "") -> str:
    parts = [
        f'{_LABEL_CLEAN.sub("_", key)}="{_escape_label(value)}"'
        for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _number(value: Any) -> Optional[str]:
    """Prometheus sample value, or None for non-numeric gauges."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return None


def _histogram_buckets(
    record: Dict[str, Any],
) -> List[Tuple[str, int]]:
    """Synthetic cumulative buckets from the reservoir percentiles.

    The bounded reservoir retains percentiles, not a fixed bucket grid,
    so ``/metrics`` derives buckets from what is actually known: the
    p50/p95/p99/max points become ``le`` boundaries whose cumulative
    counts are the corresponding fractions of the total count.  Quantile
    queries over these buckets reproduce the reservoir's answers, which
    is the honest contract.
    """
    count = record["count"]
    buckets: List[Tuple[str, int]] = []
    seen: Dict[str, int] = {}
    for quantile, key in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
        value = record.get(key)
        if value is None:
            continue
        boundary = _number(float(value)) or "0"
        cumulative = math.ceil(count * quantile)
        # Equal percentile values collapse to one bucket (Prometheus
        # forbids duplicate series); keep the larger cumulative count.
        seen[boundary] = max(seen.get(boundary, 0), cumulative)
    if record.get("max") is not None:
        boundary = _number(float(record["max"])) or "0"
        seen[boundary] = count
    buckets = sorted(seen.items(), key=lambda item: float(item[0]))
    # Enforce monotone cumulative counts (percentile ties could invert).
    running = 0
    fixed: List[Tuple[str, int]] = []
    for boundary, cumulative in buckets:
        running = max(running, cumulative)
        fixed.append((boundary, running))
    fixed.append(("+Inf", count))
    return fixed


def render_prometheus(
    snapshot: List[Dict[str, Any]],
    namespace: str = "repro",
) -> str:
    """Prometheus text exposition (0.0.4) from snapshot records.

    ``snapshot`` is the stable record list documented on
    :meth:`MetricsRegistry.snapshot` — the same payload the ``stats``
    wire command ships and ``.metrics`` renders, so all three surfaces
    agree by construction.  Non-numeric gauges (e.g. a backend name) are
    skipped: Prometheus samples are float-valued.
    """
    groups: Dict[str, List[Dict[str, Any]]] = {}
    kinds: Dict[str, str] = {}
    for record in snapshot:
        name = _metric_name(record["name"], record["kind"], namespace)
        groups.setdefault(name, []).append(record)
        kinds[name] = record["kind"]
    lines: List[str] = []
    for name in sorted(groups):
        kind = kinds[name]
        prom_type = {"counter": "counter", "gauge": "gauge"}.get(
            kind, "histogram"
        )
        first = groups[name][0]
        lines.append(f"# HELP {name} repro metric {first['name']!r}")
        lines.append(f"# TYPE {name} {prom_type}")
        for record in groups[name]:
            labels = record.get("labels", {})
            if kind == "histogram":
                for boundary, cumulative in _histogram_buckets(record):
                    body = _label_body(labels, f'le="{boundary}"')
                    lines.append(f"{name}_bucket{body} {cumulative}")
                body = _label_body(labels)
                lines.append(f"{name}_sum{body} {_number(float(record['sum']))}")
                lines.append(f"{name}_count{body} {record['count']}")
            else:
                value = _number(record["value"])
                if value is None:
                    continue  # non-numeric gauge; not representable
                lines.append(f"{name}{_label_body(labels)} {value}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# The HTTP admin plane
# ---------------------------------------------------------------------------

_REASONS = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
            503: "Service Unavailable"}

#: Content types by endpoint family.
_PROM_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_TYPE = "application/json; charset=utf-8"


class TelemetryServer:
    """The admin-plane HTTP listener (same event loop as the server).

    Hand-rolled HTTP/1.1 over ``asyncio`` streams — no frameworks, no
    threads, ``Connection: close`` per request (scrapes are cheap and
    rare next to query traffic; keep-alive bookkeeping would be the
    complex part of an HTTP server and buys nothing here).

    The constructor takes *providers*, not a server object, so this
    module stays import-independent of :mod:`repro.server`:

    * ``health`` — callable returning the health dict (must contain
      ``draining`` and ``admission_saturated`` booleans; everything else
      is passed through to the JSON body);
    * ``stats`` — callable returning the ``stats`` command's payload;
    * ``slowlog`` — callable returning a list of query-log records;
    * ``registry`` — the metrics registry to render (defaults to the
      process-wide ``repro.obs`` registry).

    Routes: ``/metrics`` (Prometheus text), ``/healthz`` (200, or 503
    while draining), ``/readyz`` (503 while draining *or* the admission
    semaphore is saturated), ``/slowlog`` and ``/stats`` (JSON).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        health: Optional[Callable[[], Dict[str, Any]]] = None,
        stats: Optional[Callable[[], Dict[str, Any]]] = None,
        slowlog: Optional[Callable[[], List[Dict[str, Any]]]] = None,
        registry: Optional[MetricsRegistry] = None,
        namespace: str = "repro",
    ) -> None:
        self.host = host
        self.port = port
        self.namespace = namespace
        self._health = health or (lambda: {"status": "ok", "draining": False})
        self._stats = stats or (lambda: {})
        self._slowlog = slowlog or (lambda: [])
        self._registry = registry
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "TelemetryServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def registry(self) -> MetricsRegistry:
        if self._registry is not None:
            return self._registry
        from repro import obs  # runtime import; avoids a package cycle

        return obs.metrics()

    # -- request handling -----------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), 10.0)
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) < 2:
                return
            method, target = parts[0], parts[1]
            # Drain headers; GET bodies are not a thing we honor.
            while True:
                header = await asyncio.wait_for(reader.readline(), 10.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            status, content_type, body = self._route(method, target)
            if method == "HEAD":
                body = b""
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer went away
                pass

    def _route(self, method: str, target: str) -> Tuple[int, str, bytes]:
        path = target.split("?", 1)[0]
        if method not in ("GET", "HEAD"):
            return 405, _JSON_TYPE, b'{"error": "method not allowed"}'
        from repro import obs

        obs.add("telemetry.scrapes", endpoint=path)
        if path == "/metrics":
            text = render_prometheus(
                self.registry().snapshot(), self.namespace
            )
            return 200, _PROM_TYPE, text.encode("utf-8")
        if path == "/healthz":
            health = self._health()
            status = 503 if health.get("draining") else 200
            return 200 if status == 200 else 503, _JSON_TYPE, _json(health)
        if path == "/readyz":
            health = self._health()
            ready = not (
                health.get("draining") or health.get("admission_saturated")
            )
            payload = dict(health, ready=ready)
            return (200 if ready else 503), _JSON_TYPE, _json(payload)
        if path == "/slowlog":
            return 200, _JSON_TYPE, _json({"slowlog": self._slowlog()})
        if path == "/stats":
            return 200, _JSON_TYPE, _json(self._stats())
        return 404, _JSON_TYPE, _json(
            {"error": "not found",
             "endpoints": ["/metrics", "/healthz", "/readyz",
                           "/slowlog", "/stats"]}
        )

    def __repr__(self) -> str:
        state = "listening" if self._server is not None else "stopped"
        return f"<TelemetryServer {self.host}:{self.port} {state}>"


def _json(payload: Any) -> bytes:
    return json.dumps(payload, default=str).encode("utf-8")


# ---------------------------------------------------------------------------
# The .top dashboard
# ---------------------------------------------------------------------------


def _ratio_cell(resources: Dict[str, Any]) -> str:
    ratio = resources.get("dedup_ratio")
    return f"{ratio:.2f}" if ratio else "-"


def render_top(stats: Dict[str, Any]) -> str:
    """The remote shell's ``.top`` screen from a ``stats`` payload.

    Pure text-in/text-out so it is unit-testable without a socket; the
    shell just prints the result of one ``stats`` round trip.
    """
    server = stats.get("server", {})
    lines: List[str] = []
    name = server.get("name", "repro")
    uptime = server.get("uptime_seconds")
    uptime_text = f"{uptime:.1f}s" if uptime is not None else "?"
    lines.append(
        f"repro server {name!r} — t={server.get('logical_time', '?')}, "
        f"uptime {uptime_text}, "
        f"draining: {'yes' if server.get('draining') else 'no'}"
    )
    write_lock = server.get("write_lock", {})
    held = write_lock.get("held")
    if held:
        lock_text = f"held {write_lock.get('held_seconds', 0.0) * 1000:.1f}ms"
    else:
        lock_text = "free"
    lines.append(
        f"inflight {server.get('inflight', 0)}/"
        f"{server.get('max_inflight', '?')} · "
        f"connections {server.get('connections', 0)}/"
        f"{server.get('max_connections', '?')} · "
        f"write lock {lock_text}"
    )
    totals = stats.get("totals", {})
    if totals:
        lines.append(
            " · ".join(f"{key} {value}" for key, value in sorted(totals.items()))
        )
    connections = stats.get("connections", [])
    lines.append("")
    header = (
        f"{'client':>8} {'txn':>4} {'reqs':>7} {'stmts':>7} "
        f"{'scanned':>9} {'emitted':>9} {'dedup in/out':>14} "
        f"{'cache h/m':>10} {'vec/fb':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for conn in connections:
        resources = conn.get("resources", {})
        lines.append(
            f"{conn.get('client', '?'):>8} "
            f"{'*' if conn.get('in_transaction') else '-':>4} "
            f"{conn.get('requests', 0):>7} "
            f"{conn.get('statements', 0):>7} "
            f"{resources.get('rows_scanned', 0):>9} "
            f"{resources.get('rows_emitted', 0):>9} "
            f"{resources.get('dedup_rows_in', 0):>6}/"
            f"{resources.get('dedup_rows_out', 0):<7} "
            f"{resources.get('cache_hits', 0):>4}/"
            f"{resources.get('cache_misses', 0):<5} "
            f"{resources.get('batches_vectorized', 0):>3}/"
            f"{resources.get('batches_fallback', 0):<4}"
        )
    if not connections:
        lines.append("(no connections)")
    return "\n".join(lines)
