"""A metrics registry: counters, gauges, and histograms with labels.

The registry is the aggregate side of observability — where the tracer
answers "what did *this* statement do", the registry accumulates totals
across a whole session: queries run, rows and pairs emitted per operator
class, optimizer rule firings, transaction commits/aborts.

Multiset semantics makes these counters unusually informative: π and ⊎
preserve bag cardinality exactly (Theorem 3.2 territory), so the
``operator.rows`` counters double as correctness cross-checks, not just
performance telemetry.

Metrics are keyed by ``(name, labels)`` where labels are keyword
arguments (``registry.counter("operator.rows", op="hash-join")``); the
same call always returns the same instrument, so call sites need no
caching.

**Thread safety.**  The registry and every instrument it hands out share
one re-entrant lock: instrument lookup/creation, ``inc``/``set``/
``observe``, and ``snapshot`` are all serialized through it.  The query
server increments counters from executor threads while the telemetry
listener snapshots from the event loop, so lost updates and half-built
instruments are not hypothetical here.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: A metric key: (name, sorted (label, value) pairs).
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class _Instrument:
    """Common identity for every metric kind.

    ``lock`` is shared with the owning registry so updates from executor
    threads serialize against registry snapshots; a standalone instrument
    (constructed directly in tests) gets a private lock.
    """

    __slots__ = ("name", "labels", "_lock")

    kind = "instrument"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        lock: Optional[threading.RLock] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock if lock is not None else threading.RLock()

    def label_text(self) -> str:
        return ", ".join(f"{key}={value}" for key, value in self.labels)

    def __repr__(self) -> str:
        inner = f"{{{self.label_text()}}}" if self.labels else ""
        return f"<{type(self).__name__} {self.name}{inner} {self.describe()}>"

    def describe(self) -> str:  # pragma: no cover - overridden
        return ""


class Counter(_Instrument):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        lock: Optional[threading.RLock] = None,
    ) -> None:
        super().__init__(name, labels, lock)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def describe(self) -> str:
        return str(self.value)


class Gauge(_Instrument):
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        lock: Optional[threading.RLock] = None,
    ) -> None:
        super().__init__(name, labels, lock)
        self.value: Any = None

    def set(self, value: Any) -> None:
        with self._lock:
            self.value = value

    def describe(self) -> str:
        return str(self.value)


class Histogram(_Instrument):
    """Streaming summary of observations with approximate percentiles.

    Deliberately bucket-free: count/sum/min/max are exact and O(1), and
    p50/p95/p99 come from a bounded reservoir of retained observations
    (capped at :data:`Histogram.SAMPLE_CAP`).  When the cap is reached
    the reservoir is decimated — every second sample kept — so memory
    stays fixed while the retained samples still spread over the whole
    observation stream.  Good enough for the tail-latency questions the
    CLI's ``.metrics`` answers; not a substitute for a real sketch.
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_stride", "_skip")

    kind = "histogram"

    #: Maximum retained observations per histogram.
    SAMPLE_CAP = 2048

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        lock: Optional[threading.RLock] = None,
    ) -> None:
        super().__init__(name, labels, lock)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Retained observations (unsorted; sorted on demand).
        self._samples: List[float] = []
        #: Keep every ``_stride``-th observation (doubles on decimation).
        self._stride = 1
        #: Observations to skip before the next retention.
        self._skip = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if self._skip:
                self._skip -= 1
                return
            self._skip = self._stride - 1
            self._samples.append(value)
            if len(self._samples) >= self.SAMPLE_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the retained samples.

        ``q`` in [0, 100].  Returns None before any observation.  Exact
        until the sample cap is first hit, approximate after.
        """
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return None
        if q <= 0:
            return ordered[0]
        if q >= 100:
            return ordered[-1]
        rank = max(1, -(-len(ordered) * q // 100))  # nearest rank: ceil(n*q/100)
        return ordered[int(rank) - 1]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99)

    def describe(self) -> str:
        if not self.count:
            return "empty"
        return (
            f"n={self.count} p50={self.p50:.4g} p95={self.p95:.4g} "
            f"p99={self.p99:.4g} max={self.max:.4g}"
        )


class MetricsRegistry:
    """All instruments of one observability scope, keyed by name+labels.

    One re-entrant lock guards the instrument table and is shared with
    every instrument, so creation, updates, and snapshots serialize —
    see the module docstring for why the server needs this.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: Dict[MetricKey, _Instrument] = {}

    # -- instrument access ----------------------------------------------

    def _get(self, factory: type, name: str, labels: Dict[str, Any]) -> Any:
        key: MetricKey = (
            name,
            tuple(sorted((k, str(v)) for k, v in labels.items())),
        )
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory(name, key[1], self._lock)
                self._instruments[key] = instrument
            elif not isinstance(instrument, factory):
                raise TypeError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- inspection -----------------------------------------------------

    def __iter__(self) -> Iterator[_Instrument]:
        """Instruments sorted by (name, labels) — stable render order."""
        with self._lock:
            items = sorted(self._instruments.items())
        return iter(instrument for _key, instrument in items)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def value(self, name: str, **labels: Any) -> Any:
        """The current value of a counter/gauge, or None if absent."""
        key: MetricKey = (
            name,
            tuple(sorted((k, str(v)) for k, v in labels.items())),
        )
        with self._lock:
            instrument = self._instruments.get(key)
            return getattr(instrument, "value", None)

    def total(self, name: str) -> int:
        """Sum of every counter with the given name across all labels."""
        with self._lock:
            return sum(
                instrument.value
                for instrument in self._instruments.values()
                if instrument.name == name and isinstance(instrument, Counter)
            )

    def prefix_totals(self, prefix: str) -> Dict[str, int]:
        """Per-name counter totals (summed across labels) under a prefix.

        ``prefix_totals("cache.")`` returns e.g. ``{"cache.hits": 12,
        "cache.misses": 3, ...}`` — how the CLI and the benches read the
        cache hit/miss/eviction counters back out without enumerating
        label combinations.
        """
        totals: Dict[str, int] = {}
        with self._lock:
            for instrument in self._instruments.values():
                if isinstance(
                    instrument, Counter
                ) and instrument.name.startswith(prefix):
                    totals[instrument.name] = (
                        totals.get(instrument.name, 0) + instrument.value
                    )
        return dict(sorted(totals.items()))

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-friendly records, one per instrument (sorted).

        **This schema is stable** — it is the single wire format shared
        by the JSONL exporter, the Prometheus ``/metrics`` renderer, the
        server's ``stats`` command, and the CLI's ``.metrics`` table
        (:meth:`render` is derived from these records), so the surfaces
        cannot drift.  Every record carries:

        * ``event`` — always ``"metric"`` (the JSONL discriminator);
        * ``kind`` — ``"counter"`` | ``"gauge"`` | ``"histogram"``;
        * ``name`` — the dotted metric name, e.g. ``"server.requests"``;
        * ``labels`` — ``{str: str}``, present only when non-empty;

        plus, for counters and gauges, ``value`` (monotone int for
        counters; arbitrary JSON-friendly value for gauges), and for
        histograms the summary keys ``count``, ``sum``, ``min``, ``max``,
        ``mean``, ``p50``, ``p95``, ``p99`` (percentiles from the
        bounded reservoir; None while empty).  Records are sorted by
        ``(name, labels)``.  New keys may be added; existing keys keep
        their meaning.
        """
        records: List[Dict[str, Any]] = []
        with self._lock:
            for instrument in self:
                record: Dict[str, Any] = {
                    "event": "metric",
                    "kind": instrument.kind,
                    "name": instrument.name,
                }
                if instrument.labels:
                    record["labels"] = dict(instrument.labels)
                if isinstance(instrument, Histogram):
                    record.update(
                        count=instrument.count,
                        sum=instrument.total,
                        min=instrument.min,
                        max=instrument.max,
                        mean=instrument.mean,
                        p50=instrument.p50,
                        p95=instrument.p95,
                        p99=instrument.p99,
                    )
                else:
                    record["value"] = instrument.value
                records.append(record)
        return records

    @staticmethod
    def describe_record(record: Dict[str, Any]) -> str:
        """One snapshot record's value column, as ``render`` displays it."""
        if record["kind"] == "histogram":
            if not record["count"]:
                return "empty"
            return (
                f"n={record['count']} p50={record['p50']:.4g} "
                f"p95={record['p95']:.4g} p99={record['p99']:.4g} "
                f"max={record['max']:.4g}"
            )
        return str(record["value"])

    def render(self) -> str:
        """Plain-text summary table, derived from :meth:`snapshot`."""
        records = self.snapshot()
        if not records:
            return "(no metrics recorded)"
        lines = [f"{'metric':<46} {'value':>24}", "-" * 71]
        for record in records:
            label = record["name"]
            labels = record.get("labels")
            if labels:
                inner = ", ".join(f"{k}={v}" for k, v in labels.items())
                label += f"{{{inner}}}"
            lines.append(f"{label:<46} {self.describe_record(record):>24}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Forget every instrument (the registry object stays usable)."""
        with self._lock:
            self._instruments.clear()
