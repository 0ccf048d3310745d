"""One counter record per operator, and the folds over one run's records.

Under Definition 2.2 a relation is a function ``dom(R) → N``, so what an
operator did comes down to two numbers: the bag cardinality it emitted
(``rows``, Σ E(x)) and its support size (``pairs``).  While a meter is
active on the thread (:func:`metered`),
:func:`~repro.engine.vector.operators.child_batches` — the one place a
physical operator's stream is pulled — adds every batch it hands over to
the operator's :class:`OperatorRecord`, and the reference evaluator adds
each node's result the same way.  Records live in the thread-local meter
keyed by operator identity; the operators hold no state, so a plan-cache
plan shared by executor threads stays safe.

Everything that reports per-operator counts is a fold over one run's
records: :class:`ProfileReport` (the CLI's ``.profile``), EXPLAIN
ANALYZE (:mod:`repro.obs.analyze`), the traced ``execute`` span, the
``operator.*`` metrics and the :class:`~repro.obs.telemetry.ResourceAccount`.

Usage::

    from repro.engine.profiler import execute_profiled
    result, profile = execute_profiled(expr, env)
    print(profile)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.algebra import AlgebraExpr
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import ResourceAccount, account
from repro.relation import Relation

__all__ = [
    "OperatorRecord",
    "ProfileReport",
    "active_meter",
    "execute_profiled",
    "metered",
    "metering_wanted",
    "plan_records",
    "profile_plan",
    "record_of",
]

#: One metered run's records, ``id(op) -> OperatorRecord``.
Meter = Dict[int, "OperatorRecord"]

#: Holds the calling thread's active meter (``_local.meter``).
_local = threading.local()


class OperatorRecord:
    """What one operator did during one metered run.

    ``batches``, ``pairs`` and ``rows`` count its output stream,
    ``seconds`` is the inclusive wall time spent producing it and
    ``invocations`` how often the stream was opened.  :func:`plan_records`
    fills in the plan position: ``label``, ``depth``, ``index`` and
    ``child_indexes``.
    """

    __slots__ = (
        "op", "op_class", "engine", "batches", "pairs", "rows", "seconds",
        "invocations", "label", "depth", "index", "child_indexes",
    )

    def __init__(
        self, op: Any, op_class: str, engine: Optional[str] = None
    ) -> None:
        #: The counted batch operator, or the evaluator's algebra node.
        self.op = op
        #: Operator class (``v-hash-join``, ``Unique``), the metrics label.
        self.op_class = op_class
        #: ``"reference"`` for evaluator nodes, None for batch operators.
        self.engine = engine
        self.batches = self.pairs = self.rows = self.invocations = 0
        self.seconds = 0.0
        self.label = op_class
        #: Plan pre-order position — the report's stable ordering key.
        self.depth = self.index = 0
        self.child_indexes: List[int] = []


def active_meter() -> Optional[Meter]:
    """The records of the run metered on this thread, or None."""
    return getattr(_local, "meter", None)


def record_of(
    meter: Meter, op: Any, op_class: str, engine: Optional[str] = None
) -> OperatorRecord:
    """``op``'s record in ``meter``, created on first use.

    A node object may sit at several plan positions, so writers add to
    its record and never overwrite it.
    """
    record = meter.get(id(op))
    if record is None:
        record = meter[id(op)] = OperatorRecord(op, op_class, engine)
    return record


def metering_wanted() -> bool:
    """True while :mod:`repro.obs` records or an account is active."""
    return obs.recording() or account() is not None


@contextmanager
def metered() -> Iterator[Meter]:
    """Meter one run on this thread and settle its records when it ends.

    Settling folds the records into the ``operator.*`` metrics (while
    :mod:`repro.obs` records) and into the thread's active resource
    account.  A run opened inside another keeps its own records.
    """
    outer = getattr(_local, "meter", None)
    meter: Meter = {}
    _local.meter = meter
    try:
        yield meter
    finally:
        _local.meter = outer
        if obs.recording():
            emit_metrics(meter.values(), obs.metrics())
        acct = account()
        if acct is not None:
            credit_account(acct, meter)


def emit_metrics(
    records: Iterable[OperatorRecord], registry: MetricsRegistry
) -> None:
    """Fold records into the ``operator.rows`` / ``operator.pairs``
    counters and the ``operator.seconds`` histogram, labelled by
    operator class (plus ``engine=reference`` for evaluator nodes, which
    are not timed)."""
    for record in records:
        labels = {"op": record.op_class}
        if record.engine is not None:
            labels["engine"] = record.engine
        registry.counter("operator.rows", **labels).inc(record.rows)
        registry.counter("operator.pairs", **labels).inc(record.pairs)
        if record.engine is None:
            registry.histogram("operator.seconds", **labels).observe(
                record.seconds
            )


def credit_account(acct: ResourceAccount, meter: Meter) -> None:
    """Fold one run's records into a resource account.

    Scans give ``rows_scanned``; δ gives ``dedup_rows_out`` and, from
    its operand's record, ``dedup_rows_in``; every batch handed over
    counts as vectorized.
    """
    for record in meter.values():
        acct.batches_vectorized += record.batches
        if record.op_class in ("v-scan", "RelationRef"):
            acct.rows_scanned += record.rows
        elif record.op_class in ("v-distinct", "Unique"):
            (operand,) = record.op.children()
            source = meter.get(id(operand))
            if source is not None:
                # A shared node's record sums all of its evaluations,
                # which give equal results: δ's input is one of them.
                per_opening = source.rows // source.invocations
                acct.dedup_rows_in += per_opening * record.invocations
            acct.dedup_rows_out += record.rows


def plan_records(plan: Any, meter: Meter) -> List[OperatorRecord]:
    """Every plan position's record, in pre-order (root first).

    An operator whose stream never opened (a hash join's probe side
    when the build side is empty) gets a zero record, so it is still
    listed, with 0 invocations.
    """
    out: List[OperatorRecord] = []

    def visit(op: Any, depth: int) -> int:
        record = record_of(meter, op, op.op_class())
        record.label = op.label()
        record.depth = depth
        record.index = len(out)
        out.append(record)
        record.child_indexes = [
            visit(child, depth + 1) for child in op.children()
        ]
        return record.index

    visit(plan, 0)
    return out


class ProfileReport:
    """The per-operator records of one execution.

    Records are kept in *plan pre-order* (root first, each operator
    before its subtree) regardless of the order the caller passes them
    in — the rendering, ``by_label``, and metrics emission are all
    deterministic for a given plan shape.
    """

    def __init__(self, profiles: List[OperatorRecord]) -> None:
        self.profiles = sorted(profiles, key=lambda profile: profile.index)

    def total_pairs(self) -> int:
        return sum(profile.pairs for profile in self.profiles)

    def total_rows(self) -> int:
        return sum(profile.rows for profile in self.profiles)

    @property
    def total_seconds(self) -> float:
        """Wall time of the whole execution (the root's inclusive time)."""
        if not self.profiles:
            return 0.0
        return self.profiles[0].seconds

    def exclusive_seconds(self, profile: OperatorRecord) -> float:
        """Time spent in ``profile`` itself, excluding its children.

        Inclusive minus the children's inclusive time, clamped at 0 —
        on very fast children, timer granularity can make the naive
        subtraction negative, which is noise, not anti-time.
        """
        by_index = {entry.index: entry for entry in self.profiles}
        child_time = sum(
            by_index[index].seconds
            for index in profile.child_indexes
            if index in by_index
        )
        return max(0.0, profile.seconds - child_time)

    def by_label(self) -> Dict[str, OperatorRecord]:
        """First profile per label, in plan order (handy in tests)."""
        table: Dict[str, OperatorRecord] = {}
        for profile in self.profiles:
            table.setdefault(profile.label, profile)
        return table

    def emit_metrics(self, registry: MetricsRegistry) -> None:
        """Fold the per-operator counts into a metrics registry.

        The same fold a metered run settles into :func:`repro.obs.metrics`
        (``operator.rows`` / ``operator.pairs`` / ``operator.seconds``).
        """
        emit_metrics(self.profiles, registry)

    def operator_records(self) -> List[Dict[str, object]]:
        """JSON-friendly per-operator rows (trace span attributes)."""
        return [
            {
                "label": profile.label,
                "op": profile.op_class,
                "depth": profile.depth,
                "pairs": profile.pairs,
                "rows": profile.rows,
                "seconds": profile.seconds,
                "invocations": profile.invocations,
            }
            for profile in self.profiles
        ]

    def __str__(self) -> str:
        lines = [
            f"{'operator':<42} {'pairs':>10} {'rows':>10} {'ms':>9} {'excl ms':>9}",
            "-" * 85,
        ]
        for profile in self.profiles:
            indent = "  " * profile.depth
            label = f"{indent}{profile.label}"
            lines.append(
                f"{label:<42} {profile.pairs:>10} "
                f"{profile.rows:>10} {profile.seconds * 1000:>9.2f} "
                f"{self.exclusive_seconds(profile) * 1000:>9.2f}"
            )
        return "\n".join(lines)


def profile_plan(
    physical: Any,
    env: Dict[str, Relation],
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Relation, ProfileReport]:
    """Run a physical plan under a meter; return (result, profile).

    With ``registry``, the per-operator counts are also folded into the
    given metrics registry (see :meth:`ProfileReport.emit_metrics`).
    """
    from repro.engine.vector import collect_batches

    with metered() as meter:
        result = collect_batches(physical, env)
    report = ProfileReport(plan_records(physical, meter))
    if registry is not None:
        report.emit_metrics(registry)
    return result, report


def execute_profiled(
    expr: AlgebraExpr,
    env: Dict[str, Relation],
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Relation, ProfileReport]:
    """Plan ``expr`` as given (no optimizer) and :func:`profile_plan` it."""
    from repro.cache.plan import build_plan

    return profile_plan(build_plan(expr).physical, env, registry)
