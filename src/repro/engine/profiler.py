"""Operator-level execution profiling (EXPLAIN ANALYZE-style).

Wraps every operator of a physical plan with counters and timers, runs
the plan, and reports per-operator rows (bag cardinality — multiplicity
counted — and distinct stream pairs) plus inclusive and exclusive time.
This is how the examples and benches attribute cost to individual
operators, e.g. showing that the unpushed plan's product emits 450k
pairs while the pushed plan's join emits a few hundred.

The profiler and the observability layer (:mod:`repro.obs`) share one
data model: :func:`profile_plan` instruments a plan, and
:meth:`ProfileReport.emit_metrics` folds the per-operator counts into a
metrics registry — so EXPLAIN ANALYZE output and the session-wide
``operator.*`` counters are two views of the same numbers.

Usage::

    from repro.engine.profiler import execute_profiled
    result, profile = execute_profiled(expr, env)
    print(profile)
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.algebra import AlgebraExpr
from repro.engine.vector.batch import ColumnBatch
from repro.engine.vector.operators import VectorOp, collect_batches
from repro.obs.metrics import MetricsRegistry
from repro.relation import Relation

__all__ = [
    "OperatorProfile",
    "ProfileReport",
    "ProfilingOp",
    "execute_profiled",
    "profile_plan",
]


class OperatorProfile:
    """Counters for one operator in the plan."""

    __slots__ = (
        "label", "op_class", "depth", "index", "child_indexes",
        "pairs_out", "rows_out", "seconds", "invocations",
    )

    def __init__(
        self, label: str, op_class: str, depth: int, index: int
    ) -> None:
        self.label = label
        #: Operator class (e.g. ``hash-join``), the metrics label.
        self.op_class = op_class
        self.depth = depth
        #: Plan pre-order position — the report's stable ordering key.
        self.index = index
        #: Indexes of this operator's direct children in the report.
        self.child_indexes: List[int] = []
        #: (tuple, count) pairs emitted (stream length).
        self.pairs_out = 0
        #: bag cardinality emitted (sum of counts).
        self.rows_out = 0
        #: inclusive wall time spent producing this operator's stream.
        self.seconds = 0.0
        #: times the operator's stream was opened (re-executed subtrees).
        self.invocations = 0


class ProfilingOp(VectorOp):
    """A transparent wrapper that counts and times a wrapped operator.

    It wraps ``batches()``, so a profiled plan runs the same batch code
    path as an unprofiled one; only the handover between operators is
    timed and counted.
    """

    __slots__ = ("inner", "profile", "_children")

    def __init__(
        self, inner: VectorOp, profile: OperatorProfile, children: Tuple["ProfilingOp", ...]
    ) -> None:
        super().__init__(inner.schema, inner.batch_size)
        self.inner = inner
        self.profile = profile
        self._children = children

    @property
    def consolidated(self) -> bool:
        return self.inner.consolidated

    def children(self) -> Tuple[VectorOp, ...]:
        return self._children

    def batches(self, env: Dict[str, Relation]) -> Iterator[ColumnBatch]:
        profile = self.profile
        profile.invocations += 1
        clock = time.perf_counter
        start = clock()
        # The inner operator's children were rebound to their profiled
        # versions at wrap time; here we just instrument the stream.
        for batch in self.inner.batches(env):
            profile.seconds += clock() - start
            profile.pairs_out += len(batch.counts)
            profile.rows_out += sum(batch.counts)
            yield batch
            start = clock()
        profile.seconds += clock() - start

    def label(self) -> str:
        return self.inner.label()


class ProfileReport:
    """All operator profiles of one execution.

    Profiles are kept in *plan pre-order* (root first, each operator
    before its subtree) regardless of the order the caller collected
    them in — the rendering, ``by_label``, and metrics emission are all
    deterministic for a given plan shape.
    """

    def __init__(self, profiles: List[OperatorProfile]) -> None:
        self.profiles = sorted(profiles, key=lambda profile: profile.index)

    def total_pairs(self) -> int:
        return sum(profile.pairs_out for profile in self.profiles)

    def total_rows(self) -> int:
        return sum(profile.rows_out for profile in self.profiles)

    @property
    def total_seconds(self) -> float:
        """Wall time of the whole execution (the root's inclusive time)."""
        if not self.profiles:
            return 0.0
        return self.profiles[0].seconds

    def exclusive_seconds(self, profile: OperatorProfile) -> float:
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

    def by_label(self) -> Dict[str, OperatorProfile]:
        """First profile per label, in plan order (handy in tests)."""
        table: Dict[str, OperatorProfile] = {}
        for profile in self.profiles:
            table.setdefault(profile.label, profile)
        return table

    def emit_metrics(self, registry: MetricsRegistry) -> None:
        """Fold the per-operator counts into a metrics registry.

        Increments ``operator.rows`` / ``operator.pairs`` counters
        labelled by operator class and observes per-operator wall time
        in the ``operator.seconds`` histogram — the shared data model
        between EXPLAIN ANALYZE and the metrics layer.
        """
        for profile in self.profiles:
            registry.counter("operator.rows", op=profile.op_class).inc(
                profile.rows_out
            )
            registry.counter("operator.pairs", op=profile.op_class).inc(
                profile.pairs_out
            )
            registry.histogram("operator.seconds", op=profile.op_class).observe(
                profile.seconds
            )

    def operator_records(self) -> List[Dict[str, object]]:
        """JSON-friendly per-operator rows (trace span attributes)."""
        return [
            {
                "label": profile.label,
                "op": profile.op_class,
                "depth": profile.depth,
                "pairs": profile.pairs_out,
                "rows": profile.rows_out,
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
                f"{label:<42} {profile.pairs_out:>10} "
                f"{profile.rows_out:>10} {profile.seconds * 1000:>9.2f} "
                f"{self.exclusive_seconds(profile) * 1000:>9.2f}"
            )
        return "\n".join(lines)


def _wrap(op: VectorOp, depth: int, sink: List[OperatorProfile]) -> ProfilingOp:
    """Recursively wrap a plan; children are wrapped and re-attached."""
    profile = OperatorProfile(op.label(), op.op_class(), depth, len(sink))
    sink.append(profile)
    wrapped_children = tuple(
        _wrap(child, depth + 1, sink) for child in op.children()
    )
    profile.child_indexes = [
        child.profile.index for child in wrapped_children
    ]
    if wrapped_children:
        # Rebuild the inner operator so it pulls from the wrapped children.
        op = _rebuild_with_children(op, wrapped_children)
    return ProfilingOp(op, profile, wrapped_children)


def _rebuild_with_children(
    op: VectorOp, children: Tuple[VectorOp, ...]
) -> VectorOp:
    """A shallow copy of ``op`` with its child slots pointing at ``children``.

    Physical operators keep children in conventional slot names; this
    walks the slots rather than requiring every operator to implement a
    with_children protocol.
    """
    import copy

    clone = copy.copy(op)
    child_iter = iter(children)
    for slot in ("child", "left", "right"):
        if hasattr(clone, slot):
            current = getattr(clone, slot)
            if isinstance(current, VectorOp):
                setattr(clone, slot, next(child_iter))
    return clone


def profile_plan(
    physical: VectorOp,
) -> Tuple[ProfilingOp, List[OperatorProfile]]:
    """Instrument an already-planned operator tree.

    Returns the wrapped plan and its (pre-order) profile list; running
    the wrapped plan fills the profiles in.  Shared by
    :func:`execute_profiled` and the tracing path in
    :func:`repro.engine.planner.execute`.
    """
    profiles: List[OperatorProfile] = []
    instrumented = _wrap(physical, 0, profiles)
    return instrumented, profiles


def execute_profiled(
    expr: AlgebraExpr,
    env: Dict[str, Relation],
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Relation, ProfileReport]:
    """Plan, instrument, and run ``expr``; return (result, profile).

    With ``registry``, the per-operator counts are also folded into the
    given metrics registry (see :meth:`ProfileReport.emit_metrics`).
    """
    from repro.engine.vector.planner import plan_vector

    instrumented, profiles = profile_plan(plan_vector(expr))
    result = collect_batches(instrumented, env)
    report = ProfileReport(profiles)
    if registry is not None:
        report.emit_metrics(registry)
    return result, report
