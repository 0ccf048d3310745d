"""EXPLAIN ANALYZE: per-operator runtime statistics with estimate feedback.

Where :mod:`repro.tools.explain` predicts what a plan *should* do and
:mod:`repro.engine.profiler` measures what a plan *did*, this module
joins the two: it runs a query with every physical operator instrumented
(actual rows, stream pairs, wall time, invocation counts, consolidation
effect) and pairs each operator with the optimizer's **estimated**
cardinality for the logical subexpression it implements.  The result is
an :class:`AnalyzeReport` — a JSON-serializable plan tree annotated with
estimate-vs-actual ratios, with misestimates of ten times or more
flagged::

    hash-join            rows est=10 act=4,812 ×481 ⚠ ...

Feeding a report into
:meth:`repro.engine.statistics.StatisticsCatalog.record_actuals` closes
the loop: the catalog then prefers observed cardinalities over its
Selinger-style formulas, so the *next* planning of the same (or an
overlapping) query works from runtime truth — the adaptive-feedback
tradition the optimizer literature recommends and the paper's
equivalence theorems make safe (every rewrite preserves the bag result,
so re-planning can only change cost, never answers).

The pipeline only ever *adds* wrappers to an explicitly requested run;
nothing here executes unless :func:`analyze` is called, so the
zero-cost-when-disabled property of :mod:`repro.obs` is untouched.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "MISESTIMATE_THRESHOLD",
    "OperatorStats",
    "AnalyzeReport",
    "annotate_estimates",
    "analyze",
]

#: An operator whose actual/estimated cardinality ratio (either way)
#: reaches this factor is flagged as misestimated.
MISESTIMATE_THRESHOLD = 10.0

#: Operator classes whose job is to collapse input rows; the report
#: shows their consolidation count (rows in minus rows out).
_CONSOLIDATING = {
    "distinct", "group-by", "difference", "intersect", "exchange",
    "v-distinct", "v-group-by", "v-difference", "v-intersect",
}


class OperatorStats:
    """Estimate-vs-actual statistics for one operator of an executed plan."""

    __slots__ = (
        "index", "depth", "label", "op_class", "child_indexes",
        "est_rows", "rows", "pairs", "seconds", "invocations",
        "fingerprint", "relation", "rows_in",
    )

    def __init__(
        self,
        index: int,
        depth: int,
        label: str,
        op_class: str,
        child_indexes: List[int],
        est_rows: Optional[float],
        rows: int,
        pairs: int,
        seconds: float,
        invocations: int,
        fingerprint: Optional[str] = None,
        relation: Optional[str] = None,
        rows_in: Optional[int] = None,
    ) -> None:
        #: Plan pre-order position (stable ordering key).
        self.index = index
        self.depth = depth
        self.label = label
        self.op_class = op_class
        self.child_indexes = child_indexes
        #: Estimated output cardinality, or None when the physical
        #: operator could not be matched back to a logical subexpression.
        self.est_rows = est_rows
        #: Actual bag cardinality emitted.
        self.rows = rows
        #: Actual (tuple, count) stream pairs emitted.
        self.pairs = pairs
        #: Inclusive wall time producing this operator's stream.
        self.seconds = seconds
        #: Times the operator's stream was opened.
        self.invocations = invocations
        #: Canonical fingerprint of the logical subexpression (feedback key).
        self.fingerprint = fingerprint
        #: Base relation name, for scans (lets feedback fix table stats).
        self.relation = relation
        #: Actual rows received from the children (None at the leaves).
        self.rows_in = rows_in

    @property
    def misestimate_factor(self) -> Optional[float]:
        """How far off the estimate was, as a factor >= 1 (None: no estimate)."""
        if self.est_rows is None:
            return None
        actual = max(float(self.rows), 1.0)
        estimated = max(float(self.est_rows), 1.0)
        return actual / estimated if actual >= estimated else estimated / actual

    @property
    def underestimated(self) -> Optional[bool]:
        """True when the actual cardinality exceeded the estimate."""
        if self.est_rows is None:
            return None
        return float(self.rows) > float(self.est_rows)

    def flagged(self, threshold: float = MISESTIMATE_THRESHOLD) -> bool:
        """True when the misestimation factor reaches ``threshold``."""
        factor = self.misestimate_factor
        return factor is not None and factor >= threshold

    @property
    def consolidated(self) -> Optional[int]:
        """Rows removed by this operator's dedup/consolidation, if it does any."""
        if self.op_class not in _CONSOLIDATING or self.rows_in is None:
            return None
        return max(0, self.rows_in - self.rows)

    def ratio_text(self, threshold: float = MISESTIMATE_THRESHOLD) -> str:
        """``×481 ⚠`` style rendering of the estimate-vs-actual ratio."""
        if self.est_rows is None:
            return ""
        actual = max(float(self.rows), 1.0)
        estimated = max(float(self.est_rows), 1.0)
        if actual >= estimated:
            factor = actual / estimated
            text = f"×{factor:,.0f}" if factor >= 10 else f"×{factor:.1f}"
        else:
            factor = estimated / actual
            text = f"÷{factor:,.0f}" if factor >= 10 else f"÷{factor:.1f}"
        if self.flagged(threshold):
            text += " ⚠"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly record for this operator."""
        record: Dict[str, Any] = {
            "index": self.index,
            "depth": self.depth,
            "label": self.label,
            "op": self.op_class,
            "children": list(self.child_indexes),
            "est_rows": self.est_rows,
            "rows": self.rows,
            "pairs": self.pairs,
            "seconds": self.seconds,
            "invocations": self.invocations,
        }
        if self.fingerprint is not None:
            record["fingerprint"] = self.fingerprint
        if self.relation is not None:
            record["relation"] = self.relation
        if self.rows_in is not None:
            record["rows_in"] = self.rows_in
        if self.consolidated is not None:
            record["consolidated"] = self.consolidated
        if self.misestimate_factor is not None:
            record["misestimate_factor"] = round(self.misestimate_factor, 2)
            record["underestimated"] = self.underestimated
        return record

    def __repr__(self) -> str:
        est = "?" if self.est_rows is None else f"{self.est_rows:,.0f}"
        return (
            f"<OperatorStats {self.label!r} est={est} act={self.rows:,}"
            f" {self.seconds * 1000:.2f}ms>"
        )


class AnalyzeReport:
    """Everything one EXPLAIN ANALYZE run learned; ``str()`` renders it.

    The report is JSON-serializable (:meth:`to_dict` / :meth:`to_json`)
    and carries the materialised query result as :attr:`result` (not
    part of the JSON form).  Feed it to
    :meth:`~repro.engine.statistics.StatisticsCatalog.record_actuals`
    to re-plan future queries with the observed cardinalities.
    """

    def __init__(
        self,
        operators: List[OperatorStats],
        rewrites: List[str],
        logical: str,
        optimized: str,
        seconds: float,
        result_rows: int,
        result_distinct: int,
        threshold: float = MISESTIMATE_THRESHOLD,
        cache: Optional[Dict[str, Any]] = None,
    ) -> None:
        #: Per-operator statistics in plan pre-order (root first).
        self.operators = operators
        #: Names of the optimizer rules that fired, in order.
        self.rewrites = rewrites
        #: The original expression, rendered in the paper's notation.
        self.logical = logical
        #: The optimized expression actually planned.
        self.optimized = optimized
        #: Wall time of the instrumented execution.
        self.seconds = seconds
        self.result_rows = result_rows
        self.result_distinct = result_distinct
        self.threshold = threshold
        #: Cache hit/miss provenance (None when no cache was attached).
        self.cache = cache
        #: The materialised result relation (excluded from the JSON form).
        self.result: Optional[Any] = None

    def flagged(self) -> List[OperatorStats]:
        """Operators whose misestimation reaches the report's threshold."""
        return [op for op in self.operators if op.flagged(self.threshold)]

    def find(self, label_part: str) -> List[OperatorStats]:
        """Operators whose label contains ``label_part`` (test helper)."""
        return [op for op in self.operators if label_part in op.label]

    @property
    def total_rows(self) -> int:
        """Total bag cardinality that flowed through all operators."""
        return sum(op.rows for op in self.operators)

    def to_dict(self) -> Dict[str, Any]:
        """The whole report as one JSON-friendly record."""
        record: Dict[str, Any] = {
            "event": "analyze",
            "seconds": self.seconds,
            "rows": self.result_rows,
            "distinct": self.result_distinct,
            "threshold": self.threshold,
            "logical": self.logical,
            "optimized": self.optimized,
            "rewrites": list(self.rewrites),
            "operators": [op.to_dict() for op in self.operators],
            "misestimates": len(self.flagged()),
        }
        if self.cache is not None:
            record["cache"] = dict(self.cache)
        return record

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render(self) -> str:
        """The annotated plan tree: one row per operator, est vs. actual."""
        lines = [
            f"EXPLAIN ANALYZE  wall {self.seconds * 1000:.2f}ms, "
            f"{self.result_rows:,} row(s), {self.result_distinct:,} distinct",
        ]
        if self.rewrites:
            lines.append("rewrites: " + ", ".join(self.rewrites))
        else:
            lines.append("rewrites: (none)")
        if self.cache is not None:
            served = self.cache.get("result_cached")
            state = "result cached" if served else "result not cached"
            lines.append(
                f"cache: {state}, fingerprint {self.cache.get('fingerprint', '?')[:12]}"
            )
        labels = [("  " * op.depth) + op.label for op in self.operators]
        width = max((len(label) for label in labels), default=0)
        width = min(max(width, 20), 44)
        for op, label in zip(self.operators, labels):
            est = "?" if op.est_rows is None else f"{op.est_rows:,.0f}"
            cells = [
                f"rows est={est} act={op.rows:,}",
            ]
            ratio = op.ratio_text(self.threshold)
            if ratio:
                cells.append(ratio)
            if op.consolidated is not None:
                cells.append(f"dedup=-{op.consolidated:,}")
            cells.append(f"pairs={op.pairs:,}")
            if op.invocations != 1:
                cells.append(f"calls={op.invocations}")
            cells.append(f"{op.seconds * 1000:.2f}ms")
            lines.append(f"{label:<{width}}  " + "  ".join(cells))
        flagged = self.flagged()
        if flagged:
            worst = max(
                flagged, key=lambda op: op.misestimate_factor or 0.0
            )
            lines.append(
                f"{len(flagged)} operator(s) misestimated "
                f"≥{self.threshold:g}× (worst: {worst.label}, "
                f"×{worst.misestimate_factor:,.0f}) — feed this report to "
                "StatisticsCatalog.record_actuals() to re-plan with actuals"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return (
            f"<AnalyzeReport {len(self.operators)} operator(s), "
            f"{len(self.flagged())} flagged, {self.seconds * 1000:.2f}ms>"
        )


# ---------------------------------------------------------------------------
# estimate annotation: pairing physical operators with logical subtrees
# ---------------------------------------------------------------------------


def _child_pairs(expr: Any, op: Any) -> List[Any]:
    """Pair a logical node's children with a physical node's children.

    Mirrors the planner's translation cases (including the σ(E1 × E2)
    join fusion).  On a structural mismatch it returns no pairs — the physical subtree below simply
    goes unannotated (``est=?``) rather than guessing wrong.
    """
    from repro.algebra import (
        Difference,
        ExtendedProject,
        GroupBy,
        Intersect,
        Join,
        Product,
        Project,
        Select,
        Union,
        Unique,
    )
    from repro.engine.vector.operators import (
        VDifferenceOp,
        VDistinctOp,
        VFilterOp,
        VGroupByOp,
        VHashJoinOp,
        VIntersectOp,
        VMapOp,
        VNestedLoopJoinOp,
        VProjectOp,
        VUnionOp,
    )

    def join_operands(node: Any) -> Optional[Any]:
        # ⋈, ×, or a σ stack over × (fused into the join it feeds).
        if isinstance(node, Join):
            return node.left, node.right
        while isinstance(node, Select):
            node = node.operand
        if isinstance(node, Product):
            return node.left, node.right
        return None

    if isinstance(op, VHashJoinOp) and isinstance(expr, Project):
        # Project-into-join fusion: the planner folds π(⋈) into one
        # probe loop, so the physical join answers for the Project.
        inner = expr.operand
        if isinstance(inner, Join):
            return [(inner.left, op.left), (inner.right, op.right)]
        return []
    if isinstance(op, (VHashJoinOp, VNestedLoopJoinOp)):
        operands = join_operands(expr)
        if operands is None:
            return []
        left, right = operands
        return [(left, op.left), (right, op.right)]
    if isinstance(op, VFilterOp) and isinstance(expr, Select):
        # Selection fusion: one VFilterOp may implement a σ stack.
        node = expr.operand
        while isinstance(node, Select):
            node = node.operand
        return [(node, op.child)]
    if isinstance(op, VProjectOp) and isinstance(expr, Project):
        return [(expr.operand, op.child)]
    if isinstance(op, VMapOp) and isinstance(expr, ExtendedProject):
        return [(expr.operand, op.child)]
    if isinstance(op, VDistinctOp) and isinstance(expr, Unique):
        return [(expr.operand, op.child)]
    if isinstance(op, VGroupByOp) and isinstance(expr, GroupBy):
        return [(expr.operand, op.child)]
    if isinstance(op, VUnionOp) and isinstance(expr, Union):
        return [(expr.left, op.left), (expr.right, op.right)]
    if isinstance(op, VDifferenceOp) and isinstance(expr, Difference):
        return [(expr.left, op.left), (expr.right, op.right)]
    if isinstance(op, VIntersectOp) and isinstance(expr, Intersect):
        return [(expr.left, op.left), (expr.right, op.right)]
    return []


def annotate_estimates(
    logical: Any, physical: Any, catalog: Any
) -> Dict[int, Dict[str, Any]]:
    """Estimated cardinality + fingerprint per physical operator.

    Walks the logical and physical trees in lockstep (the planner's
    translation is deterministic, so the pairing is reconstructible) and
    returns ``id(op) -> {"est", "fingerprint", "relation"?}``.  Kept
    external to the operators on purpose: the executing plan carries no
    analyze baggage, so the non-analyze path stays byte-identical.
    """
    from repro.cache.fingerprint import fingerprint
    from repro.engine.statistics import estimate_cardinality
    from repro.engine.vector.operators import VScanOp

    annotations: Dict[int, Dict[str, Any]] = {}

    def visit(expr: Any, op: Any) -> None:
        info: Dict[str, Any] = {
            "est": estimate_cardinality(expr, catalog),
            "fingerprint": fingerprint(expr),
        }
        if isinstance(op, VScanOp):
            info["relation"] = op.name
        annotations[id(op)] = info
        for child_expr, child_op in _child_pairs(expr, op):
            visit(child_expr, child_op)

    visit(logical, physical)
    return annotations


def _preorder(op: Any) -> List[Any]:
    """The physical tree in pre-order — the profiler's index order."""
    out = [op]
    for child in op.children():
        out.extend(_preorder(child))
    return out


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def analyze(
    expr: Any,
    env: Dict[str, Any],
    catalog: Optional[Any] = None,
    use_optimizer: bool = True,
    threshold: float = MISESTIMATE_THRESHOLD,
    record: bool = False,
    cache: Optional[Any] = None,
) -> AnalyzeReport:
    """Run ``expr`` instrumented and return the annotated report.

    The pipeline: optimize (tracing which rules fire), plan, annotate
    every physical operator with its estimated cardinality, execute with
    per-operator counters and timers, then assemble the
    :class:`AnalyzeReport` (its ``result`` attribute holds the
    materialised relation).  ``catalog`` defaults to exact statistics of
    ``env``; pass a session's long-lived catalog to accumulate feedback
    across queries, and ``record=True`` to fold this run's actuals into
    it immediately.  ``cache`` (a :class:`repro.cache.QueryCache`)
    contributes hit/miss provenance to the report; the analyzed
    execution itself never serves from the cache — actuals require an
    actual run.  The profiler wraps each operator's ``batches()``, so
    the analyzed plan runs the same code path as a served query.

    ``analyze.runs`` / ``analyze.operators`` / ``analyze.seconds`` and
    ``plan.misestimate{op=...}`` accumulate in the metrics registry on
    every call (analyze is explicitly requested, so unlike the passive
    instrumentation it records even while tracing is off).
    """
    from repro import obs
    from repro.algebra import render
    from repro.engine.profiler import profile_plan
    from repro.engine.vector import collect_batches, plan_vector
    from repro.engine.statistics import StatisticsCatalog
    from repro.optimizer import optimize

    if catalog is None:
        catalog = StatisticsCatalog.from_env(env)
    rewrite_trace: List[Any] = []
    with obs.span("analyze"):
        optimized = (
            optimize(expr, catalog, rewrite_trace) if use_optimizer else expr
        )
        physical = plan_vector(optimized)
        annotations = annotate_estimates(optimized, physical, catalog)
        instrumented, profiles = profile_plan(physical)
        started = time.perf_counter()
        result = collect_batches(instrumented, env)
        seconds = time.perf_counter() - started

    operators: List[OperatorStats] = []
    for op, profile in zip(_preorder(physical), profiles):
        info = annotations.get(id(op), {})
        operators.append(
            OperatorStats(
                index=profile.index,
                depth=profile.depth,
                label=profile.label,
                op_class=profile.op_class,
                child_indexes=list(profile.child_indexes),
                est_rows=info.get("est"),
                rows=profile.rows_out,
                pairs=profile.pairs_out,
                seconds=profile.seconds,
                invocations=profile.invocations,
                fingerprint=info.get("fingerprint"),
                relation=info.get("relation"),
            )
        )
    by_index = {op.index: op for op in operators}
    for op in operators:
        if op.child_indexes:
            op.rows_in = sum(
                by_index[index].rows
                for index in op.child_indexes
                if index in by_index
            )

    cache_info: Optional[Dict[str, Any]] = None
    if cache is not None:
        from repro.cache.fingerprint import fingerprint

        normal_fp = fingerprint(optimized)
        cache_info = {
            "fingerprint": normal_fp,
            "result_cached": cache.result_cached(normal_fp),
            "hits": cache.stats.result_hits,
            "misses": cache.stats.result_misses,
        }

    report = AnalyzeReport(
        operators=operators,
        rewrites=[entry[0] for entry in rewrite_trace],
        logical=render(expr),
        optimized=render(optimized),
        seconds=seconds,
        result_rows=len(result),
        result_distinct=result.distinct_count,
        threshold=threshold,
        cache=cache_info,
    )
    report.result = result

    registry = obs.metrics()
    registry.counter("analyze.runs").inc()
    registry.counter("analyze.operators").inc(len(operators))
    registry.histogram("analyze.seconds").observe(seconds)
    for flagged_op in report.flagged():
        registry.counter("plan.misestimate", op=flagged_op.op_class).inc()

    if record:
        catalog.record_actuals(report)
    return report
