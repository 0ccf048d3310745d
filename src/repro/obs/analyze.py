"""EXPLAIN ANALYZE: per-operator runtime statistics with estimate feedback.

Where :mod:`repro.tools.explain` predicts what a plan *should* do and
:mod:`repro.engine.profiler` measures what a plan *did*, this module
joins the two: it runs a query under a meter (actual rows, stream pairs,
wall time, invocation counts, consolidation effect, read from each
operator's counter record) and pairs each operator with the optimizer's
**estimated** cardinality for the logical subexpression it implements.
The result is an :class:`AnalyzeReport` — a JSON-serializable plan tree
annotated with estimate-vs-actual ratios, with misestimates of ten times
or more flagged::

    hash-join            rows est=10 act=4,812 ×481 ⚠ ...

Feeding a report into
:meth:`repro.engine.statistics.StatisticsCatalog.record_actuals` makes
that catalog prefer observed cardinalities over its Selinger-style
formulas.  Only plans built with that catalog use it (:func:`analyze`
runs, a session in analyze mode); served queries optimize without a
catalog, so the feedback does not re-plan them.  The paper's
equivalence theorems make such feedback safe: every rewrite preserves
the bag result, so re-planning can only change cost, never answers.

:func:`analyze_plan` runs a ready :class:`~repro.cache.Plan` (a
session's EXPLAIN ANALYZE runs the plan it serves); :func:`analyze`
first builds one cost-based.  Nothing runs unless one is called.
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
    "analyze_plan",
]

#: An operator whose actual/estimated cardinality ratio (either way)
#: reaches this factor is flagged as misestimated.
MISESTIMATE_THRESHOLD = 10.0

#: Operator classes whose job is to collapse input rows; the report
#: shows their consolidation count (rows in minus rows out).
_CONSOLIDATING = {"v-distinct", "v-group-by", "v-difference", "v-intersect"}


class OperatorStats:
    """One executed operator's counter record, with what the estimate
    side adds.

    The measured counts (``rows``, ``pairs``, ``seconds``,
    ``invocations``) and the plan position (``index``, ``depth``,
    ``label``, ``op_class``, ``child_indexes``) are read from the
    operator's :class:`~repro.engine.profiler.OperatorRecord`.
    """

    __slots__ = ("record", "est_rows", "fingerprint", "relation", "rows_in")

    def __init__(
        self,
        record: Any,
        est_rows: Optional[float] = None,
        fingerprint: Optional[str] = None,
        relation: Optional[str] = None,
    ) -> None:
        self.record = record
        #: Estimated output cardinality, or None when the physical
        #: operator could not be matched back to a logical subexpression.
        self.est_rows = est_rows
        #: Canonical fingerprint of the logical subexpression (feedback key).
        self.fingerprint = fingerprint
        #: Base relation name, for scans (lets feedback fix table stats).
        self.relation = relation
        #: Actual rows received from the children (None at the leaves).
        self.rows_in: Optional[int] = None

    def __getattr__(self, name: str) -> Any:
        # Reached only for names that are not slots: the record's fields.
        return getattr(self.record, name)

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
    part of the JSON form).  Fed to
    :meth:`~repro.engine.statistics.StatisticsCatalog.record_actuals`,
    its observed cardinalities inform later analyze runs on that catalog.
    """

    def __init__(
        self,
        operators: List[OperatorStats],
        rewrites: Optional[List[str]],
        logical: str,
        optimized: str,
        seconds: float,
        result_rows: int,
        result_distinct: int,
        threshold: float = MISESTIMATE_THRESHOLD,
        cache: Optional[Dict[str, Any]] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        #: Per-operator statistics in plan pre-order (root first).
        self.operators = operators
        #: Names of the optimizer rules that fired, in order (None when
        #: the plan came ready-made, e.g. a session's plan).
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
        #: The run plan's normal-form fingerprint (the result-cache key).
        self.fingerprint = fingerprint
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
            "fingerprint": self.fingerprint,
            "rewrites": list(self.rewrites or ()),
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
        elif self.rewrites is not None:
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
                f"×{worst.misestimate_factor:,.0f}) — "
                "StatisticsCatalog.record_actuals() feeds the actuals to "
                "later EXPLAIN ANALYZE runs"
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
    """Plan ``expr`` cost-based, run it instrumented, return the report.

    The "what if" form: :func:`~repro.cache.build_plan` optimizes with
    ``catalog`` (default: exact statistics of ``env``), tracing which
    rules fire, and :func:`analyze_plan` runs the plan.
    """
    from repro.cache.plan import build_plan
    from repro.engine.statistics import StatisticsCatalog
    from repro.optimizer import optimize

    if catalog is None:
        catalog = StatisticsCatalog.from_env(env)
    trace: List[Any] = []
    optimizer = optimize if use_optimizer else None
    plan = build_plan(expr, optimizer, catalog=catalog, trace=trace)
    rewrites = [rule for rule, _before, _after in trace]
    return analyze_plan(
        plan, expr, env, catalog, rewrites, threshold=threshold, record=record, cache=cache
    )


def analyze_plan(
    plan: Any,
    logical: Any,
    env: Dict[str, Any],
    catalog: Any,
    rewrites: Optional[List[str]] = None,
    threshold: float = MISESTIMATE_THRESHOLD,
    record: bool = False,
    cache: Optional[Any] = None,
) -> AnalyzeReport:
    """Run ``plan`` (a :class:`~repro.cache.Plan` of ``logical``) instrumented.

    Every physical operator is annotated with ``catalog``'s estimated
    cardinality, the plan runs under a meter, and the
    :class:`AnalyzeReport` is assembled (its ``result`` attribute holds
    the materialised relation).  ``rewrites`` names the rules that
    fired, when they were traced; ``record=True`` folds the run's
    actuals into ``catalog``.  ``cache`` (a :class:`repro.cache.QueryCache`)
    contributes hit/miss provenance; the analyzed execution itself never
    serves from the cache — actuals require an actual run.  Operators
    are counted where their batches are handed over, so the analyzed
    plan runs exactly the code a served query runs.

    ``analyze.runs`` / ``analyze.operators`` / ``analyze.seconds`` and
    ``plan.misestimate{op=...}`` accumulate in the metrics registry on
    every call (analyze is explicitly requested, so unlike the passive
    instrumentation it records even while tracing is off).
    """
    from repro import obs
    from repro.algebra import render
    from repro.engine.profiler import profile_plan

    with obs.span("analyze"):
        annotations = annotate_estimates(plan.normalized, plan.physical, catalog)
        started = time.perf_counter()
        result, profile = profile_plan(plan.physical, env)
        seconds = time.perf_counter() - started

    operators: List[OperatorStats] = []
    for op_record in profile.profiles:
        info = annotations.get(id(op_record.op), {})
        operators.append(
            OperatorStats(
                op_record,
                est_rows=info.get("est"),
                fingerprint=info.get("fingerprint"),
                relation=info.get("relation"),
            )
        )
    for op in operators:
        if op.child_indexes:
            op.rows_in = sum(operators[index].rows for index in op.child_indexes)

    cache_info: Optional[Dict[str, Any]] = None
    if cache is not None:
        cache_info = {
            "fingerprint": plan.fingerprint,
            "result_cached": cache.result_cached(plan.fingerprint),
            "hits": cache.stats.result_hits,
            "misses": cache.stats.result_misses,
        }

    report = AnalyzeReport(
        operators=operators,
        rewrites=rewrites,
        logical=render(logical),
        optimized=render(plan.normalized),
        seconds=seconds,
        result_rows=len(result),
        result_distinct=result.distinct_count,
        threshold=threshold,
        cache=cache_info,
        fingerprint=plan.fingerprint,
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
