"""Query explanation: one report covering the whole compilation pipeline.

:func:`explain` takes a logical expression (and optionally an
environment for statistics) and renders what every layer of the system
does with it:

* the logical tree in the paper's notation;
* the heuristic / cost-based rewrites that fired, one per line;
* estimated cardinality and cost before and after;
* the physical plan the planner chooses.

:func:`explain_analyze` goes one step further and *runs* the plan with
every operator instrumented, returning the estimate-vs-actual
:class:`~repro.obs.analyze.AnalyzeReport` (see :mod:`repro.obs.analyze`).

Used by the CLI's ``.explain`` / ``.analyze`` and handy in notebooks and
tests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.algebra import AlgebraExpr, render, render_tree
from repro.engine import (
    StatisticsCatalog,
    estimate_cardinality,
    estimate_cost,
    plan_physical,
)
from repro.obs.analyze import AnalyzeReport, analyze
from repro.optimizer import RewriteTrace, optimize
from repro.relation import Relation

__all__ = ["explain", "explain_analyze", "ExplainReport"]


class ExplainReport:
    """Structured result of :func:`explain`; ``str()`` renders the report."""

    def __init__(
        self,
        original: AlgebraExpr,
        optimized: AlgebraExpr,
        trace: RewriteTrace,
        catalog: Optional[StatisticsCatalog],
    ) -> None:
        self.original = original
        self.optimized = optimized
        self.trace = trace
        self.catalog = catalog
        self.physical = plan_physical(optimized)

    @property
    def rules_fired(self) -> List[str]:
        return [rule for rule, _before, _after in self.trace]

    def estimated_cost_before(self) -> Optional[float]:
        if self.catalog is None:
            return None
        return estimate_cost(self.original, self.catalog)

    def estimated_cost_after(self) -> Optional[float]:
        if self.catalog is None:
            return None
        return estimate_cost(self.optimized, self.catalog)

    def __str__(self) -> str:
        lines = [
            "== logical ==",
            render(self.original),
            render_tree(self.original),
            "",
            "== rewrites ==",
        ]
        if self.trace:
            lines.extend(f"  {rule}" for rule in self.rules_fired)
        else:
            lines.append("  (none)")
        lines += [
            "",
            "== optimized ==",
            render(self.optimized),
        ]
        if self.catalog is not None:
            lines += [
                "",
                "== estimates ==",
                f"  cardinality: {estimate_cardinality(self.optimized, self.catalog):,.0f}",
                f"  cost before: {self.estimated_cost_before():,.0f}",
                f"  cost after:  {self.estimated_cost_after():,.0f}",
            ]
        lines += [
            "",
            "== physical ==",
            self.physical.explain(),
        ]
        return "\n".join(lines)


def explain(
    expr: AlgebraExpr,
    env: Optional[Mapping[str, Relation]] = None,
    with_histograms: bool = False,
) -> ExplainReport:
    """Optimize ``expr`` (cost-based when ``env`` is given) and report."""
    catalog = (
        StatisticsCatalog.from_env(env, with_histograms=with_histograms)
        if env is not None
        else None
    )
    trace: RewriteTrace = []
    optimized = optimize(expr, catalog, trace)
    return ExplainReport(expr, optimized, trace, catalog)


def explain_analyze(
    expr: AlgebraExpr,
    env: Dict[str, Relation],
    catalog: Optional[StatisticsCatalog] = None,
    record: bool = False,
    cache: Optional[Any] = None,
) -> AnalyzeReport:
    """Run ``expr`` instrumented; return the estimate-vs-actual report.

    Unlike :func:`explain`, this actually executes the query (the
    result relation rides along as ``report.result``).  ``catalog``
    defaults to exact statistics of ``env``; pass a long-lived catalog
    (and ``record=True``) to accumulate the observed cardinalities that
    make repeated queries re-plan from runtime truth::

        report = explain_analyze(expr, env, catalog=catalog, record=True)
        print(report)            # annotated plan tree, ⚠ on ≥10× misses
        report.to_json()         # structured form for tooling
    """
    return analyze(
        expr,
        env,
        catalog=catalog,
        record=record,
        cache=cache,
    )
