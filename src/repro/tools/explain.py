"""Query explanation: one report covering the whole compilation pipeline.

:func:`explain` takes a logical expression (and optionally an
environment for statistics) and renders what every layer of the system
does with it:

* the logical tree in the paper's notation;
* the heuristic / cost-based rewrites that fired, one per line;
* estimated cardinality and cost before and after;
* the physical plan the planner chooses.

:func:`explain_analyze` (:func:`repro.obs.analyze.analyze`) goes one
step further and *runs* the plan with every operator instrumented,
returning the estimate-vs-actual
:class:`~repro.obs.analyze.AnalyzeReport`.

Both are "what if" reports for notebooks and tests: given an
environment they optimize cost-based, which a served query does not.
The CLI's ``.explain`` and ``.analyze`` show :meth:`Session.plan`'s plan.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.algebra import AlgebraExpr, render, render_tree
from repro.cache.plan import Plan, build_plan
from repro.engine import (
    StatisticsCatalog,
    estimate_cardinality,
    estimate_cost,
)
from repro.obs.analyze import analyze as explain_analyze
from repro.optimizer import RewriteTrace, optimize
from repro.relation import Relation

__all__ = ["explain", "explain_analyze", "ExplainReport"]


class ExplainReport:
    """Structured result of :func:`explain`; ``str()`` renders the report."""

    def __init__(
        self,
        original: AlgebraExpr,
        plan: Plan,
        trace: RewriteTrace,
        catalog: Optional[StatisticsCatalog],
    ) -> None:
        self.original = original
        self.plan = plan
        self.optimized = plan.normalized
        self.physical = plan.physical
        self.trace = trace
        self.catalog = catalog

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
    plan = build_plan(expr, optimize, catalog=catalog, trace=trace)
    return ExplainReport(expr, plan, trace, catalog)
