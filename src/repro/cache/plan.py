"""One value that says how a query runs: :class:`Plan`, and its builder.

:func:`build_plan` is the one place an expression is optimized,
fingerprinted, given its read set and planned.  Sessions and execution
contexts call it (through a cache's plan level when one is attached);
EXPLAIN ANALYZE and :func:`repro.tools.explain` call it with a
statistics catalog for their cost-based "what if" reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.algebra import AlgebraExpr
from repro.cache.fingerprint import base_relations, fingerprint
from repro.engine.evaluator import evaluate as reference_evaluate
from repro.engine.planner import execute, plan_physical
from repro.engine.vector import VectorOp
from repro.relation import Relation

__all__ = ["Plan", "build_plan"]


@dataclass(frozen=True, slots=True, eq=False)
class Plan:
    """The normal form, its fingerprint, its read set and its physical plan.

    ``fingerprint`` keys the result cache and the query log; ``deps``
    names the relations the plan reads.  ``physical`` is ``None`` under
    the reference evaluator.
    """

    normalized: AlgebraExpr
    fingerprint: str
    deps: frozenset
    physical: Optional[VectorOp]

    def run(self, env: Dict[str, Relation]) -> Relation:
        """Run the plan against ``env`` with the strategy it was made for."""
        if self.physical is None:
            return reference_evaluate(self.normalized, env)
        return execute(self.normalized, env, physical=self.physical)


def build_plan(
    expr: AlgebraExpr,
    optimizer: Optional[Callable[..., AlgebraExpr]] = None,
    physical: bool = True,
    catalog: Optional[Any] = None,
    trace: Optional[List[Any]] = None,
) -> Plan:
    """Optimize, fingerprint, find the read set and plan ``expr``.

    ``optimizer`` rewrites ``expr`` first (``None`` plans it as given).
    A ``catalog`` or ``trace`` is passed on to it by keyword, as
    :func:`~repro.optimizer.optimize` and the strict-lint
    :func:`~repro.lint.checked_optimize` take them.  Without
    ``physical`` the plan runs on the reference evaluator.
    """
    if optimizer is None:
        normalized = expr
    elif catalog is None and trace is None:
        normalized = optimizer(expr)
    else:
        normalized = optimizer(expr, catalog=catalog, trace=trace)
    return Plan(
        normalized,
        fingerprint(normalized),
        base_relations(normalized),
        plan_physical(normalized) if physical else None,
    )
