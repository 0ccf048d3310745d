"""Planning and running logical algebra expressions on the physical engine.

The one physical executor is the batch operator family of
:mod:`repro.engine.vector`; :func:`plan_physical` plans through
:func:`~repro.engine.vector.plan_vector` and :func:`execute` runs a plan
to a materialised relation.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra import AlgebraExpr
from repro.engine.vector.operators import VectorOp, collect_batches
from repro.engine.vector.planner import extract_equi_conjuncts, plan_vector
from repro.errors import EvaluationError
from repro import obs
from repro.relation import Relation

__all__ = ["plan_physical", "execute", "extract_equi_conjuncts"]


def _check_engine(engine: str) -> None:
    """``engine`` is kept for ``benchmarks/e2e/``, which passes ``"vector"``."""
    if engine != "vector":
        raise EvaluationError(
            f"unknown physical engine {engine!r}; the only one is 'vector'"
        )


def plan_physical(
    expr: AlgebraExpr,
    _reserved: None = None,
    engine: str = "vector",
) -> VectorOp:
    """Plan ``expr`` for the physical engine.

    ``_reserved`` accepts only ``None`` and ``engine`` only
    ``"vector"``.  Both keep the positional call
    ``plan_physical(expr, None, "vector")`` in ``benchmarks/e2e/layers.py``
    working, and go the next time ``benchmarks/e2e/`` is edited (see
    ROADMAP.md, "Finish the instrument").
    """
    if _reserved is not None:
        raise TypeError(
            f"plan_physical takes no planner option, got {_reserved!r}"
        )
    _check_engine(engine)
    return plan_vector(expr)


def execute(
    expr: AlgebraExpr,
    env: dict[str, Relation],
    physical: Optional[VectorOp] = None,
    engine: str = "vector",
) -> Relation:
    """Plan and run ``expr`` on the physical engine.

    ``physical`` optionally supplies a previously planned operator tree
    for exactly this expression — the plan cache (:mod:`repro.cache`)
    uses it to skip re-planning on repeated queries; the planning stage
    is then a no-op.  ``engine`` accepts only ``"vector"`` and is kept
    for ``benchmarks/e2e/``.

    While observability is enabled (:mod:`repro.obs`), the plan and
    execute stages run under trace spans and the plan is wrapped with
    the operator profiler, so the execute span carries per-operator
    row/pair counts and the ``operator.*`` metrics accumulate.  Disabled
    (the default), this is the bare plan-and-collect path.
    """
    _check_engine(engine)
    if not obs.enabled():
        if physical is None:
            physical = plan_vector(expr)
        return collect_batches(physical, env)

    from repro.engine.profiler import ProfileReport, profile_plan

    with obs.span("plan") as plan_span:
        if physical is None:
            physical = plan_vector(expr)
        else:
            plan_span.set(cached=True)
        plan_span.set(shape=physical.explain())
    with obs.span("execute") as execute_span:
        instrumented, profiles = profile_plan(physical)
        result = collect_batches(instrumented, env)
        report = ProfileReport(profiles)
        report.emit_metrics(obs.metrics())
        execute_span.set(
            operators=report.operator_records(),
            rows=len(result),
            pairs=result.distinct_count,
        )
    obs.add("engine.executions")
    return result
