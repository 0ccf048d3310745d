"""Planning and running logical algebra expressions on the physical engine.

The one physical executor is the batch operator family of
:mod:`repro.engine.vector`; :func:`plan_physical` plans through
:func:`~repro.engine.vector.plan_vector` and :func:`execute` runs a plan
to a materialised relation; :func:`repro.cache.build_plan` decides
which tree they get.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra import AlgebraExpr
from repro.engine.profiler import (
    ProfileReport,
    metered,
    metering_wanted,
    plan_records,
)
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
    """Plan ``expr`` for the physical engine, under a ``plan`` trace span.

    :func:`repro.cache.build_plan` plans through here.  ``_reserved``
    accepts only ``None`` and ``engine`` only
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
    with obs.span("plan") as span:
        physical = plan_vector(expr)
        if span.recording:
            span.set(shape=physical.explain())
    return physical


def execute(
    expr: AlgebraExpr,
    env: dict[str, Relation],
    physical: Optional[VectorOp] = None,
    engine: str = "vector",
) -> Relation:
    """Run ``expr`` on the physical engine; plan it first if not given.

    ``physical`` is a plan made for exactly this expression (a
    :class:`repro.cache.Plan`'s, the normal way in); without it ``expr``
    is planned as given, which suits tests and micro-benchmarks.
    ``engine`` accepts only ``"vector"`` and is kept for
    ``benchmarks/e2e/``.

    A served run is metered (:func:`repro.engine.profiler.metered`)
    while :mod:`repro.obs` records metrics or a resource account is
    active, so the ``operator.*`` metrics and the account see every
    operator.  With a tracer on, the execute stage runs under a trace
    span that carries the per-operator records.  Otherwise this is the
    bare collect path.
    """
    _check_engine(engine)
    if physical is None:
        physical = plan_physical(expr)
    if not obs.enabled():
        if not metering_wanted():
            return collect_batches(physical, env)
        with metered():
            return collect_batches(physical, env)

    with obs.span("execute") as execute_span:
        with metered() as meter:
            result = collect_batches(physical, env)
        report = ProfileReport(plan_records(physical, meter))
        execute_span.set(
            operators=report.operator_records(),
            rows=len(result),
            pairs=result.distinct_count,
        )
    obs.add("engine.executions")
    return result
