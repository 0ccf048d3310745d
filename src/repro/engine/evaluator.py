"""The reference evaluator: literal multiplicity semantics.

This evaluator computes an algebra expression bottom-up, delegating each
operator to the reference implementation on :class:`~repro.relation.Relation`
— which in turn is a direct transliteration of the paper's multiplicity
equations.  It is the semantic ground truth of the system: the physical
engine (:mod:`repro.engine.vector`), the optimizer, and the front ends
are all tested against it.

The evaluation *environment* maps relation names to relations; a
:class:`~repro.database.Database` provides one, and a plain dict works
for standalone use.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra import (
    AlgebraExpr,
    Difference,
    ExtendedProject,
    GroupBy,
    Intersect,
    Join,
    LiteralRelation,
    Product,
    Project,
    RelationRef,
    Select,
    Union,
    Unique,
)
from repro.engine.profiler import (
    active_meter,
    metered,
    metering_wanted,
    record_of,
)
from repro.errors import EvaluationError, UnknownRelationError
from repro.relation import Relation

__all__ = ["evaluate", "Environment"]

#: Anything that resolves relation names to relations.
Environment = Mapping[str, Relation]


def evaluate(expr: AlgebraExpr, env: Environment) -> Relation:
    """Evaluate ``expr`` against ``env`` with literal bag semantics.

    While a run is metered (:func:`repro.engine.profiler.metered`), every
    node adds its result's bag cardinality and support size to its
    :class:`~repro.engine.profiler.OperatorRecord` (labelled with the
    logical operator and ``engine=reference``) — the record type the
    physical engine writes, so both feed the ``operator.*`` metrics and
    the resource account through one fold.  Since π and ⊎ preserve bag
    cardinality exactly, those counts double as correctness
    cross-checks against the physical engine's numbers.
    """
    meter = active_meter()
    if meter is None:
        if not metering_wanted():
            return _evaluate_node(expr, env)
        with metered():
            return evaluate(expr, env)
    result = _evaluate_node(expr, env)
    record = record_of(meter, expr, type(expr).__name__, "reference")
    record.invocations += 1
    record.rows += len(result)
    record.pairs += result.distinct_count
    return result


def _evaluate_node(expr: AlgebraExpr, env: Environment) -> Relation:
    """One node's multiplicity equation (recursion re-enters ``evaluate``)."""
    if isinstance(expr, RelationRef):
        try:
            relation = env[expr.name]
        except KeyError:
            raise UnknownRelationError(expr.name) from None
        return relation
    if isinstance(expr, LiteralRelation):
        return expr.relation
    if isinstance(expr, Union):
        return evaluate(expr.left, env).union(evaluate(expr.right, env))
    if isinstance(expr, Difference):
        return evaluate(expr.left, env).difference(evaluate(expr.right, env))
    if isinstance(expr, Product):
        return evaluate(expr.left, env).product(evaluate(expr.right, env))
    if isinstance(expr, Intersect):
        return evaluate(expr.left, env).intersection(evaluate(expr.right, env))
    if isinstance(expr, Join):
        predicate = expr.condition.bind(expr.schema)
        return evaluate(expr.left, env).join(evaluate(expr.right, env), predicate)
    if isinstance(expr, Select):
        predicate = expr.condition.bind(expr.operand.schema)
        return evaluate(expr.operand, env).select(predicate)
    if isinstance(expr, Project):
        return evaluate(expr.operand, env).project(expr.positions)
    if isinstance(expr, ExtendedProject):
        operand_schema = expr.operand.schema
        functions = [
            expression.bind(operand_schema) for expression in expr.expressions
        ]
        return evaluate(expr.operand, env).extended_project(functions, expr.schema)
    if isinstance(expr, Unique):
        return evaluate(expr.operand, env).distinct()
    if isinstance(expr, GroupBy):
        operand = evaluate(expr.operand, env)
        refs = list(expr.positions)
        return operand.group_by(refs, expr.aggregate, expr.param_position)
    # Extension hook: operator packages (e.g. transitive closure) define
    # nodes that evaluate themselves — the paper's "open to extensions"
    # claim, kept out of the core evaluator.
    handler = getattr(expr, "reference_evaluate", None)
    if handler is not None:
        return handler(env, evaluate)
    raise EvaluationError(f"no evaluation rule for {type(expr).__name__}")
