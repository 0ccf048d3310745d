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
from repro.errors import EvaluationError, UnknownRelationError
from repro import obs
from repro.obs.telemetry import account as _active_account
from repro.relation import Relation

__all__ = ["evaluate", "Environment"]

#: Anything that resolves relation names to relations.
Environment = Mapping[str, Relation]


def evaluate(expr: AlgebraExpr, env: Environment) -> Relation:
    """Evaluate ``expr`` against ``env`` with literal bag semantics.

    While observability is enabled, every node contributes to the
    ``operator.rows`` / ``operator.pairs`` counters (labelled with the
    logical operator and ``engine=reference``) — since π and ⊎ preserve
    bag cardinality exactly, those counters double as correctness
    cross-checks against the physical engine's numbers.
    """
    if not obs.recording() and _active_account() is None:
        return _evaluate_node(expr, env)
    result = _evaluate_node(expr, env)
    op = type(expr).__name__
    obs.add("operator.rows", len(result), op=op, engine="reference")
    obs.add("operator.pairs", result.distinct_count, op=op, engine="reference")
    acct = _active_account()
    if acct is not None and isinstance(expr, RelationRef):
        acct.rows_scanned += len(result)
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
        operand = evaluate(expr.operand, env)
        result = operand.distinct()
        acct = _active_account()
        if acct is not None:
            # δ's in/out bag cardinalities — the measured duplicate factor.
            acct.dedup_rows_in += len(operand)
            acct.dedup_rows_out += len(result)
        return result
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
