"""Translation of logical algebra expressions into physical plans.

The planner is deliberately simple and deterministic — strategy choice,
not search (search lives in :mod:`repro.optimizer`, which rewrites the
*logical* tree first).  It emits the batch operators of
:mod:`repro.engine.vector.operators`:

* joins whose condition contains equality conjuncts relating the two
  operands become hash joins (remaining conjuncts become a residual
  predicate); other joins, and the cartesian product, become one
  nested-loop operator (Theorem 3.1: × is ⋈ with no predicate);
* a selection directly above a product is fused the same way (this is
  Theorem 3.1's ``σ_φ(E1 × E2) = E1 ⋈_φ E2`` applied physically);
* **selection fusion**: a stack of selections ``σ_a(σ_b(E))`` plans as
  one :class:`~repro.engine.vector.operators.VFilterOp` whose compiled
  kernel evaluates the fused conjunction ``a and b`` in a single pass;
* **project-into-join fusion**: π over an equi-join emits projected
  tuples straight from the compiled probe loop;
* extension nodes (``reference_evaluate``) batch the relation the
  reference evaluator computes for them.
"""

from __future__ import annotations

from typing import List, Tuple

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
from repro.engine.vector.batch import DEFAULT_BATCH_SIZE
from repro.engine.vector.operators import (
    VDifferenceOp,
    VDistinctOp,
    VExtensionOp,
    VFilterOp,
    VGroupByOp,
    VHashJoinOp,
    VIntersectOp,
    VLiteralOp,
    VMapOp,
    VNestedLoopJoinOp,
    VProjectOp,
    VScanOp,
    VUnionOp,
    VectorOp,
)
from repro.errors import EvaluationError
from repro.expressions import Compare, ScalarExpr, conjoin, rebase, split_conjuncts
from repro.schema import RelationSchema

__all__ = ["plan_vector", "extract_equi_conjuncts"]


def extract_equi_conjuncts(
    condition: ScalarExpr,
    combined: RelationSchema,
    left_degree: int,
) -> Tuple[List[Tuple[ScalarExpr, ScalarExpr]], List[ScalarExpr]]:
    """Split a join condition into equi-key pairs and residual conjuncts.

    Returns ``(pairs, residual)`` where each pair ``(lk, rk)`` is a
    scalar expression over the *left* / *right* operand schema such that
    the conjunct was ``lk = rk`` over the combined schema.  Conjuncts
    that do not have that shape stay in ``residual`` (expressed over the
    combined schema).
    """
    pairs: List[Tuple[ScalarExpr, ScalarExpr]] = []
    residual: List[ScalarExpr] = []
    right_first = left_degree + 1
    right_last = combined.degree
    for conjunct in split_conjuncts(condition):
        if isinstance(conjunct, Compare) and conjunct.op == "=":
            left_on_left = rebase(conjunct.left, combined, 1, left_degree)
            right_on_right = rebase(conjunct.right, combined, right_first, right_last)
            if left_on_left is not None and right_on_right is not None:
                pairs.append((left_on_left, right_on_right))
                continue
            # The symmetric orientation: right side of '=' touches the
            # left operand and vice versa.
            left_on_right = rebase(conjunct.left, combined, right_first, right_last)
            right_on_left = rebase(conjunct.right, combined, 1, left_degree)
            if left_on_right is not None and right_on_left is not None:
                pairs.append((right_on_left, left_on_right))
                continue
        residual.append(conjunct)
    return pairs, residual


def _plan_join(
    left: AlgebraExpr,
    right: AlgebraExpr,
    condition: ScalarExpr,
    schema: RelationSchema,
    batch_size: int,
) -> VectorOp:
    combined = left.schema.concat(right.schema)
    pairs, residual = extract_equi_conjuncts(condition, combined, left.schema.degree)
    left_plan = plan_vector(left, batch_size)
    right_plan = plan_vector(right, batch_size)
    if pairs:
        return VHashJoinOp(
            left_plan,
            right_plan,
            [pair[0] for pair in pairs],
            [pair[1] for pair in pairs],
            schema,
            conjoin(residual) if residual else None,
            combined,
            batch_size,
        )
    return VNestedLoopJoinOp(left_plan, right_plan, condition, schema, batch_size)


def plan_vector(
    expr: AlgebraExpr, batch_size: int = DEFAULT_BATCH_SIZE
) -> VectorOp:
    """Translate a logical expression into a physical plan."""
    if isinstance(expr, RelationRef):
        return VScanOp(expr.name, expr.schema, batch_size)
    if isinstance(expr, LiteralRelation):
        return VLiteralOp(expr.relation, batch_size)
    if isinstance(expr, Union):
        return VUnionOp(
            plan_vector(expr.left, batch_size),
            plan_vector(expr.right, batch_size),
            batch_size,
        )
    if isinstance(expr, Difference):
        return VDifferenceOp(
            plan_vector(expr.left, batch_size),
            plan_vector(expr.right, batch_size),
            batch_size,
        )
    if isinstance(expr, Intersect):
        return VIntersectOp(
            plan_vector(expr.left, batch_size),
            plan_vector(expr.right, batch_size),
            batch_size,
        )
    if isinstance(expr, Join):
        return _plan_join(
            expr.left, expr.right, expr.condition, expr.schema, batch_size
        )
    if isinstance(expr, Select):
        # Fuse stacked selections into one kernel: σ_a(σ_b(E)) runs a
        # single compiled conjunction over E's batches.
        conditions: List[ScalarExpr] = [expr.condition]
        operand = expr.operand
        while isinstance(operand, Select):
            conditions.append(operand.condition)
            operand = operand.operand
        # Innermost first: `and` short-circuits exactly like the stacked
        # filters would (an outer condition never sees a row the inner
        # one rejects — observable through evaluation errors).
        conditions.reverse()
        condition = conjoin(conditions)
        # Theorem 3.1, physically: selection over a product is a join.
        if isinstance(operand, Product):
            return _plan_join(
                operand.left,
                operand.right,
                condition,
                expr.schema,
                batch_size,
            )
        child = plan_vector(operand, batch_size)
        return VFilterOp(condition, child, batch_size)
    if isinstance(expr, Product):
        return VNestedLoopJoinOp(
            plan_vector(expr.left, batch_size),
            plan_vector(expr.right, batch_size),
            None,
            expr.schema,
            batch_size,
        )
    if isinstance(expr, Project):
        operand = expr.operand
        # Project-into-join fusion: π over an equi-join emits projected
        # tuples straight from the compiled probe loop — the wide
        # concatenated row is never materialised.
        if isinstance(operand, Join):
            combined = operand.left.schema.concat(operand.right.schema)
            pairs, residual = extract_equi_conjuncts(
                operand.condition, combined, operand.left.schema.degree
            )
            if pairs:
                return VHashJoinOp(
                    plan_vector(operand.left, batch_size),
                    plan_vector(operand.right, batch_size),
                    [pair[0] for pair in pairs],
                    [pair[1] for pair in pairs],
                    expr.schema,
                    conjoin(residual) if residual else None,
                    combined,
                    batch_size,
                    output_positions=[
                        position - 1 for position in expr.positions
                    ],
                )
        return VProjectOp(
            expr.positions,
            expr.schema,
            plan_vector(operand, batch_size),
            batch_size,
        )
    if isinstance(expr, ExtendedProject):
        return VMapOp(
            expr.expressions,
            expr.schema,
            plan_vector(expr.operand, batch_size),
            batch_size,
        )
    if isinstance(expr, Unique):
        return VDistinctOp(
            plan_vector(expr.operand, batch_size), batch_size
        )
    if isinstance(expr, GroupBy):
        return VGroupByOp(
            expr.positions,
            expr.aggregate,
            expr.param_position,
            expr.schema,
            plan_vector(expr.operand, batch_size),
            batch_size,
        )
    if hasattr(expr, "reference_evaluate"):
        return VExtensionOp(expr, batch_size)
    raise EvaluationError(f"no physical plan rule for {type(expr).__name__}")
