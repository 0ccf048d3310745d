"""Translation of logical algebra expressions into vectorized plans.

Mirrors :mod:`repro.engine.planner` rule for rule — equi-join detection
(with residual conjuncts) and the Theorem 3.1 fusion of a selection over
a product into a join — but emits the batch operators of
:mod:`repro.engine.vector.operators`.  Two extra vector-specific
rewrites:

* **Selection fusion**: a stack of selections ``σ_a(σ_b(E))`` plans as
  one :class:`~repro.engine.vector.operators.VFilterOp` whose compiled
  kernel evaluates the fused conjunction ``a and b`` in a single pass.
* **Pair-stream fallbacks**: operators with no batch formulation
  (cartesian product, theta joins, extension nodes) reuse the
  pair-stream operators over vector children — the two engines
  interoperate freely inside one plan.
"""

from __future__ import annotations

from typing import List

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
from repro.engine.iterators import NestedLoopJoinOp, PhysicalOp, ProductOp
from repro.engine.planner import _ExtensionOp, extract_equi_conjuncts
from repro.engine.vector.batch import DEFAULT_BATCH_SIZE
from repro.engine.vector.operators import (
    VDifferenceOp,
    VDistinctOp,
    VFilterOp,
    VGroupByOp,
    VHashJoinOp,
    VIntersectOp,
    VLiteralOp,
    VMapOp,
    VProjectOp,
    VScanOp,
    VUnionOp,
)
from repro.errors import EvaluationError
from repro.expressions import ScalarExpr, conjoin
from repro.expressions.compile import compile_row
from repro.schema import RelationSchema

__all__ = ["plan_vector"]


def _plan_join(
    left: AlgebraExpr,
    right: AlgebraExpr,
    condition: ScalarExpr,
    schema: RelationSchema,
    batch_size: int,
) -> PhysicalOp:
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
    # Theta join: the nested-loop pairs operator, but with a compiled
    # predicate and vector children feeding it through the adapter.
    return NestedLoopJoinOp(
        left_plan, right_plan, compile_row(condition, combined), schema
    )


def plan_vector(
    expr: AlgebraExpr, batch_size: int = DEFAULT_BATCH_SIZE
) -> PhysicalOp:
    """Translate a logical expression into a vectorized physical plan."""
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
        return VFilterOp(condition, child, repr(condition), batch_size)
    if isinstance(expr, Product):
        # No batch formulation — the pairs product streams over the
        # vector children through the adapter.
        return ProductOp(
            plan_vector(expr.left, batch_size),
            plan_vector(expr.right, batch_size),
            expr.schema,
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
        return _ExtensionOp(expr)
    raise EvaluationError(f"no vector plan rule for {type(expr).__name__}")
