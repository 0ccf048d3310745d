"""The extended relational algebra statements (Definition 4.1).

Five constructs, each defined by the paper through the algebra itself:

* ``insert(R, E)``      —  R ← R ⊎ E
* ``delete(R, E)``      —  R ← R − E
* ``update(R, E, α)``   —  R ← (R − E) ⊎ π̂_α(R ∩ E)   (α structure-preserving)
* ``R := E``            —  binds a new temporary relational variable
* ``?E``                —  sends E's value to the user (no state effect)

Statements execute against an :class:`~repro.language.context.ExecutionContext`
(a working state); the transaction layer decides whether that working
state is ever installed.  Because every statement is *defined* via the
algebra, the implementations below literally build the defining
expressions — there is no second update semantics to drift out of sync.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra import (
    AlgebraExpr,
    ExtendedProject,
    LiteralRelation,
)
from repro.algebra.base import ConditionLike, as_condition
from repro.engine import evaluate
from repro.errors import SchemaMismatchError
from repro.language.context import ExecutionContext
from repro.multiset import Delta

__all__ = ["Statement", "Insert", "Delete", "Update", "Assign", "Query"]


class Statement:
    """Base class for statements.  ``execute`` mutates the context."""

    def execute(self, context: ExecutionContext) -> None:
        raise NotImplementedError


class Insert(Statement):
    """``insert(R, E)`` — add the elements of E to R: ``R ← R ⊎ E``."""

    def __init__(self, target: str, expression: AlgebraExpr) -> None:
        self.target = target
        self.expression = expression

    def execute(self, context: ExecutionContext) -> None:
        current = context.get_relation(self.target)
        addition = context.evaluate(self.expression)
        if not addition.schema.compatible_with(current.schema):
            raise SchemaMismatchError(
                current.schema, addition.schema, f"insert into {self.target!r}"
            )
        context.set_relation(
            self.target, current.apply_delta(Delta(plus=addition.tuples))
        )

    def __repr__(self) -> str:
        return f"insert({self.target}, {self.expression!r})"


class Delete(Statement):
    """``delete(R, E)`` — remove the elements of E from R: ``R ← R − E``."""

    def __init__(self, target: str, expression: AlgebraExpr) -> None:
        self.target = target
        self.expression = expression

    def execute(self, context: ExecutionContext) -> None:
        current = context.get_relation(self.target)
        removal = context.evaluate(self.expression)
        if not removal.schema.compatible_with(current.schema):
            raise SchemaMismatchError(
                current.schema, removal.schema, f"delete from {self.target!r}"
            )
        # R − E = R − (R ∩ E) never floors; R ∩ E reads R.
        context.reads.add(self.target)
        matched = current.intersection(removal)
        context.set_relation(
            self.target, current.apply_delta(Delta(minus=matched.tuples))
        )

    def __repr__(self) -> str:
        return f"delete({self.target}, {self.expression!r})"


class Update(Statement):
    """``update(R, E, α)`` — modify the tuples of R that are in E.

    Semantics (Definition 4.1): ``R ← (R − E) ⊎ π̂_α(R ∩ E)`` where the
    attribute-expression list α must be *structure preserving* — the
    extended projection's result schema must equal R's schema.  The
    multiplicity arithmetic falls out of the algebra: tuples of R not in
    E keep their multiplicity via the monus, tuples in both are rewritten
    by α with their intersected multiplicity.
    """

    def __init__(
        self,
        target: str,
        expression: AlgebraExpr,
        assignments: Sequence[ConditionLike],
    ) -> None:
        self.target = target
        self.expression = expression
        self.assignments = tuple(as_condition(entry) for entry in assignments)

    def execute(self, context: ExecutionContext) -> None:
        current = context.get_relation(self.target)
        selector = context.evaluate(self.expression)
        if not selector.schema.compatible_with(current.schema):
            raise SchemaMismatchError(
                current.schema, selector.schema, f"update {self.target!r}"
            )
        if len(self.assignments) != current.schema.degree:
            raise SchemaMismatchError(
                current.schema,
                self.assignments,
                f"update {self.target!r} attribute expression list arity",
            )
        context.reads.add(self.target)  # R ∩ E reads R
        matched = current.intersection(selector)
        rewritten_expr = ExtendedProject(
            self.assignments,
            LiteralRelation(matched),
            names=current.schema.names(),
        )
        if not rewritten_expr.is_structure_preserving():
            raise SchemaMismatchError(
                current.schema,
                rewritten_expr.schema,
                f"update {self.target!r} attribute expression list",
            )
        # π̂_α over a literal reads no relation: evaluated through the
        # query cache it would only park entries no epoch can invalidate.
        rewritten = evaluate(rewritten_expr, {})
        context.set_relation(
            self.target,
            current.apply_delta(Delta(matched.tuples, rewritten.tuples)),
        )

    def __repr__(self) -> str:
        entries = ", ".join(repr(entry) for entry in self.assignments)
        return f"update({self.target}, {self.expression!r}, ({entries}))"


class Assign(Statement):
    """``R := E`` — bind a new, implicitly defined relational variable.

    The variable is a *temporary* relation: visible to later statements
    of the same program/transaction, removed at commit (Definition 4.3's
    intermediate states "are not normal database states as they may
    contain temporary relations defined by assignment statements").
    """

    def __init__(self, target: str, expression: AlgebraExpr) -> None:
        self.target = target
        self.expression = expression

    def execute(self, context: ExecutionContext) -> None:
        context.bind_temporary(self.target, context.evaluate(self.expression))

    def __repr__(self) -> str:
        return f"{self.target} := {self.expression!r}"


class Query(Statement):
    """``?E`` — send E's value to the user; no effect on the database."""

    def __init__(self, expression: AlgebraExpr) -> None:
        self.expression = expression

    def execute(self, context: ExecutionContext) -> None:
        context.outputs.append(context.evaluate(self.expression))

    def __repr__(self) -> str:
        return f"?{self.expression!r}"
