"""Transactions (Definition 4.3): atomic execution of programs.

A transaction is a program in *transaction brackets* executed against a
database state ``D^t``.  During execution the database passes through
intermediate states ``D^{t.0} = D^t, D^{t.1}, ..., D^{t.n}`` which may
contain temporary relations and "have no semantics beyond the execution
of T".  The end bracket either

* **commits**: temporaries are dropped and the net delta of each written
  base relation is applied as ``D^{t+1}`` (one single-step transition); or
* **aborts**: the working state is discarded — the database is unchanged
  (it was never written before commit, so there is nothing to undo).

Atomicity is the property this module enforces:
``T(D) = D^{t.n}|_base`` or ``T(D) = D`` — nothing in between is ever
visible.  Isolation is serializability: transactions run against pinned
snapshots, and :meth:`~repro.database.Database.commit` aborts one with
:class:`~repro.errors.TransactionConflictError` if a base relation it
read was changed by another commit since.  Durability is out of scope
for an in-memory reproduction (the paper's model is PRISMA/DB, a
main-memory system).  Correctness hooks are integrity constraints
(:mod:`repro.extensions.constraints`) checked before commit.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Optional, Sequence

from repro.algebra import AlgebraExpr
from repro.database import Database, DatabaseTransition
from repro.errors import TransactionAbort
from repro import obs
from repro.language.context import ExecutionContext
from repro.language.programs import Program
from repro.language.statements import Statement
from repro.relation import Relation

__all__ = ["Transaction", "TransactionResult", "IntermediateState", "check_constraints", "commit"]

#: A snapshot of one intermediate state D^{t.i}: (statement index, relations
#: including temporaries at that point).
IntermediateState = tuple


def check_constraints(
    constraints: Sequence[object], state: Mapping[str, Relation]
) -> None:
    """Run integrity constraints against a would-be post-state."""
    for constraint in constraints:
        check = getattr(constraint, "check", None)
        if check is None:
            raise TypeError(f"{constraint!r} is not a constraint")
        check(state)


def commit(
    context: ExecutionContext, constraints: Sequence[object] = ()
) -> DatabaseTransition:
    """The end bracket: validate, check constraints on head ⊕ Δ, commit.

    A conflict or violation raises :class:`~repro.errors.TransactionAbort`.
    """
    database = context.database
    deltas = context.deltas()
    if constraints:
        database.validate(context.pinned, context.reads, deltas)
        check_constraints(constraints, database.post_state(deltas))
    with obs.span("commit", logical_time=database.logical_time):
        return database.commit(context.pinned, context.reads, deltas)


class TransactionResult:
    """Outcome of running a transaction."""

    __slots__ = ("committed", "outputs", "error", "transition", "intermediate_states")

    def __init__(
        self,
        committed: bool,
        outputs: List[Relation],
        error: Optional[BaseException],
        transition: Optional[DatabaseTransition],
        intermediate_states: List[IntermediateState],
    ) -> None:
        self.committed = committed
        self.outputs = outputs
        self.error = error
        self.transition = transition
        self.intermediate_states = intermediate_states

    def __repr__(self) -> str:
        status = "committed" if self.committed else "aborted"
        return f"<TransactionResult {status}, {len(self.outputs)} output(s)>"


class Transaction:
    """A program enclosed in transaction brackets: ``(a1; ...; an)``."""

    def __init__(self, program: Program | Iterable[Statement]) -> None:
        if isinstance(program, Program):
            self.program = program
        else:
            self.program = Program(program)

    def run(
        self,
        database: Database,
        use_physical_engine: bool = False,
        optimizer: Optional[Callable[[AlgebraExpr], AlgebraExpr]] = None,
        constraints: Sequence["object"] = (),
        record_intermediate_states: bool = False,
        cache: Optional[object] = None,
    ) -> TransactionResult:
        """Execute against ``database`` with full atomicity.

        Any exception raised by a statement — including an explicit
        :class:`~repro.errors.TransactionAbort`, constraint violations
        and commit conflicts — aborts the transaction: its working state
        is discarded, nothing is installed, and the exception is
        reported in the result (never re-raised for
        :class:`TransactionAbort`; other exceptions propagate, since
        they are bugs rather than semantics).  The database itself is
        never written before :meth:`~repro.database.Database.commit`,
        so an abort cannot disturb commits made by other sessions in the
        meantime.

        ``cache`` optionally carries a :class:`~repro.cache.QueryCache`
        for the reads this transaction performs.  Because relation
        epochs advance only at :meth:`~repro.database.Database.commit`,
        an abort leaves the epoch picture untouched — cache entries
        valid before the transaction stay valid after the rollback, and
        nothing computed from the discarded working state
        can have been cached (the cache bypasses modified relations).
        """
        context = ExecutionContext(
            database.snapshot(),
            use_physical_engine=use_physical_engine,
            optimizer=optimizer,
            cache=cache,
            database=database,
        )
        return self.execute(context, constraints, record_intermediate_states)

    def execute(
        self,
        context: ExecutionContext,
        constraints: Sequence["object"] = (),
        record_intermediate_states: bool = False,
    ) -> TransactionResult:
        """Run in the fresh working state ``context``, then commit it.

        :meth:`run` with the strategy already chosen: a
        :class:`~repro.language.Session` passes a context from
        :meth:`~repro.language.Session.context`.
        """
        database = context.database
        intermediate_states: List[IntermediateState] = []
        if record_intermediate_states:
            intermediate_states.append((0, dict(context.environment())))
        with obs.span(
            "transaction",
            statements=len(self.program),
            logical_time=database.logical_time,
        ) as span:
            try:
                for index, (statement, _ctx) in enumerate(
                    self.program.execute_stepwise(context), start=1
                ):
                    if record_intermediate_states:
                        intermediate_states.append(
                            (index, dict(context.environment()))
                        )
                # The end bracket drops temporaries and commits D^{t+1}.
                transition = commit(context, constraints)
            except TransactionAbort as abort:
                span.set(outcome="abort", reason=str(abort))
                obs.add("transactions.aborted")
                return TransactionResult(
                    False, context.outputs, abort, None, intermediate_states
                )
            span.set(outcome="commit", committed_time=database.logical_time)
            obs.add("transactions.committed")
        return TransactionResult(
            True, context.outputs, None, transition, intermediate_states
        )

    def __repr__(self) -> str:
        return f"({self.program!r})"
