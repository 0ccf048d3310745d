"""Interpreter for XRA scripts.

Runs a script through a :class:`~repro.language.Session` (one over a
bare :class:`~repro.database.Database` by default), which decides the
engine, optimizer, cache, lint and analyze modes and constraints:

* ``create`` / ``drop`` DDL takes effect immediately (schema evolution
  sits outside the transaction model, as in PRISMA/DB practice);
* a bare statement auto-commits as a singleton transaction;
* a bracketed statement list runs atomically (Definition 4.3) — one
  failing statement rolls the whole group back and the interpreter
  reports the abort instead of half-applied state.

Query (``?E``) outputs accumulate across the script in order.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.database import Database
from repro.errors import XRARuntimeError
from repro.language import Session, Transaction, TransactionResult
from repro.language.statements import Query
from repro.relation import Relation
from repro.xra.parser import (
    DDL_ITEMS,
    ScriptItem,
    StatementItem,
    TransactionItem,
    parse_script,
)

__all__ = ["XRAInterpreter", "ScriptResult"]


class ScriptResult:
    """Everything a script produced."""

    __slots__ = ("outputs", "transactions", "analyze_reports", "lint_report")

    def __init__(self) -> None:
        #: Results of ``?E`` statements, in script order.
        self.outputs: List[Relation] = []
        #: One result per executed (bare or bracketed) transaction.
        self.transactions: List[TransactionResult] = []
        #: EXPLAIN ANALYZE reports for ``?E`` statements, in script
        #: order (populated only while the session's analyze mode is
        #: on; see :meth:`repro.language.Session.set_analyze`).
        self.analyze_reports: List[object] = []
        #: The script's :class:`~repro.lint.LintReport` (lint mode on),
        #: or None while the session runs with lint off.
        self.lint_report: Optional[object] = None

    @property
    def committed(self) -> bool:
        """True when every transaction in the script committed."""
        return all(result.committed for result in self.transactions)

    def __repr__(self) -> str:
        status = "ok" if self.committed else "had aborts"
        return (
            f"<ScriptResult {len(self.transactions)} transaction(s), "
            f"{len(self.outputs)} output(s), {status}>"
        )


class XRAInterpreter:
    """Executes XRA scripts through a :class:`~repro.language.Session`.

    The session decides how each statement runs (engine, optimizer,
    cache, lint and analyze modes, constraints); a bare
    :class:`~repro.database.Database` is wrapped in a default session.
    """

    def __init__(self, session: Union[Session, Database]) -> None:
        if isinstance(session, Database):
            session = Session(session)
        self.session = session

    def run(self, text: str) -> ScriptResult:
        """Parse and execute a whole script.

        With the session's lint mode on, the whole script is linted
        *first* (it sees the pre-script database schema); in strict mode
        error findings abort the run before any statement executes, so a
        script that would fail halfway never starts.
        """
        result = ScriptResult()
        result.lint_report = self.session.lint_script(text)
        for item in parse_script(text, self.session.database.schema.get):
            self._run_item(item, result)
        return result

    def _run_item(self, item: ScriptItem, result: ScriptResult) -> None:
        session = self.session
        if isinstance(item, DDL_ITEMS):
            item.apply(session)
            return
        if (
            session.analyze
            and isinstance(item, StatementItem)
            and isinstance(item.statement, Query)
        ):
            # A bare read in analyze mode: run it instrumented.  Reads
            # have no effect on the database, so a synthetic committed
            # transaction result keeps the script accounting uniform.
            report = session.explain_analyze(item.statement.expression)
            result.analyze_reports.append(report)
            result.outputs.append(report.result)
            result.transactions.append(
                TransactionResult(True, [report.result], None, None, [])
            )
            return
        if isinstance(item, StatementItem):
            statements = [item.statement]
        elif isinstance(item, TransactionItem):
            statements = item.statements
        else:  # pragma: no cover - parser produces only the above
            raise XRARuntimeError(f"unknown script item {item!r}")
        outcome = Transaction(statements).execute(
            session.context(), session.constraints
        )
        result.transactions.append(outcome)
        result.outputs.extend(outcome.outputs)
