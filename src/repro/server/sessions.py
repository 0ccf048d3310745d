"""Per-connection server sessions with epoch-pinned snapshots.

One :class:`ServerSession` lives for the duration of one client
connection.  Outside transaction brackets every request is auto-commit:
reads pin the current state for just that statement, writes run under
the server's global write lock.  ``begin`` pins a snapshot *and* the
per-relation epochs at that instant; until ``commit``/``rollback`` every
statement of the connection executes against that pinned working state —
reads see the snapshot (plus the transaction's own writes), never a
concurrent committer's.  At ``commit`` the working state's net deltas
go to :meth:`~repro.database.Database.commit`, which validates that
every relation the transaction read is still at its pinned epoch and
applies the deltas to the current head; a stale read aborts the
transaction with ``REPRO-CONFLICT``.  Committed transactions are
therefore serializable in logical-time order.

The session itself is plain synchronous state; the asyncio orchestration
(locks, executor dispatch, timeouts) lives in
:mod:`repro.server.core`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ProtocolError
from repro.language.context import ExecutionContext
from repro.obs.telemetry import ResourceAccount
from repro.language.statements import Query, Statement
from repro.relation import Relation
from repro.sql.ast import SelectQuery
from repro.sql.parser import parse_sql
from repro.sql.translate import translate_statement
from repro.xra.parser import (
    DDL_ITEMS,
    ScriptItem,
    StatementItem,
    TransactionItem,
    parse_script,
)

__all__ = ["ServerSession", "ParsedScript"]


class ParsedScript:
    """A classified request body: DDL items and/or plain statements."""

    __slots__ = ("items", "statements", "has_ddl", "read_only")

    def __init__(self, items: Sequence[ScriptItem]) -> None:
        self.items = list(items)
        self.statements: List[Statement] = []
        self.has_ddl = False
        for item in self.items:
            if isinstance(item, DDL_ITEMS):
                self.has_ddl = True
            elif isinstance(item, StatementItem):
                self.statements.append(item.statement)
            elif isinstance(item, TransactionItem):
                self.statements.extend(item.statements)
        self.read_only = not self.has_ddl and all(
            isinstance(statement, Query) for statement in self.statements
        )


class ServerSession:
    """State for one client connection."""

    def __init__(self, server: "object", client_id: int) -> None:
        self.server = server
        self.database = server.database  # type: ignore[attr-defined]
        self.client_id = client_id
        #: The open transaction's pinned working state (which carries its
        #: epochs, reads and deltas for commit), or None between brackets.
        self.txn: Optional[ExecutionContext] = None
        self.closed = False
        #: Request/statement counters surfaced as per-connection metrics.
        self.requests = 0
        self.statements = 0
        #: Lifetime resource tallies — every request's
        #: :class:`~repro.obs.telemetry.ResourceAccount` is merged in.
        self.resources = ResourceAccount()

    def describe(self) -> Dict[str, object]:
        """This connection's row in the ``stats`` payload."""
        return {
            "client": self.client_id,
            "requests": self.requests,
            "statements": self.statements,
            "in_transaction": self.in_transaction,
            "resources": self.resources.to_dict(),
        }

    # -- parsing / classification ----------------------------------------

    def parse_xra(self, text: str) -> ParsedScript:
        """Parse an XRA request body against the current schema."""
        return ParsedScript(parse_script(text, self.database.schema.get))

    def parse_sql(self, text: str) -> ParsedScript:
        """Parse one SQL statement into the same classified form."""
        parsed = parse_sql(text)
        translated = translate_statement(parsed, self.database.schema)
        if isinstance(parsed, SelectQuery):
            statement: Statement = Query(translated)
        else:
            statement = translated
        return ParsedScript([StatementItem(statement)])

    # -- transaction brackets --------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

    def begin(self, context: ExecutionContext) -> None:
        if self.txn is not None:
            raise ProtocolError(
                "transaction already open (commit or rollback first)"
            )
        self.txn = context

    def require_txn(self) -> ExecutionContext:
        if self.txn is None:
            raise ProtocolError("no open transaction (send 'begin' first)")
        return self.txn

    def rollback(self) -> None:
        """Discard the pinned working state (the database was never touched)."""
        self.require_txn()
        self.txn = None

    # -- statement execution (runs on executor threads) -------------------

    @staticmethod
    def run_statements(
        statements: Sequence[Statement], context: ExecutionContext
    ) -> List[Relation]:
        """Execute ``statements`` in order against ``context``.

        Returns the query outputs this batch produced (the context
        accumulates across a transaction; only the new tail is
        returned).  Exceptions propagate — the caller decides whether
        they abort a pinned transaction or just the one auto-commit
        request.
        """
        before = len(context.outputs)
        for statement in statements:
            statement.execute(context)
        return context.outputs[before:]
