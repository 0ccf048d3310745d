"""Interpreter for XRA scripts.

Runs a script against a :class:`~repro.database.Database`:

* ``create`` / ``drop`` DDL takes effect immediately (schema evolution
  sits outside the transaction model, as in PRISMA/DB practice);
* a bare statement auto-commits as a singleton transaction;
* a bracketed statement list runs atomically (Definition 4.3) — one
  failing statement rolls the whole group back and the interpreter
  reports the abort instead of half-applied state.

Query (``?E``) outputs accumulate across the script in order.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.algebra import AlgebraExpr
from repro.database import Database
from repro.errors import XRARuntimeError
from repro.language import Transaction, TransactionResult
from repro.language.statements import Query
from repro.optimizer import optimize
from repro.relation import Relation
from repro.xra.parser import (
    CreateRelation,
    DeclareConstraint,
    DropConstraint,
    DropRelation,
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
        #: order (populated only while the interpreter's analyze mode
        #: is on; see :meth:`XRAInterpreter.set_analyze`).
        self.analyze_reports: List[object] = []
        #: The script's :class:`~repro.lint.LintReport` (lint mode on),
        #: or None while the interpreter runs with lint off.
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
    """Executes XRA scripts against a database."""

    def __init__(
        self,
        database: Database,
        use_physical_engine: bool = True,
        use_optimizer: bool = True,
        constraints: Sequence[object] = (),
        cache: Optional[object] = None,
    ) -> None:
        self.database = database
        self.use_physical_engine = use_physical_engine
        self.constraints = list(constraints)
        self._optimizer: Optional[Callable[[AlgebraExpr], AlgebraExpr]] = (
            optimize if use_optimizer else None
        )
        #: Optional :class:`~repro.cache.QueryCache` for script reads —
        #: usually the same object the surrounding session uses, so
        #: XRA, SQL, and library queries share one cache.
        self.cache = cache
        #: While True, ``?E`` statements run through EXPLAIN ANALYZE
        #: (reports land in :attr:`ScriptResult.analyze_reports`).
        self.analyze = False
        #: Lint mode: None (off), "warn", or "strict"; see :meth:`set_lint`.
        self.lint: Optional[str] = None
        #: Long-lived statistics catalog accumulating analyze feedback.
        self._analyze_catalog: Optional[object] = None

    def set_cache(self, cache: Optional[object]) -> None:
        """Attach or remove the interpreter's query cache."""
        self.cache = cache

    def set_lint(self, mode: Optional[object]) -> Optional[str]:
        """Set the interpreter's lint mode.

        Same contract as :meth:`repro.language.Session.set_lint`:
        ``None``/``False``/``"off"`` disables linting, ``True`` /
        ``"warn"`` / ``"on"`` lints every script before running it and
        attaches the report as :attr:`ScriptResult.lint_report`, and
        ``"strict"`` additionally refuses to run a script with
        error-severity findings.
        """
        if mode is None or mode is False or mode == "off":
            self.lint = None
        elif mode is True or mode in ("warn", "on"):
            self.lint = "warn"
        elif mode == "strict":
            self.lint = "strict"
        else:
            raise ValueError(
                f"lint mode must be None, 'warn', or 'strict', not {mode!r}"
            )
        return self.lint

    def set_analyze(self, on: bool, catalog: Optional[object] = None) -> None:
        """Toggle EXPLAIN ANALYZE for ``?E`` statements.

        The feedback catalog survives toggling, so observed
        cardinalities keep improving plans across the whole shell
        session unless a fresh ``catalog`` is supplied.
        """
        if on and not self.use_physical_engine:
            raise ValueError(
                "EXPLAIN ANALYZE requires the physical engine "
                "(use_physical_engine=True)"
            )
        self.analyze = bool(on)
        if catalog is not None:
            self._analyze_catalog = catalog

    def analyze_catalog(self) -> object:
        """The interpreter's analyze-feedback catalog (lazily created)."""
        from repro.engine.statistics import StatisticsCatalog

        if self._analyze_catalog is None:
            self._analyze_catalog = StatisticsCatalog.from_env(
                self.database.snapshot()
            )
        return self._analyze_catalog

    def run(self, text: str) -> ScriptResult:
        """Parse and execute a whole script.

        With lint mode on, the whole script is linted *first* (it sees
        the pre-script database schema); in strict mode error findings
        abort the run before any statement executes, so a script that
        would fail halfway never starts.
        """
        result = ScriptResult()
        if self.lint is not None:
            from repro.errors import LintError
            from repro.lint import lint_script

            report = lint_script(text, self.database.schema.get)
            result.lint_report = report
            if self.lint == "strict" and not report.ok:
                raise LintError(report)
        items = parse_script(text, self.database.schema.get)
        for item in items:
            self._run_item(item, result)
        return result

    def _run_item(self, item: ScriptItem, result: ScriptResult) -> None:
        if isinstance(item, CreateRelation):
            self.database.create_relation(item.schema)
            return
        if isinstance(item, DropRelation):
            self.database.drop_relation(item.name)
            return
        if isinstance(item, DeclareConstraint):
            self.constraints.append(item.constraint)
            return
        if isinstance(item, DropConstraint):
            self.constraints = [
                constraint
                for constraint in self.constraints
                if getattr(constraint, "name", None) != item.name
            ]
            return
        if (
            self.analyze
            and isinstance(item, StatementItem)
            and isinstance(item.statement, Query)
        ):
            # A bare read in analyze mode: run it instrumented.  Reads
            # have no effect on the database, so a synthetic committed
            # transaction result keeps the script accounting uniform.
            from repro.obs.analyze import analyze as run_analyze

            report = run_analyze(
                item.statement.expression,
                self.database.snapshot(),
                catalog=self.analyze_catalog(),
                use_optimizer=self._optimizer is not None,
                record=True,
                cache=self.cache,
            )
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
        transaction = Transaction(statements)
        outcome = transaction.run(
            self.database,
            use_physical_engine=self.use_physical_engine,
            optimizer=self._optimizer,
            constraints=self.constraints,
            cache=self.cache,
        )
        result.transactions.append(outcome)
        result.outputs.extend(outcome.outputs)
