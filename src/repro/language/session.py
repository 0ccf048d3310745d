"""A convenient front door: sessions and interactive transactions.

:class:`Session` ties a database to an evaluation strategy (reference or
physical engine, optimizer on/off, cache, lint and analyze modes,
integrity constraints, query log).  It is the one object that decides
how a statement runs: the XRA interpreter, the CLI shell and the query
server all build their working states with :meth:`Session.context`.
It offers:

* ``session.plan(expr)`` — the :class:`~repro.cache.Plan` the session
  runs ``expr`` with (normal form, fingerprint, read set, physical
  plan); ``?E``, the server, the shell's ``.explain`` and ``.profile``
  and :meth:`Session.explain_analyze` all run or show this one plan;
* ``session.query(expr)`` — evaluate a read-only expression now;
* ``session.insert/delete/update/assign`` — auto-commit single-statement
  transactions;
* ``with session.transaction() as txn:`` — an open transaction whose
  statements execute immediately against a private working state;
  normal exit commits, an exception (or ``txn.abort()``) rolls back.

The paper's advice — "transactions are the best level for database
access in practice" — is what this module operationalises.

A session optionally carries a :class:`~repro.obs.QueryLog`: every
query and transaction run through it is then recorded with its wall
time, plan (normal form and fingerprint), result cardinalities, and the
logical time it ran at, and statements at/above the log's slow
threshold are flagged (the CLI's ``.slowlog``).  Without a log — the
default — nothing is timed and the paths are as cheap as before.

A session also optionally carries a :class:`~repro.cache.QueryCache`
(``Session(db, cache=True)`` or ``cache=QueryCache(...)``): plans are
kept in its plan level, repeated reads are served from the
epoch-invalidated result cache, and the query log marks such statements
"served from cache".  One cache object may be shared between sessions
over the same database.

Finally, ``Session(db, analyze=True)`` (or :meth:`Session.set_analyze`)
turns on EXPLAIN ANALYZE mode: every :meth:`Session.query` executes
fully instrumented, keeps the annotated estimate-vs-actual report as
``session.last_analyze``, and feeds the observed cardinalities into
the session's statistics catalog, which it then plans with.  Queries
outside analyze mode (like the server's) optimize without a catalog,
so the feedback does not re-plan them.  One-off reports of the served
plan come from :meth:`Session.explain_analyze`.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.algebra import AlgebraExpr, RelationRef, render
from repro.algebra.base import ConditionLike
from repro.cache import Plan, QueryCache, build_plan
from repro.database import Database
from repro.engine.statistics import StatisticsCatalog
from repro.errors import TransactionAbort, TransactionError
from repro.language.context import ExecutionContext
from repro.language.statements import Assign, Delete, Insert, Query, Statement, Update
from repro.language.transactions import Transaction, TransactionResult, commit
from repro import obs
from repro.obs import QueryLog
from repro.optimizer import optimize
from repro.relation import Relation

__all__ = ["Session", "ActiveTransaction"]


class Session:
    """A database session with a fixed evaluation strategy."""

    def __init__(
        self,
        database: Database,
        use_physical_engine: bool = True,
        use_optimizer: bool = True,
        constraints: Sequence[object] = (),
        query_log: Optional[QueryLog] = None,
        slow_query_threshold: Optional[float] = None,
        cache: Optional[object] = None,
        analyze: bool = False,
        lint: Optional[object] = None,
    ) -> None:
        self.database = database
        self.use_physical_engine = use_physical_engine
        self.constraints: List[object] = list(constraints)
        #: The optimizer plans are made with: ``optimize``, its
        #: strict-lint checked form (see :meth:`set_lint`), or None.
        self._optimizer: Optional[Callable[..., AlgebraExpr]] = (
            optimize if use_optimizer else None
        )
        #: Query/plan cache; None disables caching.  ``cache=True``
        #: creates a private :class:`~repro.cache.QueryCache`.
        self._cache: Optional[QueryCache] = None
        if cache is not None and cache is not False:
            self.set_cache(cache)
        #: When True, every :meth:`query` runs through EXPLAIN ANALYZE
        #: and its actual cardinalities feed the analyze catalog (see
        #: :meth:`explain_analyze`).
        self._analyze = bool(analyze)
        #: Long-lived statistics catalog for analyze runs; accumulates
        #: observed cardinalities across queries (created on first use).
        self._analyze_catalog: Optional[StatisticsCatalog] = None
        #: The most recent :class:`~repro.obs.analyze.AnalyzeReport`.
        self.last_analyze: Optional[object] = None
        #: Lint mode: None (off), "warn", or "strict"; see :meth:`set_lint`.
        self._lint: Optional[str] = None
        if lint is not None and lint is not False:
            self.set_lint(lint)
        #: The most recent :class:`~repro.lint.LintReport` (lint mode on).
        self.last_lint: Optional[object] = None
        #: Per-statement log; None disables logging entirely.
        self.query_log = query_log
        if slow_query_threshold is not None:
            if self.query_log is None:
                self.query_log = QueryLog(slow_threshold=slow_query_threshold)
            else:
                self.query_log.slow_threshold = slow_query_threshold

    # -- caching ------------------------------------------------------------

    @property
    def cache(self) -> Optional[QueryCache]:
        """The session's query cache, or None when caching is off."""
        return self._cache

    def set_cache(self, cache: Optional[object]) -> Optional[QueryCache]:
        """Attach, replace, or remove the session's query cache.

        ``cache`` may be a :class:`~repro.cache.QueryCache` (possibly
        shared with other sessions), ``True`` for a fresh default-sized
        one, or ``None``/``False`` to disable caching.
        """
        if cache is None or cache is False:
            self._cache = None
        elif cache is True:
            self._cache = QueryCache()
        elif isinstance(cache, QueryCache):
            self._cache = cache
        else:
            raise TypeError(
                f"cache must be a QueryCache, True, or None, not {cache!r}"
            )
        return self._cache

    # -- static analysis (repro.lint) ---------------------------------------

    @property
    def lint_mode(self) -> Optional[str]:
        """``None`` (off), ``"warn"``, or ``"strict"``."""
        return self._lint

    def set_lint(self, mode: Optional[object]) -> Optional[str]:
        """Set the session's lint mode.

        ``mode`` may be ``None``/``False`` (off), ``True`` or ``"warn"``
        (lint every query/statement, keep the report as
        :attr:`last_lint`), or ``"strict"`` (additionally refuse to
        execute on error-severity findings, and run the optimized-plan
        consistency check on every execution).
        """
        if mode is None or mode is False or mode == "off":
            self._lint = None
        elif mode is True or mode in ("warn", "on"):
            self._lint = "warn"
        elif mode == "strict":
            self._lint = "strict"
        else:
            raise ValueError(
                f"lint mode must be None, 'warn', or 'strict', not {mode!r}"
            )
        if self._optimizer is not None:
            from repro.lint import checked_optimize

            self._optimizer = (
                checked_optimize if self._lint == "strict" else optimize
            )
        return self._lint

    def lint(self, expr: AlgebraExpr) -> "object":
        """Lint one expression; returns the :class:`~repro.lint.LintReport`.

        Always available, independent of the session's lint mode.
        """
        from repro.lint import lint_expression

        report = lint_expression(expr)
        self.last_lint = report
        return report

    def _lint_gate(self, report: "object") -> "object":
        """Keep ``report`` as :attr:`last_lint`; raise on errors in strict mode."""
        from repro.errors import LintError

        self.last_lint = report
        if self._lint == "strict" and not report.ok:
            raise LintError(report)
        return report

    def _lint_statements(self, statements: Sequence[Statement]) -> None:
        """Lint a statement batch per the session mode."""
        from repro.lint import LintReport, lint_statement

        report = LintReport()
        for statement in statements:
            report = report.extend(
                lint_statement(statement, self.database.schema.get)
            )
        self._lint_gate(report)

    def lint_script(self, text: str) -> Optional[object]:
        """Lint a whole XRA script per the session mode, before it runs.

        Returns the report (``None`` with lint off); in strict mode
        error-severity findings raise :class:`~repro.errors.LintError`,
        so a script that would fail halfway never starts.
        """
        if self._lint is None:
            return None
        from repro.lint import lint_script

        return self._lint_gate(lint_script(text, self.database.schema.get))

    # -- integrity constraints -----------------------------------------------

    def declare_constraint(self, constraint: object) -> None:
        """Check ``constraint`` at every later commit through this session."""
        self.constraints.append(constraint)

    def drop_constraint(self, name: str) -> None:
        """Forget every declared constraint called ``name``."""
        self.constraints = [
            constraint
            for constraint in self.constraints
            if getattr(constraint, "name", None) != name
        ]

    # -- EXPLAIN ANALYZE ----------------------------------------------------

    @property
    def analyze(self) -> bool:
        """True while every query runs through EXPLAIN ANALYZE."""
        return self._analyze

    def set_analyze(
        self, on: bool, catalog: Optional[StatisticsCatalog] = None
    ) -> None:
        """Toggle analyze mode; optionally install a statistics catalog.

        The catalog persists across queries (it is what accumulates the
        observed cardinalities), so toggling off and on again keeps the
        feedback already gathered unless a new catalog is supplied.
        """
        if on and not self.use_physical_engine:
            raise ValueError(
                "EXPLAIN ANALYZE requires the physical engine "
                "(use_physical_engine=True)"
            )
        self._analyze = bool(on)
        if catalog is not None:
            self._analyze_catalog = catalog

    def analyze_catalog(self) -> StatisticsCatalog:
        """The session's analyze-feedback catalog (created on first use).

        Seeded with exact statistics of the current database state;
        :meth:`explain_analyze` then folds observed per-subexpression
        cardinalities into it, so estimates track runtime truth even as
        the heuristic formulas drift from it.
        """
        if self._analyze_catalog is None:
            self._analyze_catalog = StatisticsCatalog.from_env(
                self.database.snapshot()
            )
        return self._analyze_catalog

    def explain_analyze(
        self, expr: AlgebraExpr, record: bool = True
    ) -> "object":
        """Run :meth:`plan`'s plan instrumented; return the report.

        Estimates come from the analyze catalog; the result relation
        rides along as ``report.result``.  With ``record`` (the default)
        the run's actual cardinalities feed that catalog, so analyze-mode
        planning of the same subexpressions uses observed numbers — and
        the report is kept as :attr:`last_analyze` (the CLI's
        ``.analyze`` reads it back).
        """
        if not self.use_physical_engine:
            raise ValueError(
                "EXPLAIN ANALYZE requires the physical engine "
                "(use_physical_engine=True)"
            )
        from repro.obs.analyze import analyze_plan

        report = analyze_plan(
            self.plan(expr),
            expr,
            self.database.snapshot(),
            self.analyze_catalog(),
            record=record,
            cache=self._cache,
        )
        self.last_analyze = report
        return report

    # -- plans and working states ------------------------------------------------

    def plan(self, expr: AlgebraExpr) -> Plan:
        """The one plan this session runs ``expr`` with.

        ``?E``, :meth:`query`, the server, the shell's ``.explain`` and
        ``.profile`` and :meth:`explain_analyze` all run or show it.  It
        uses the session's optimizer (plan-consistency checked in strict
        lint mode) and the plan level of an attached cache.  In analyze
        mode it optimizes with the analyze catalog and is not cached:
        the catalog changes with every analyzed run.
        """
        if self._analyze:
            return build_plan(
                expr, self._optimizer, catalog=self.analyze_catalog()
            )
        return self.context().plan(expr)

    def context(self, account: Optional[object] = None) -> ExecutionContext:
        """A working state over the database's current snapshot.

        It evaluates with this session's strategy; ``account`` optionally
        meters its evaluations.
        """
        return ExecutionContext(
            self.database.snapshot(),
            use_physical_engine=self.use_physical_engine,
            optimizer=self._optimizer,
            cache=self._cache,
            database=self.database,
            account=account,
        )

    # -- expression building ----------------------------------------------

    def relation(self, name: str) -> RelationRef:
        """An algebra leaf for the named base relation."""
        return RelationRef(name, self.database.schema.get(name))

    # -- read-only access ----------------------------------------------------

    def query(self, expr: AlgebraExpr) -> Relation:
        """Evaluate ``expr`` against the current state (no transaction)."""
        log = self.query_log
        if self._lint is not None:
            self._lint_gate(self.lint(expr))
        if self._analyze:
            report = self.explain_analyze(expr)
            result = report.result
            if log is not None:
                log.record(
                    kind="analyze",
                    text=render(expr),
                    seconds=report.seconds,
                    plan=report.optimized,
                    rows=len(result),
                    distinct=result.distinct_count,
                    logical_time=self.database.logical_time,
                    fingerprint=report.fingerprint,
                )
            return result
        if log is None and not obs.enabled():
            return self.context().evaluate(expr)
        started = time.perf_counter()
        hits_before = (
            self._cache.stats.result_hits if self._cache is not None else 0
        )
        with obs.span(
            "session.query", logical_time=self.database.logical_time
        ) as span:
            context = self.context()
            plan = context.plan(expr)
            result = context.run(plan)
            if span.recording:
                span.set(rows=len(result), pairs=result.distinct_count)
        seconds = time.perf_counter() - started
        obs.add("session.queries")
        if log is not None:
            plan_text = render(plan.normalized)
            if (
                self._cache is not None
                and self._cache.stats.result_hits > hits_before
            ):
                plan_text = f"{plan_text} (served from cache)"
            log.record(
                kind="query",
                text=render(expr),
                seconds=seconds,
                plan=plan_text,
                rows=len(result),
                distinct=result.distinct_count,
                logical_time=self.database.logical_time,
                fingerprint=plan.fingerprint,
            )
        return result

    # -- auto-commit statements ------------------------------------------------

    def run(self, statements: Sequence[Statement]) -> TransactionResult:
        """Run ``statements`` as one transaction."""
        if self._lint is not None:
            self._lint_statements(statements)
        log = self.query_log
        started = time.perf_counter() if log is not None else 0.0
        result = Transaction(statements).execute(
            self.context(), self.constraints
        )
        if log is not None:
            text = "; ".join(repr(statement) for statement in statements)
            log.record(
                kind="commit" if result.committed else "abort",
                text=text if len(text) <= 200 else text[:197] + "...",
                seconds=time.perf_counter() - started,
                rows=sum(len(output) for output in result.outputs),
                logical_time=self.database.logical_time,
            )
        return result

    def insert(self, target: str, expression: AlgebraExpr) -> TransactionResult:
        return self.run([Insert(target, expression)])

    def delete(self, target: str, expression: AlgebraExpr) -> TransactionResult:
        return self.run([Delete(target, expression)])

    def update(
        self,
        target: str,
        expression: AlgebraExpr,
        assignments: Sequence[ConditionLike],
    ) -> TransactionResult:
        return self.run([Update(target, expression, assignments)])

    # -- interactive transactions --------------------------------------------------

    def transaction(self) -> "ActiveTransaction":
        """Open transaction brackets; use as a context manager."""
        return ActiveTransaction(self)


class ActiveTransaction:
    """An open transaction: statements run immediately on a working state.

    Normal ``with`` exit commits; an exception inside the block — or an
    explicit :meth:`abort` — rolls everything back (the database is
    untouched either way until commit).
    """

    def __init__(self, session: Session) -> None:
        self._session = session
        self._context = session.context()
        self._finished = False

    # -- statements -----------------------------------------------------------

    def _require_open(self) -> None:
        if self._finished:
            raise TransactionError("transaction already finished")

    def insert(self, target: str, expression: AlgebraExpr) -> None:
        self._require_open()
        Insert(target, expression).execute(self._context)

    def delete(self, target: str, expression: AlgebraExpr) -> None:
        self._require_open()
        Delete(target, expression).execute(self._context)

    def update(
        self,
        target: str,
        expression: AlgebraExpr,
        assignments: Sequence[ConditionLike],
    ) -> None:
        self._require_open()
        Update(target, expression, assignments).execute(self._context)

    def assign(self, target: str, expression: AlgebraExpr) -> None:
        self._require_open()
        Assign(target, expression).execute(self._context)

    def query(self, expression: AlgebraExpr) -> Relation:
        """``?E`` — evaluated against the transaction's working state."""
        self._require_open()
        Query(expression).execute(self._context)
        return self._context.outputs[-1]

    def relation(self, name: str) -> RelationRef:
        """An algebra leaf resolving in this transaction's working state.

        Temporaries bound by :meth:`assign` are visible here, unlike in
        :meth:`Session.relation`.
        """
        self._require_open()
        return RelationRef(name, self._context.get_relation(name).schema)

    # -- brackets -----------------------------------------------------------------

    def commit(self) -> TransactionResult:
        """Close the brackets: commit ``D^{t+1}`` or abort on a conflict."""
        self._require_open()
        self._finished = True
        try:
            transition = commit(self._context, self._session.constraints)
        except TransactionAbort as abort:
            obs.add("transactions.aborted")
            return TransactionResult(
                False, self._context.outputs, abort, None, []
            )
        obs.add("transactions.committed")
        return TransactionResult(
            True, self._context.outputs, None, transition, []
        )

    def abort(self, reason: str = "user abort") -> None:
        """Roll back explicitly (raises :class:`TransactionAbort`)."""
        raise TransactionAbort(reason)

    def __enter__(self) -> "ActiveTransaction":
        return self

    def __exit__(self, exc_type, exc_value, _traceback) -> bool:
        if self._finished:
            return False
        if exc_type is None:
            result = self.commit()
            if not result.committed:
                # Conflict or constraint violation at the end bracket.
                assert result.error is not None
                raise result.error
            return False
        # Any exception aborts; the database was never touched.
        self._finished = True
        obs.add("transactions.aborted")
        return isinstance(exc_value, TransactionAbort)
