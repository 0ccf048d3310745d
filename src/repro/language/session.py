"""A convenient front door: sessions and interactive transactions.

:class:`Session` ties a database to an evaluation strategy (reference or
physical engine, optimizer on/off) and offers:

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
time, plan shape, result cardinalities, and the logical time it ran at,
and statements at/above the log's slow threshold are flagged (the CLI's
``.slowlog``).  Without a log — the default — nothing is timed and the
paths are as cheap as before.

A session also optionally carries a :class:`~repro.cache.QueryCache`
(``Session(db, cache=True)`` or ``cache=QueryCache(...)``): repeated
reads are then served from the epoch-invalidated result cache, and the
query log marks such statements "served from cache".  One cache object
may be shared between sessions (and the XRA interpreter) over the same
database.

Finally, ``Session(db, analyze=True)`` (or :meth:`Session.set_analyze`)
turns on EXPLAIN ANALYZE mode: every :meth:`Session.query` executes
fully instrumented, keeps the annotated estimate-vs-actual report as
``session.last_analyze``, and feeds the observed cardinalities back
into the session's statistics catalog so repeated queries re-plan with
runtime truth.  One-off reports come from
:meth:`Session.explain_analyze` without switching modes.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.algebra import AlgebraExpr, RelationRef, render
from repro.algebra.base import ConditionLike
from repro.cache import QueryCache
from repro.cache.fingerprint import fingerprint as expr_fingerprint
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
        self._optimizer: Optional[Callable[[AlgebraExpr], AlgebraExpr]] = (
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
        return self._lint

    def lint(self, expr: AlgebraExpr) -> "object":
        """Lint one expression; returns the :class:`~repro.lint.LintReport`.

        Always available, independent of the session's lint mode.
        """
        from repro.lint import lint_expression

        report = lint_expression(expr)
        self.last_lint = report
        return report

    def _lint_gate(self, expr: AlgebraExpr) -> None:
        """Lint ``expr`` per the session mode; raise in strict mode."""
        from repro.errors import LintError

        report = self.lint(expr)
        if self._lint == "strict" and not report.ok:
            raise LintError(report)

    def _lint_statements(self, statements: Sequence[Statement]) -> None:
        """Lint a statement batch per the session mode."""
        from repro.errors import LintError
        from repro.lint import LintReport, lint_statement

        report = LintReport()
        for statement in statements:
            report = report.extend(
                lint_statement(statement, self.database.schema.get)
            )
        self.last_lint = report
        if self._lint == "strict" and not report.ok:
            raise LintError(report)

    def _exec_optimizer(
        self,
    ) -> Optional[Callable[[AlgebraExpr], AlgebraExpr]]:
        """The optimizer execution contexts should use.

        In strict lint mode the optimizer is wrapped with the
        optimized-plan consistency check, so the rewriter soundness
        gate runs on *every* execution (queries, statements, and open
        transactions all funnel through here).
        """
        if self._lint == "strict" and self._optimizer is not None:
            return self._checked_optimizer
        return self._optimizer

    def _checked_optimizer(self, expr: AlgebraExpr) -> AlgebraExpr:
        from repro.errors import LintError
        from repro.lint import check_plan_consistency

        assert self._optimizer is not None
        optimized = self._optimizer(expr)
        report = check_plan_consistency(expr, optimized)
        if not report.ok:
            raise LintError(report)
        return optimized

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
        """Run ``expr`` instrumented; return the estimate-vs-actual report.

        The result relation rides along as ``report.result``.  With
        ``record`` (the default) the run's actual cardinalities feed the
        session's analyze catalog, so the next planning of the same
        subexpressions uses observed numbers — and the report is kept as
        :attr:`last_analyze` (the CLI's ``.analyze`` reads it back).
        """
        if not self.use_physical_engine:
            raise ValueError(
                "EXPLAIN ANALYZE requires the physical engine "
                "(use_physical_engine=True)"
            )
        from repro.obs.analyze import analyze as run_analyze

        report = run_analyze(
            expr,
            self.database.snapshot(),
            catalog=self.analyze_catalog(),
            use_optimizer=self._optimizer is not None,
            record=record,
            cache=self._cache,
        )
        self.last_analyze = report
        return report

    def _fingerprint_for(self, expr: AlgebraExpr) -> str:
        """The cache-correlatable fingerprint of ``expr`` for the log.

        Prefers the plan-cache entry's normal-form fingerprint (the key
        the result cache uses), falling back to fingerprinting the raw
        tree when the cache has not seen the expression.
        """
        if self._cache is not None:
            cached = self._cache.fingerprint_for(
                expr, self._optimizer is not None
            )
            if cached is not None:
                return cached
        return expr_fingerprint(expr)

    # -- expression building ----------------------------------------------

    def relation(self, name: str) -> RelationRef:
        """An algebra leaf for the named base relation."""
        return RelationRef(name, self.database.schema.get(name))

    # -- read-only access ----------------------------------------------------

    def query(self, expr: AlgebraExpr) -> Relation:
        """Evaluate ``expr`` against the current state (no transaction)."""
        log = self.query_log
        if self._lint is not None:
            self._lint_gate(expr)
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
                    fingerprint=self._fingerprint_for(expr),
                )
            return result
        if log is None and not obs.enabled():
            context = ExecutionContext(
                self.database.snapshot(),
                use_physical_engine=self.use_physical_engine,
                optimizer=self._exec_optimizer(),
                cache=self._cache,
                database=self.database,
            )
            return context.evaluate(expr)
        started = time.perf_counter()
        hits_before = (
            self._cache.stats.result_hits if self._cache is not None else 0
        )
        with obs.span(
            "session.query", logical_time=self.database.logical_time
        ) as span:
            context = ExecutionContext(
                self.database.snapshot(),
                use_physical_engine=self.use_physical_engine,
                optimizer=self._exec_optimizer(),
                cache=self._cache,
                database=self.database,
            )
            result = context.evaluate(expr)
            if span.recording:
                span.set(rows=len(result), pairs=result.distinct_count)
        seconds = time.perf_counter() - started
        obs.add("session.queries")
        served_from_cache = (
            self._cache is not None
            and self._cache.stats.result_hits > hits_before
        )
        if log is not None:
            # Plan shape: the physical plan captured by the trace when
            # available (cost already paid), else the logical rendering.
            plan_text = render(expr)
            tracer = obs.tracer()
            if tracer is not None:
                plan_spans = [
                    span for span in tracer.spans if span.name == "plan"
                ]
                if plan_spans:
                    plan_text = plan_spans[-1].attrs.get("shape", plan_text)
            if served_from_cache:
                plan_text = f"{plan_text} (served from cache)"
            log.record(
                kind="query",
                text=render(expr),
                seconds=seconds,
                plan=plan_text,
                rows=len(result),
                distinct=result.distinct_count,
                logical_time=self.database.logical_time,
                fingerprint=self._fingerprint_for(expr),
            )
        return result

    # -- auto-commit statements ------------------------------------------------

    def run(self, statements: Sequence[Statement]) -> TransactionResult:
        """Run ``statements`` as one transaction."""
        if self._lint is not None:
            self._lint_statements(statements)
        transaction = Transaction(statements)
        log = self.query_log
        started = time.perf_counter() if log is not None else 0.0
        result = transaction.run(
            self.database,
            use_physical_engine=self.use_physical_engine,
            optimizer=self._exec_optimizer(),
            constraints=self.constraints,
            cache=self._cache,
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
        self._context = ExecutionContext(
            session.database.snapshot(),
            use_physical_engine=session.use_physical_engine,
            optimizer=session._exec_optimizer(),
            cache=session._cache,
            database=session.database,
        )
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
