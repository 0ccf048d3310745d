"""The concurrent query server: asyncio front, thread-pool execution.

One :class:`QueryServer` owns one shared :class:`~repro.database.Database`
and serves many concurrent connections over the newline-delimited JSON
protocol of :mod:`repro.server.protocol`.  The concurrency model:

* the **event loop** owns all connection I/O, all transaction pins, and
  every database mutation — pins and installs are single-threaded by
  construction;
* **query execution** (the CPU work) runs on a thread pool; relations
  are immutable values, so executor threads evaluate freely against
  snapshot environments without ever observing a half-written state;
* a single **write lock** (``asyncio.Lock``) serializes every mutating
  request end-to-end: auto-commit writes, DDL, and transaction commits.
  Readers never take it — they pin a snapshot and go;
* the shared :class:`~repro.cache.ConcurrentQueryCache` synchronizes its
  epoch snapshots with installs via its own lock (see
  :attr:`~repro.cache.ConcurrentQueryCache.synchronized`).

Admission control: a semaphore bounds in-flight executor work; when the
pool stays saturated past ``admission_timeout`` the request is refused
with ``REPRO-BUSY`` rather than queued without bound.  Each statement
gets ``query_timeout`` seconds of wall time; on expiry the client gets
``REPRO-TIMEOUT`` immediately while the abandoned thread finishes in the
background (its effects are discarded — a timed-out write never
installs, a timed-out transaction statement rolls the transaction back).

Shutdown drains: no new connections or requests are admitted, in-flight
requests get ``drain_timeout`` seconds to finish, then connections are
closed and idle transactions rolled back.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.cache import ConcurrentQueryCache
from repro.database import Database
from repro.errors import (
    ProtocolError,
    QueryTimeoutError,
    ReproError,
    ServerBusyError,
    ServerShutdownError,
)
from repro.language.context import ExecutionContext
from repro.language.transactions import check_constraints
from repro.obs import QueryLog
from repro.obs.telemetry import ResourceAccount, TelemetryServer
from repro.obs.trace import new_span_id
from repro.optimizer import optimize
from repro.relation import Relation
from repro.server.protocol import (
    MAX_LINE_BYTES,
    decode_request,
    encode_message,
    error_to_wire,
    hello_message,
    relation_to_wire,
)
from repro.server.sessions import ParsedScript, ServerSession
from repro.xra.parser import (
    CreateRelation,
    DeclareConstraint,
    DropConstraint,
    DropRelation,
    StatementItem,
    TransactionItem,
)

__all__ = ["ServerConfig", "QueryServer", "ServerHandle", "serve_in_background"]


class ServerConfig:
    """Tuning knobs for a :class:`QueryServer` (see ``docs/server.md``)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "repro",
        max_connections: int = 32,
        max_inflight: int = 8,
        workers: Optional[int] = None,
        admission_timeout: float = 5.0,
        query_timeout: float = 30.0,
        drain_timeout: float = 10.0,
        engine: str = "reference",
        optimize: bool = True,
        cache: Any = True,
        lint: Optional[str] = None,
        slow_query_threshold: Optional[float] = None,
        telemetry: Optional[int] = None,
        telemetry_host: str = "127.0.0.1",
    ) -> None:
        if engine not in ("reference", "vector"):
            raise ValueError(
                f"engine must be 'reference' or 'vector', not {engine!r}"
            )
        if lint not in (None, "warn", "strict"):
            raise ValueError(
                f"lint must be None, 'warn', or 'strict', not {lint!r}"
            )
        #: Interface / port to bind; port 0 picks an ephemeral port.
        self.host = host
        self.port = port
        #: Name announced in the hello banner.
        self.name = name
        #: Connections beyond this are refused with ``REPRO-BUSY``.
        self.max_connections = max_connections
        #: Executor slots; admission control bounds in-flight work here.
        self.max_inflight = max_inflight
        #: Thread-pool size (defaults to ``max_inflight``).
        self.workers = workers if workers is not None else max_inflight
        #: Seconds a request may wait for an executor slot / write lock.
        self.admission_timeout = admission_timeout
        #: Wall-clock budget per statement batch.
        self.query_timeout = query_timeout
        #: Seconds shutdown waits for in-flight requests.
        self.drain_timeout = drain_timeout
        #: ``"reference"`` evaluator or the physical ``"vector"`` engine.
        self.engine = engine
        #: Run the algebraic optimizer before evaluation.
        self.optimize = optimize
        #: ``True`` for a default shared cache, a
        #: :class:`~repro.cache.ConcurrentQueryCache` instance, or
        #: ``None``/``False`` for no caching.
        self.cache = cache
        #: ``None`` (off), ``"warn"`` (report), or ``"strict"`` (refuse
        #: XRA with error-severity lint findings, code ``REPRO-LINT``).
        self.lint = lint
        #: Seconds at/above which the query log flags a statement slow.
        self.slow_query_threshold = slow_query_threshold
        #: Port for the HTTP admin plane (``/metrics``, ``/healthz``,
        #: ``/readyz``, ``/slowlog``, ``/stats``); 0 picks an ephemeral
        #: port, None (the default) runs without telemetry.  Configuring
        #: a port also turns on metrics-only recording
        #: (:func:`repro.obs.enable_metrics`) for the process.
        self.telemetry = telemetry
        #: Interface the admin plane binds (loopback by default — the
        #: admin plane has no auth; expose it deliberately).
        self.telemetry_host = telemetry_host


class QueryServer:
    """A shared-database TCP query server with snapshot-isolated sessions."""

    def __init__(
        self,
        database: Optional[Database] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.database = database if database is not None else Database()
        self.config = config or ServerConfig()
        cache = self.config.cache
        if cache is None or cache is False:
            self.cache: Optional[ConcurrentQueryCache] = None
        elif cache is True:
            self.cache = ConcurrentQueryCache()
        elif isinstance(cache, ConcurrentQueryCache):
            self.cache = cache
        else:
            raise TypeError(
                "config.cache must be a ConcurrentQueryCache, True, or "
                f"None, not {cache!r}"
            )
        #: Integrity constraints declared over the shared database.
        self.constraints: List[object] = []
        #: Per-statement log with slow-query attribution (kind carries
        #: the client id).
        self.query_log = QueryLog(
            slow_threshold=self.config.slow_query_threshold
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-query",
        )
        self._write_lock: Optional[asyncio.Lock] = None
        self._admission: Optional[asyncio.Semaphore] = None
        self._sessions: Dict[int, ServerSession] = {}
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._tasks: set = set()
        self._next_client_id = 0
        self._draining = False
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        #: The HTTP admin plane, when config.telemetry is set.
        self.telemetry: Optional[TelemetryServer] = None
        self._metrics_enabled_here = False
        self._started_at: Optional[float] = None
        #: When the write lock was acquired (perf_counter), while held.
        self._write_lock_acquired_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``.

        When ``config.telemetry`` is set, the HTTP admin plane starts on
        the same event loop and metrics-only recording is switched on so
        ``/metrics`` has live totals to serve.
        """
        self._write_lock = asyncio.Lock()
        self._admission = asyncio.Semaphore(self.config.max_inflight)
        self._idle = asyncio.Event()
        self._idle.set()
        self._started_at = time.perf_counter()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES + 1024,
        )
        if self.config.telemetry is not None:
            if not obs.recording():
                obs.enable_metrics()
                self._metrics_enabled_here = True
            self.telemetry = TelemetryServer(
                host=self.config.telemetry_host,
                port=self.config.telemetry,
                health=self.health_payload,
                stats=self.stats_payload,
                slowlog=lambda: [
                    record.to_record()
                    for record in self.query_log.tail(limit=100)
                ],
            )
            await self.telemetry.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ephemeral port 0)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def telemetry_address(self) -> Optional[Tuple[str, int]]:
        """The admin plane's ``(host, port)``, or None when not configured."""
        if self.telemetry is None:
            return None
        return self.telemetry.address

    # -- introspection -----------------------------------------------------

    def health_payload(self) -> Dict[str, Any]:
        """Liveness/readiness snapshot served by ``/healthz``/``/readyz``.

        ``admission_saturated`` mirrors the admission semaphore: when
        every executor slot is occupied a new request would queue (and
        possibly be refused), so ``/readyz`` reports not-ready.
        """
        held = self._write_lock is not None and self._write_lock.locked()
        held_seconds = 0.0
        if held and self._write_lock_acquired_at is not None:
            held_seconds = time.perf_counter() - self._write_lock_acquired_at
        return {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "connections": len(self._sessions),
            "max_connections": self.config.max_connections,
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "admission_saturated": self._inflight >= self.config.max_inflight,
            "write_lock": {
                "held": held,
                "held_seconds": round(held_seconds, 6),
            },
            "logical_time": self.database.logical_time,
            "uptime_seconds": (
                round(time.perf_counter() - self._started_at, 3)
                if self._started_at is not None
                else None
            ),
        }

    def stats_payload(self) -> Dict[str, Any]:
        """Aggregated server statistics (``/stats``, the ``stats`` op).

        One composite document: health, registry totals for the headline
        counters, one :meth:`~repro.server.sessions.ServerSession.describe`
        record per live connection (with its accumulated resource
        account), the full metrics snapshot (the stable schema of
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), and query
        log tallies.
        """
        registry = obs.metrics()
        totals = {
            "requests": registry.total("server.requests"),
            "errors": registry.total("server.errors"),
            "timeouts": registry.total("server.timeouts"),
            "busy": registry.total("server.busy"),
            "refused": registry.total("server.refused"),
            "admitted": registry.total("server.admitted"),
            "commits": registry.total("server.transactions.committed"),
            "rollbacks": registry.total("server.transactions.rolled_back"),
        }
        return {
            "server": {"name": self.config.name, **self.health_payload()},
            "totals": totals,
            "connections": [
                session.describe() for session in self._sessions.values()
            ],
            "metrics": registry.snapshot(),
            "querylog": {
                "recorded": self.query_log.recorded,
                "slow": self.query_log.slow_count,
            },
        }

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Drain in-flight requests, then close every connection."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._idle is not None and self._inflight:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._idle.wait(), self.config.drain_timeout
                )
        for writer in list(self._writers.values()):
            with contextlib.suppress(Exception):
                writer.write(
                    encode_message(
                        {
                            "ok": False,
                            "error": error_to_wire(
                                ServerShutdownError("server shutting down")
                            ),
                        }
                    )
                )
                writer.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._executor.shutdown(wait=False)
        # The admin plane goes down last so a scraper can watch
        # ``/healthz`` flip to draining during the drain window above.
        if self.telemetry is not None:
            await self.telemetry.stop()
            self.telemetry = None
        if self._metrics_enabled_here:
            obs.disable_metrics()
            self._metrics_enabled_here = False

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        if self._draining or len(self._sessions) >= self.config.max_connections:
            error: ReproError = (
                ServerShutdownError("server shutting down")
                if self._draining
                else ServerBusyError(
                    f"connection limit ({self.config.max_connections}) reached"
                )
            )
            with contextlib.suppress(Exception):
                writer.write(
                    encode_message({"ok": False, "error": error_to_wire(error)})
                )
                await writer.drain()
                writer.close()
            obs.add("server.refused", code=type(error).wire_code)
            return
        client_id = self._next_client_id
        self._next_client_id += 1
        session = ServerSession(self, client_id)
        self._sessions[client_id] = session
        self._writers[client_id] = writer
        obs.add("server.connections.opened")
        obs.gauge("server.connections", len(self._sessions))
        try:
            writer.write(
                encode_message(
                    {
                        **hello_message(
                            self.config.name,
                            self.database.names(),
                            self.database.logical_time,
                        ),
                        "client_id": client_id,
                    }
                )
            )
            await writer.drain()
            await self._serve_session(session, reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            if session.txn is not None:
                session.txn = None
                obs.add("server.transactions.rolled_back", client=client_id)
            self._sessions.pop(client_id, None)
            self._writers.pop(client_id, None)
            obs.add("server.connections.closed")
            obs.gauge("server.connections", len(self._sessions))
            with contextlib.suppress(Exception):
                writer.close()

    async def _serve_session(
        self,
        session: ServerSession,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while not session.closed:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                # Oversized line: the framing is unrecoverable, answer
                # and hang up.
                await self._send(
                    writer,
                    {
                        "ok": False,
                        "error": error_to_wire(
                            ProtocolError(
                                f"request line exceeds {MAX_LINE_BYTES} bytes"
                            )
                        ),
                    },
                )
                return
            if not line:
                return  # EOF: client went away.
            if not line.strip():
                continue
            response = await self._handle_request(session, line)
            await self._send(writer, response)

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        writer.write(encode_message(message))
        await writer.drain()

    # -- request dispatch --------------------------------------------------

    async def _handle_request(
        self, session: ServerSession, line: bytes
    ) -> Dict[str, Any]:
        started = time.perf_counter()
        request_id: Any = None
        op = "?"
        text = ""
        trace_id: Optional[str] = None
        account: Optional[ResourceAccount] = None
        self._inflight += 1
        obs.gauge("server.inflight", self._inflight)
        if self._idle is not None:
            self._idle.clear()
        try:
            message = decode_request(line)
            request_id = message.get("id")
            op = message["op"]
            text = str(message.get("q", ""))
            # Propagated wire trace context (see docs/server.md): the
            # server-side request span links to the client's span so a
            # stitched export shows both sides of one query.
            trace = message.get("trace") or {}
            trace_id = str(trace.get("trace_id") or "") or None
            parent_span_id = str(trace.get("span_id") or "") or None
            if self._draining:
                raise ServerShutdownError("server is draining")
            session.requests += 1
            if op in ("xra", "sql"):
                account = ResourceAccount()
            span_attrs: Dict[str, Any] = {
                "op": op,
                "client": session.client_id,
            }
            if trace_id is not None:
                span_attrs["trace_id"] = trace_id
                span_attrs["parent_span_id"] = parent_span_id
            with obs.span("server.request", **span_attrs) as span:
                if span.recording:
                    span.set(span_id=new_span_id())
                response = await self._dispatch(session, op, message, account)
            obs.add("server.requests", op=op, client=session.client_id)
            response.setdefault("ok", True)
        except Exception as error:  # every failure becomes a wire error
            obs.add(
                "server.errors",
                code=error_to_wire(error)["code"],
                client=session.client_id,
            )
            response = {
                "ok": False,
                "error": error_to_wire(error),
                "in_transaction": session.in_transaction,
            }
        finally:
            self._inflight -= 1
            obs.gauge("server.inflight", self._inflight)
            if self._idle is not None and self._inflight == 0:
                self._idle.set()
        seconds = time.perf_counter() - started
        obs.observe("server.request_seconds", seconds, op=op)
        response["seconds"] = round(seconds, 6)
        if request_id is not None:
            response["id"] = request_id
        if account is not None:
            session.resources.merge(account)
            self._emit_session_gauges(session)
            response["resources"] = account.to_dict()
        if op in ("xra", "sql"):
            self.query_log.record(
                kind=f"client-{session.client_id}:{op}",
                text=text,
                seconds=seconds,
                logical_time=self.database.logical_time,
                resources=account.to_dict() if account is not None else None,
                trace_id=trace_id,
            )
        return response

    def _emit_session_gauges(self, session: ServerSession) -> None:
        """Per-connection resource gauges (labelled by client id)."""
        if not obs.recording():
            return
        client = session.client_id
        resources = session.resources
        obs.gauge("server.session.requests", session.requests, client=client)
        obs.gauge(
            "server.session.statements", session.statements, client=client
        )
        obs.gauge(
            "server.session.rows_scanned",
            resources.rows_scanned,
            client=client,
        )
        obs.gauge(
            "server.session.rows_emitted",
            resources.rows_emitted,
            client=client,
        )
        obs.gauge(
            "server.session.cache_hits", resources.cache_hits, client=client
        )
        obs.gauge(
            "server.session.cache_misses",
            resources.cache_misses,
            client=client,
        )
        ratio = resources.dedup_ratio
        if ratio is not None:
            obs.gauge(
                "server.session.dedup_ratio", round(ratio, 4), client=client
            )

    async def _dispatch(
        self,
        session: ServerSession,
        op: str,
        message: Dict[str, Any],
        account: Optional[ResourceAccount] = None,
    ) -> Dict[str, Any]:
        if op == "ping":
            return {
                "pong": True,
                "logical_time": self.database.logical_time,
            }
        if op == "stats":
            return {"stats": self.stats_payload()}
        if op == "tables":
            return {
                "relations": [
                    {
                        "name": name,
                        "rows": len(self.database.get(name)),
                        "epoch": self.database.epoch(name),
                    }
                    for name in self.database.names()
                ],
                "logical_time": self.database.logical_time,
            }
        if op == "close":
            session.closed = True
            return {"closed": True}
        if op == "begin":
            return self._op_begin(session)
        if op == "rollback":
            session.rollback()
            obs.add(
                "server.transactions.rolled_back", client=session.client_id
            )
            return {"rolled_back": True, "in_transaction": False}
        if op == "commit":
            return await self._op_commit(session)
        # xra / sql
        text = message["q"]
        if op == "xra":
            report = session.lint_gate(text)
            parsed = session.parse_xra(text)
        else:
            report = None
            parsed = session.parse_sql(text)
        session.statements += len(parsed.statements)
        if account is not None:
            account.statements += len(parsed.statements)
        if session.in_transaction:
            response = await self._op_statements_in_txn(
                session, parsed, account
            )
        elif parsed.read_only:
            response = await self._op_autocommit_read(session, parsed, account)
        else:
            response = await self._op_autocommit_write(
                session, parsed, account
            )
        if report is not None and self.config.lint == "warn":
            findings = [diagnostic.to_dict() for diagnostic in report]
            if findings:
                response["lint"] = findings
        return response

    # -- operations --------------------------------------------------------

    def _make_context(
        self,
        relations: Dict[str, Relation],
        account: Optional[ResourceAccount] = None,
    ) -> ExecutionContext:
        return ExecutionContext(
            relations,
            use_physical_engine=self.config.engine != "reference",
            optimizer=optimize if self.config.optimize else None,
            cache=self.cache,
            database=self.database,
            account=account,
        )

    def _pin_context(
        self, account: Optional[ResourceAccount] = None
    ) -> ExecutionContext:
        """Pin the current snapshot into a fresh execution context.

        Pins happen on the event loop, where installs happen too —
        snapshot, epochs, and logical time are mutually consistent.
        """
        with obs.span("server.snapshot.pin"):
            return self._make_context(
                dict(self.database.snapshot()), account
            )

    def _op_begin(self, session: ServerSession) -> Dict[str, Any]:
        session.begin(self._pin_context())
        obs.add("server.transactions.begun", client=session.client_id)
        return {
            "in_transaction": True,
            "logical_time": self.database.logical_time,
        }

    async def _op_autocommit_read(
        self,
        session: ServerSession,
        parsed: ParsedScript,
        account: Optional[ResourceAccount] = None,
    ) -> Dict[str, Any]:
        pinned_time = self.database.logical_time
        context = self._pin_context(account)
        outputs = await self._run_in_executor(
            lambda: session.run_statements(parsed.statements, context)
        )
        return {
            "results": [relation_to_wire(relation) for relation in outputs],
            "committed": False,
            "in_transaction": False,
            "logical_time": pinned_time,
        }

    async def _op_autocommit_write(
        self,
        session: ServerSession,
        parsed: ParsedScript,
        account: Optional[ResourceAccount] = None,
    ) -> Dict[str, Any]:
        await self._acquire_write_lock()
        hold_lock_past_return: List["asyncio.Future[Any]"] = []
        outputs: List[Relation] = []
        try:
            for item in parsed.items:
                if isinstance(item, CreateRelation):
                    with self._install_guard():
                        self.database.create_relation(item.schema)
                elif isinstance(item, DropRelation):
                    with self._install_guard():
                        self.database.drop_relation(item.name)
                elif isinstance(item, DeclareConstraint):
                    self.constraints.append(item.constraint)
                elif isinstance(item, DropConstraint):
                    self.constraints = [
                        constraint
                        for constraint in self.constraints
                        if getattr(constraint, "name", None) != item.name
                    ]
                else:
                    assert isinstance(item, (StatementItem, TransactionItem))
                    statements = (
                        [item.statement]
                        if isinstance(item, StatementItem)
                        else item.statements
                    )
                    context = self._pin_context(account)
                    outputs.extend(
                        await self._run_in_executor(
                            lambda s=statements, c=context: (
                                session.run_statements(s, c)
                            ),
                            abandoned=hold_lock_past_return,
                        )
                    )
                    await self._commit(context, hold_lock_past_return)
                    obs.add(
                        "server.transactions.committed",
                        client=session.client_id,
                    )
        finally:
            self._release_write_lock(hold_lock_past_return)
        return {
            "results": [relation_to_wire(relation) for relation in outputs],
            "committed": True,
            "in_transaction": False,
            "logical_time": self.database.logical_time,
        }

    async def _op_statements_in_txn(
        self,
        session: ServerSession,
        parsed: ParsedScript,
        account: Optional[ResourceAccount] = None,
    ) -> Dict[str, Any]:
        txn = session.require_txn()
        if parsed.has_ddl:
            raise ProtocolError(
                "DDL is not allowed inside a transaction; "
                "commit or rollback first"
            )
        # The pinned context outlives this request; meter it with this
        # request's account for the duration of the statement batch.
        txn.account = account
        try:
            outputs = await self._run_in_executor(
                lambda: session.run_statements(parsed.statements, txn)
            )
        except Exception:
            # Statements may have half-applied to the working state —
            # atomicity (Definition 4.3) demands the whole bracket die.
            session.txn = None
            obs.add(
                "server.transactions.rolled_back", client=session.client_id
            )
            raise
        finally:
            if session.txn is not None:
                txn.account = None
        return {
            "results": [relation_to_wire(relation) for relation in outputs],
            "committed": False,
            "in_transaction": True,
            "logical_time": txn.pinned_time,
        }

    async def _op_commit(self, session: ServerSession) -> Dict[str, Any]:
        txn = session.require_txn()
        written: List[str] = []
        # Without a net delta the transaction serializes at its begin:
        # no validation, no write lock, no transition.
        if any(txn.deltas().values()):
            await self._acquire_write_lock()
            hold_lock_past_return: List["asyncio.Future[Any]"] = []
            try:
                with obs.span("server.commit", client=session.client_id):
                    written = await self._commit(txn, hold_lock_past_return)
            except Exception:
                session.txn = None
                obs.add(
                    "server.transactions.rolled_back", client=session.client_id
                )
                raise
            finally:
                self._release_write_lock(hold_lock_past_return)
            obs.add("server.transactions.committed", client=session.client_id)
        session.txn = None
        return {
            "committed": True,
            "in_transaction": False,
            "relations": written,
            "logical_time": self.database.logical_time,
        }

    async def _commit(
        self,
        context: ExecutionContext,
        abandoned: List["asyncio.Future[Any]"],
    ) -> List[str]:
        """Commit ``context``; the caller holds the write lock.

        Validation and the install run on the event loop, the constraint
        check over head ⊕ Δ on the executor.  Returns the written names.
        """
        deltas = context.deltas()
        self.database.validate(context.pinned, context.reads, deltas)
        if self.constraints:
            await self._run_in_executor(
                lambda: check_constraints(
                    self.constraints, self.database.post_state(deltas)
                ),
                abandoned=abandoned,
            )
        with self._install_guard():
            self.database.commit(context.pinned, context.reads, deltas)
        return sorted(name for name, delta in deltas.items() if delta)

    # -- execution plumbing ------------------------------------------------

    def _install_guard(self):
        """Installs synchronize with the cache's epoch snapshots."""
        if self.cache is not None:
            return self.cache.synchronized
        return contextlib.nullcontext()

    async def _acquire_write_lock(self) -> None:
        assert self._write_lock is not None
        started = time.perf_counter()
        try:
            with obs.span("server.write_lock.wait"):
                await asyncio.wait_for(
                    self._write_lock.acquire(), self.config.admission_timeout
                )
        except asyncio.TimeoutError:
            obs.add("server.busy", where="write-lock")
            raise ServerBusyError(
                f"write lock not acquired within "
                f"{self.config.admission_timeout:g}s; retry later"
            ) from None
        now = time.perf_counter()
        obs.observe("server.write_lock_wait_seconds", now - started)
        self._write_lock_acquired_at = now

    def _release_write_lock(
        self, abandoned: List["asyncio.Future[Any]"]
    ) -> None:
        """Release now — or, if a timed-out thread still runs, when it ends.

        A write that timed out may still be executing on its thread; the
        write lock must outlive it so no other writer interleaves with a
        thread that is still reading the old state.
        """
        write_lock = self._write_lock
        assert write_lock is not None

        def _observe_hold() -> None:
            if self._write_lock_acquired_at is not None:
                obs.observe(
                    "server.write_lock_hold_seconds",
                    time.perf_counter() - self._write_lock_acquired_at,
                )
                self._write_lock_acquired_at = None

        pending = [future for future in abandoned if not future.done()]
        if not pending:
            if write_lock.locked():
                _observe_hold()
                write_lock.release()
            return
        remaining = {"n": len(pending)}

        def _on_done(_future: "asyncio.Future[Any]") -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0 and write_lock.locked():
                _observe_hold()
                write_lock.release()

        for future in pending:
            # run_in_executor futures complete on the event loop, so the
            # callback runs there too — safe to touch the asyncio lock.
            future.add_done_callback(_on_done)

    async def _run_in_executor(
        self,
        fn: Callable[[], Any],
        abandoned: Optional[List["asyncio.Future[Any]"]] = None,
    ) -> Any:
        """Run ``fn`` on the pool under admission control and a timeout.

        The admission slot is released when the *thread* finishes, not
        when the await returns — a timed-out thread keeps occupying its
        slot, so saturation reflects real work.  ``abandoned`` collects
        the still-running future on timeout for lock-transfer handling.
        """
        assert self._admission is not None
        admission_started = time.perf_counter()
        try:
            with obs.span("server.admission.wait"):
                await asyncio.wait_for(
                    self._admission.acquire(), self.config.admission_timeout
                )
        except asyncio.TimeoutError:
            obs.add("server.busy", where="executor")
            raise ServerBusyError(
                f"executor pool saturated for "
                f"{self.config.admission_timeout:g}s; retry later"
            ) from None
        obs.add("server.admitted")
        obs.observe(
            "server.admission_wait_seconds",
            time.perf_counter() - admission_started,
        )
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, fn)
        future.add_done_callback(self._release_admission)
        try:
            with obs.span("server.execute"):
                return await asyncio.wait_for(
                    asyncio.shield(future), self.config.query_timeout
                )
        except asyncio.TimeoutError:
            if abandoned is not None:
                abandoned.append(future)
            obs.add("server.timeouts")
            raise QueryTimeoutError(self.config.query_timeout) from None

    def _release_admission(self, future: "asyncio.Future[Any]") -> None:
        assert self._admission is not None
        self._admission.release()
        if not future.cancelled():
            future.exception()  # consume, so abandonment never warns


# -- embedding helper --------------------------------------------------------


class ServerHandle:
    """A server running on a background thread (tests, docs, notebooks)."""

    def __init__(
        self,
        server: QueryServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully shut the server down and join its thread.

        Idempotent — a second call (e.g. fixture teardown after an
        explicit stop) is a no-op.
        """
        if self._stopped or self._loop.is_closed():
            self._stopped = True
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        )
        with contextlib.suppress(Exception):
            future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve_in_background(
    database: Optional[Database] = None,
    config: Optional[ServerConfig] = None,
) -> ServerHandle:
    """Start a :class:`QueryServer` on its own thread and event loop.

    Returns once the socket is bound; ``handle.address`` is the
    ``(host, port)`` to connect to and ``handle.stop()`` (or the context
    manager form) drains and stops it.
    """
    server = QueryServer(database, config)
    started = threading.Event()
    failure: List[BaseException] = []
    holder: Dict[str, asyncio.AbstractEventLoop] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # surface bind errors to the caller
            failure.append(error)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, daemon=True, name="repro-server")
    thread.start()
    if not started.wait(30):
        raise RuntimeError("server did not start within 30s")
    if failure:
        raise failure[0]
    return ServerHandle(server, holder["loop"], thread)
