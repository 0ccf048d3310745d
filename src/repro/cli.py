"""Command-line shell for the multi-set algebra.

Usage::

    python -m repro                 # interactive XRA shell
    python -m repro script.xra      # run an XRA script file
    python -m repro --sql script.sql  # run a file of SQL statements
    python -m repro serve --port 7474   # start the concurrent query server
    python -m repro --connect HOST:PORT  # shell against a running server

Interactive input is XRA by default; statements run when their
terminating ``;`` arrives (multi-line input is buffered).  Meta-commands
start with a dot:

    .help                 this text
    .tables               list relations with sizes
    .schema NAME          show one relation's schema
    .sql  STATEMENT       run one SQL statement (query or DML)
    .explain EXPRESSION   show the session's plan of an XRA query: logical
                          and optimized tree, fingerprint, physical plan
    .profile EXPRESSION   run that plan with per-operator counters
                          (pairs / rows / ms per plan node)
    .analyze EXPRESSION   EXPLAIN ANALYZE: run the query instrumented
                          and show estimated vs. actual rows, wall time,
                          and dedup counts per operator (≥10× misses
                          flagged ⚠); actuals feed back into planning.
                          ``.analyze on`` / ``.analyze off`` makes every
                          query run this way
    .trace on [PATH]      enable tracing + metrics; spans stream as
                          JSON lines to PATH (default repro-trace.jsonl)
    .trace off            disable tracing (closes the trace file)
    .metrics              session metrics: queries, per-operator rows
                          and pairs, optimizer rule hits, transactions
    .slowlog [SECONDS]    show statements at/above the slow threshold;
                          with SECONDS, set the threshold instead
    .slowlog all          show the full query log (recent entries)
    .cache on [MB]        cache query results (epoch-invalidated) with
                          an optional size budget in MiB (default 64);
                          .cache off disables, .cache clear empties,
                          .cache stats shows hit/miss/eviction counts,
                          bare .cache shows the status
    .lint on|off|strict   lint every statement before running it: "on"
                          prints warnings and runs anyway, "strict"
                          refuses to execute on error findings and
                          cross-checks every optimized plan; bare .lint
                          shows the status
    .lint TEXT            statically lint an XRA statement (or script)
                          without executing it
    .load NAME PATH       load a typed-header CSV file as relation NAME
    .save NAME PATH       save relation NAME as CSV
    .time                 show the database's logical time
    .quit                 leave
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, TextIO

from repro.algebra import render
from repro.cache import QueryCache
from repro.database import Database
from repro.errors import ReproError
from repro import obs
from repro.relation import format_relation, relation_from_csv, relation_to_csv
from repro.sql.ast import SelectQuery
from repro.sql.parser import parse_sql
from repro.sql.translate import translate_statement
from repro.language import Session
from repro.xra import XRAInterpreter
from repro.xra.parser import StatementItem, parse_script

__all__ = ["Shell", "main"]


class Shell:
    """The REPL engine, factored for testability (streams injectable)."""

    PROMPT = "xra> "
    CONTINUATION = "...> "

    #: Default slow-query threshold (seconds) for the .slowlog command.
    SLOW_THRESHOLD = 1.0

    def __init__(
        self,
        database: Optional[Database] = None,
        out: TextIO = sys.stdout,
        err: TextIO = sys.stderr,
    ) -> None:
        self.database = database or Database()
        self.query_log = obs.QueryLog(slow_threshold=self.SLOW_THRESHOLD)
        #: The one session that runs XRA, SQL and meta-command queries:
        #: its cache, lint and analyze modes and constraints apply to all.
        self.session = Session(self.database, query_log=self.query_log)
        self.interpreter = XRAInterpreter(self.session)
        self.out = out
        self.err = err
        self._buffer: List[str] = []
        self._trace_path: Optional[str] = None
        #: Every AnalyzeReport produced this session (``.analyze`` runs
        #: and analyze-mode statements) — the --trace-events exporter
        #: turns these into operator flame-graph lanes.
        self.analyze_reports: List[object] = []

    # -- output helpers -------------------------------------------------

    def print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def print_error(self, error: BaseException) -> None:
        self.err.write(f"error: {error}\n")

    def show_relation(self, relation) -> None:
        self.print(format_relation(relation, show_multiplicity=True))

    # -- the loop --------------------------------------------------------------

    def run(self, source: TextIO) -> int:
        """Read-eval-print until EOF or ``.quit``; returns an exit code."""
        interactive = source is sys.stdin and sys.stdin.isatty()
        while True:
            if interactive:
                prompt = self.CONTINUATION if self._buffer else self.PROMPT
                self.out.write(prompt)
                self.out.flush()
            line = source.readline()
            if not line:
                return 0
            if not self._buffer and line.strip().startswith("."):
                if self.handle_meta(line.strip()) == "quit":
                    return 0
                continue
            self._buffer.append(line)
            if self._statement_complete():
                text = "".join(self._buffer)
                self._buffer = []
                self.execute_xra(text)

    def _statement_complete(self) -> bool:
        """True once the buffered text ends a statement (top-level ';')."""
        text = "".join(self._buffer)
        depth = 0
        in_string = False
        complete = False
        for char in text:
            if in_string:
                if char == "'":
                    in_string = False
                continue
            if char == "'":
                in_string = True
            elif char in "([{":
                depth += 1
            elif char in ")]}":
                depth -= 1
            elif char == ";" and depth == 0:
                complete = True
        return complete and depth <= 0

    # -- execution -------------------------------------------------------------------

    def execute_xra(self, text: str) -> None:
        import time

        started = time.perf_counter()
        try:
            result = self.interpreter.run(text)
        except ReproError as error:
            self.print_error(error)
            return
        stripped = " ".join(text.split())
        self.query_log.record(
            kind="xra",
            text=stripped if len(stripped) <= 200 else stripped[:197] + "...",
            seconds=time.perf_counter() - started,
            rows=sum(len(output) for output in result.outputs),
            logical_time=self.database.logical_time,
        )
        if result.lint_report is not None and not result.lint_report.clean:
            self.print(result.lint_report.render())
        for report in result.analyze_reports:
            self.analyze_reports.append(report)
            self.print(str(report))
        for output in result.outputs:
            self.show_relation(output)
        aborted = [r for r in result.transactions if not r.committed]
        for outcome in aborted:
            self.print(f"aborted: {outcome.error}")

    def execute_sql(self, text: str) -> None:
        try:
            parsed = parse_sql(text)
            translated = translate_statement(parsed, self.database.schema)
            if isinstance(parsed, SelectQuery):
                self.show_relation(self.session.query(translated))
            else:
                # Through the session so the statement lands in the
                # query log and runs with the session's engine/optimizer.
                outcome = self.session.run([translated])
                if outcome.committed:
                    self.print(f"ok (t={self.database.logical_time})")
                else:
                    self.print(f"aborted: {outcome.error}")
        except ReproError as error:
            self.print_error(error)

    # -- meta-commands -----------------------------------------------------------------

    def handle_meta(self, line: str) -> Optional[str]:
        command, _, argument = line.partition(" ")
        argument = argument.strip()
        if command in (".quit", ".exit"):
            return "quit"
        if command == ".help":
            self.print(__doc__ or "")
            return None
        if command == ".tables":
            for name in self.database.names():
                relation = self.database[name]
                self.print(
                    f"{name:20s} {len(relation):8d} tuple(s), "
                    f"{relation.distinct_count} distinct"
                )
            return None
        if command == ".schema":
            try:
                self.print(repr(self.database.schema.get(argument)))
            except ReproError as error:
                self.print_error(error)
            return None
        if command == ".sql":
            self.execute_sql(argument)
            return None
        if command == ".explain":
            self.explain(argument)
            return None
        if command == ".profile":
            self.profile(argument)
            return None
        if command == ".analyze":
            self.analyze_command(argument)
            return None
        if command == ".lint":
            self.lint_command(argument)
            return None
        if command == ".load":
            self.load_csv(argument)
            return None
        if command == ".save":
            self.save_csv(argument)
            return None
        if command == ".time":
            self.print(f"logical time: {self.database.logical_time}")
            return None
        if command == ".trace":
            self.trace_command(argument)
            return None
        if command == ".metrics":
            self.metrics_command()
            return None
        if command == ".slowlog":
            self.slowlog_command(argument)
            return None
        if command == ".cache":
            self.cache_command(argument)
            return None
        self.print(f"unknown command {command!r}; try .help")
        return None

    # -- observability commands -------------------------------------------------

    def trace_command(self, argument: str) -> None:
        """``.trace on [PATH]`` / ``.trace off``."""
        mode, _, path = argument.partition(" ")
        if mode == "on":
            path = path.strip() or "repro-trace.jsonl"
            try:
                sink = obs.JsonLinesSink(path)
                obs.enable(sink=sink)
            except OSError as error:
                self.print_error(error)
                return
            self._trace_path = path
            self.print(f"tracing on -> {path}")
            return
        if mode == "off":
            obs.disable()
            if self._trace_path is not None:
                self.print(f"tracing off (trace in {self._trace_path})")
                self._trace_path = None
            else:
                self.print("tracing off")
            return
        status = "on" if obs.enabled() else "off"
        self.print(f"tracing is {status}; usage: .trace on [PATH] | .trace off")

    def metrics_command(self) -> None:
        """``.metrics`` — the session's accumulated counters."""
        self.print(obs.render_summary(obs.metrics(), obs.tracer()))
        if not obs.enabled():
            self.print("(observability is off; .trace on to start collecting)")

    def slowlog_command(self, argument: str) -> None:
        """``.slowlog [SECONDS | all]`` — inspect or configure the log."""
        argument = argument.strip()
        if argument and argument != "all":
            try:
                threshold = float(argument)
            except ValueError:
                self.print_error(
                    ReproError("usage: .slowlog [SECONDS | all]")
                )
                return
            self.query_log.slow_threshold = threshold
            self.print(f"slow-query threshold set to {threshold:g}s")
            return
        self.print(self.query_log.render(slow_only=argument != "all"))

    CACHE_USAGE = ".cache [on [MB] | off | clear | stats]"

    def cache_command(self, argument: str) -> None:
        """``.cache on [MB]`` / ``.cache off`` / ``.cache clear`` / ``.cache stats``."""
        argument = argument.strip()
        mode, _, size_text = argument.partition(" ")
        if mode == "on":
            size_text = size_text.strip()
            try:
                max_bytes = (
                    int(float(size_text) * 1024 * 1024) if size_text else None
                )
            except ValueError:
                self.print_error(ReproError(f"usage: {self.CACHE_USAGE}"))
                return
            cache = self.session.set_cache(
                QueryCache(max_bytes=max_bytes)
                if max_bytes is not None
                else QueryCache()
            )
            self.print(
                "query cache on "
                f"({cache.max_bytes // (1024 * 1024)} MiB budget)"
            )
            return
        if mode == "off":
            self.session.set_cache(None)
            self.print("query cache off")
            return
        cache = self.session.cache
        if mode == "clear":
            if cache is None:
                self.print("query cache is off; nothing to clear")
            else:
                cache.clear()
                self.print("query cache cleared")
            return
        if mode == "stats":
            if cache is None:
                self.print("query cache is off")
                return
            self.print(
                f"results: {len(cache)} entry(s), "
                f"~{cache.nbytes} bytes "
                f"(budget {cache.max_bytes}); "
                f"plans: {cache.plan_entries}"
            )
            for name, value in cache.stats.as_dict().items():
                self.print(f"  {name:<16} {value}")
            return
        if mode:
            self.print_error(ReproError(f"usage: {self.CACHE_USAGE}"))
            return
        if cache is None:
            self.print(f"query cache is off; usage: {self.CACHE_USAGE}")
        else:
            self.print(
                f"query cache on: {len(cache)} result(s), "
                f"hit rate {cache.stats.hit_rate:.0%}"
            )

    LINT_USAGE = ".lint [on | off | strict | TEXT]"

    def lint_command(self, argument: str) -> None:
        """``.lint on|off|strict`` / ``.lint TEXT`` / bare ``.lint``."""
        argument = argument.strip()
        if not argument:
            mode = self.session.lint_mode or "off"
            self.print(f"lint is {mode}; usage: {self.LINT_USAGE}")
            return
        if argument in ("on", "off", "warn", "strict"):
            self.print(f"lint {self.session.set_lint(argument) or 'off'}")
            return
        from repro.lint import lint_script

        text = argument if argument.rstrip().endswith(";") else argument + ";"
        report = lint_script(text, self.database.schema.get)
        if any(
            d.code == "XRA000" and "expected a statement" in d.message
            for d in report
        ):
            # A bare expression was pasted; lint it as a query.
            report = lint_script(f"? {text}", self.database.schema.get)
        self.print(report.render())

    def explain(self, text: str) -> None:
        """Logical tree, then the session's plan of one XRA query."""
        expr = self._parse_single_query(text)
        if expr is None:
            return
        try:
            plan = self.session.plan(expr)
        except ReproError as error:
            self.print_error(error)
            return
        self.print("logical:   " + render(expr))
        self.print("optimized: " + render(plan.normalized))
        self.print("fingerprint: " + plan.fingerprint)
        self.print("physical:")
        self.print(plan.physical.explain(indent=1))

    ANALYZE_USAGE = ".analyze EXPRESSION | .analyze on | .analyze off"

    def analyze_command(self, argument: str) -> None:
        """``.analyze EXPRESSION`` / ``.analyze on`` / ``.analyze off``."""
        argument = argument.strip()
        if not argument:
            state = "on" if self.session.analyze else "off"
            self.print(
                f"analyze mode is {state}; usage: {self.ANALYZE_USAGE}"
            )
            return
        if argument in ("on", "off"):
            self.session.set_analyze(argument == "on")
            self.print(f"analyze mode {argument}")
            return
        expr = self._parse_single_query(argument)
        if expr is None:
            return
        try:
            report = self.session.explain_analyze(expr)
        except ReproError as error:
            self.print_error(error)
            return
        self.analyze_reports.append(report)
        self.print(str(report))

    def profile(self, text: str) -> None:
        """Run the session's plan of one XRA query with per-operator counters."""
        expr = self._parse_single_query(text)
        if expr is None:
            return
        from repro.engine.profiler import profile_plan

        try:
            plan = self.session.plan(expr)
            result, report = profile_plan(plan.physical, self.database.snapshot())
        except ReproError as error:
            self.print_error(error)
            return
        self.print("fingerprint: " + plan.fingerprint)
        self.print(str(report))
        self.print(f"result: {len(result)} tuple(s), "
                   f"{result.distinct_count} distinct")

    def _parse_single_query(self, text: str):
        """Parse ``text`` as one XRA query expression; report errors.

        Accepts the bare expression, a full ``? expr`` statement, and a
        trailing ``;`` — people paste shell lines verbatim.
        """
        text = text.strip().rstrip(";").strip()
        try:
            items = parse_script(
                f"{text};" if text.startswith("?") else f"? {text};",
                self.database.schema.get,
            )
        except ReproError as error:
            self.print_error(error)
            return None
        for item in items:
            if isinstance(item, StatementItem) and hasattr(
                item.statement, "expression"
            ):
                return item.statement.expression
        self.print_error(ReproError("expected a query expression"))
        return None

    def load_csv(self, argument: str) -> None:
        try:
            name, path = argument.split(maxsplit=1)
        except ValueError:
            self.print_error(ReproError("usage: .load NAME PATH"))
            return
        try:
            relation = relation_from_csv(path, name=name)
            self.database.create_relation(relation.schema.strict(), relation)
            self.print(f"loaded {len(relation)} tuple(s) into {name!r}")
        except (ReproError, OSError) as error:
            self.print_error(error)

    def save_csv(self, argument: str) -> None:
        try:
            name, path = argument.split(maxsplit=1)
        except ValueError:
            self.print_error(ReproError("usage: .save NAME PATH"))
            return
        try:
            relation_to_csv(self.database[name], path)
            self.print(f"saved {name!r} to {path}")
        except (ReproError, OSError) as error:
            self.print_error(error)


# -- the server-side CLI (python -m repro serve) -----------------------------


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro serve`` — run the concurrent query server."""
    import asyncio

    from repro.server import QueryServer, ServerConfig
    from repro.xra import XRAInterpreter

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve one shared database to concurrent clients over "
        "the newline-delimited JSON protocol (see docs/server.md)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7474,
        help="port to listen on (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--script", metavar="PATH",
        help="XRA script that seeds the database before serving",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the shared epoch-invalidated result cache",
    )
    parser.add_argument(
        "--lint", choices=("warn", "strict"),
        help="lint every XRA request; 'strict' refuses error findings "
        "with wire code REPRO-LINT",
    )
    parser.add_argument(
        "--max-connections", type=int, default=32,
        help="refuse connections beyond this with REPRO-BUSY (default 32)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8,
        help="executor slots; admission control bounds in-flight work "
        "(default 8)",
    )
    parser.add_argument(
        "--admission-timeout", type=float, default=5.0, metavar="SECONDS",
        help="how long a request may wait for a slot before REPRO-BUSY "
        "(default 5)",
    )
    parser.add_argument(
        "--query-timeout", type=float, default=30.0, metavar="SECONDS",
        help="wall-clock budget per statement batch; exceeding it "
        "answers REPRO-TIMEOUT (default 30)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="seconds shutdown waits for in-flight requests (default 10)",
    )
    parser.add_argument(
        "--slow-log", type=float, metavar="SECONDS",
        help="flag statements at/above this wall time in the query log",
    )
    parser.add_argument(
        "--telemetry", type=int, metavar="PORT",
        help="serve the HTTP admin plane (/metrics, /healthz, /readyz, "
        "/slowlog, /stats) on this port (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--telemetry-host", default="127.0.0.1", metavar="ADDRESS",
        help="bind address for the admin plane (default loopback — it "
        "has no auth)",
    )
    options = parser.parse_args(argv)

    database = Database()
    if options.script:
        with open(options.script, encoding="utf-8") as handle:
            XRAInterpreter(database).run(handle.read())
    config = ServerConfig(
        host=options.host,
        port=options.port,
        max_connections=options.max_connections,
        max_inflight=options.max_inflight,
        admission_timeout=options.admission_timeout,
        query_timeout=options.query_timeout,
        drain_timeout=options.drain_timeout,
        cache=not options.no_cache,
        lint=options.lint,
        slow_query_threshold=options.slow_log,
        telemetry=options.telemetry,
        telemetry_host=options.telemetry_host,
    )
    server = QueryServer(database, config)

    async def _runner() -> None:
        host, port = await server.start()
        print(f"repro server listening on {host}:{port} "
              f"(ctrl-c to drain and stop)")
        if server.telemetry_address is not None:
            admin_host, admin_port = server.telemetry_address
            print(f"telemetry admin plane on "
                  f"http://{admin_host}:{admin_port}/metrics")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            await server.shutdown()
            raise

    try:
        asyncio.run(_runner())
    except KeyboardInterrupt:
        print("stopped")
    return 0


# -- the client-side remote shell (python -m repro --connect) ----------------


class RemoteShell:
    """A line-oriented shell speaking the wire protocol to a server."""

    PROMPT = "xra@remote> "
    CONTINUATION = "...> "

    def __init__(
        self,
        client: "object",
        out: TextIO = sys.stdout,
        err: TextIO = sys.stderr,
    ) -> None:
        self.client = client
        self.out = out
        self.err = err
        self._buffer: List[str] = []

    def print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def print_error(self, error: BaseException) -> None:
        self.err.write(f"error: {error}\n")

    def run(self, source: TextIO) -> int:
        hello = getattr(self.client, "hello", {})
        self.print(
            f"connected to {hello.get('server', '?')} "
            f"(protocol {hello.get('protocol', '?')}, "
            f"t={hello.get('logical_time', '?')}, "
            f"relations: {', '.join(hello.get('relations', [])) or 'none'})"
        )
        interactive = source is sys.stdin and sys.stdin.isatty()
        while True:
            if interactive:
                prompt = self.CONTINUATION if self._buffer else self.PROMPT
                self.out.write(prompt)
                self.out.flush()
            line = source.readline()
            if not line:
                return 0
            if not self._buffer and line.strip().startswith("."):
                if self.handle_meta(line.strip()) == "quit":
                    return 0
                continue
            self._buffer.append(line)
            if self._statement_complete():
                text = "".join(self._buffer)
                self._buffer = []
                self.execute(text, op="xra")

    # The buffered-completeness scanner is shared with the local shell.
    _statement_complete = Shell._statement_complete

    def execute(self, text: str, op: str = "xra") -> None:
        from repro.server.client import RemoteError

        try:
            response = self.client.request(op, q=text)
        except RemoteError as error:
            self.print_error(error)
            return
        except (ConnectionError, OSError) as error:
            self.print_error(error)
            return
        for finding in response.get("lint", []):
            self.print(
                f"lint {finding.get('severity', '?')} "
                f"{finding.get('code', '?')}: {finding.get('message', '')}"
            )
        from repro.server.protocol import relation_from_wire

        for document in response.get("results", []):
            self.print(
                format_relation(
                    relation_from_wire(document), show_multiplicity=True
                )
            )
        if response.get("committed"):
            self.print(f"ok (t={response.get('logical_time')})")

    def handle_meta(self, line: str) -> Optional[str]:
        from repro.server.client import RemoteError

        command, _, argument = line.partition(" ")
        argument = argument.strip()
        try:
            if command in (".quit", ".exit"):
                return "quit"
            if command == ".help":
                self.print(
                    ".tables  .time  .top  .sql STATEMENT  .begin  "
                    ".commit  .rollback  .quit"
                )
                return None
            if command == ".top":
                from repro.obs.telemetry import render_top

                self.print(render_top(self.client.stats()))
                return None
            if command == ".tables":
                for entry in self.client.tables():
                    self.print(
                        f"{entry['name']:20s} {entry['rows']:8d} tuple(s), "
                        f"epoch {entry['epoch']}"
                    )
                return None
            if command == ".time":
                self.print(f"logical time: {self.client.ping()}")
                return None
            if command == ".sql":
                self.execute(argument, op="sql")
                return None
            if command == ".begin":
                pinned = self.client.begin()
                self.print(f"transaction open (pinned at t={pinned})")
                return None
            if command == ".commit":
                response = self.client.commit()
                self.print(f"committed (t={response.get('logical_time')})")
                return None
            if command == ".rollback":
                self.client.rollback()
                self.print("rolled back")
                return None
        except RemoteError as error:
            self.print_error(error)
            return None
        self.print(f"unknown command {command!r}; try .help")
        return None


def connect_main(target: str, source: TextIO) -> int:
    """``python -m repro --connect HOST:PORT`` — the remote shell."""
    from repro.server.client import ServerClient

    host, _, port_text = target.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --connect expects HOST:PORT, got {target!r}",
              file=sys.stderr)
        return 2
    try:
        client = ServerClient(host, port)
    except (ConnectionError, OSError, ReproError) as error:
        print(f"error: cannot connect to {host}:{port}: {error}",
              file=sys.stderr)
        return 1
    try:
        return RemoteShell(client).run(source)
    finally:
        client.close()


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-set extended relational algebra shell "
        "(Grefen & de By, ICDE 1994 reproduction)",
    )
    parser.add_argument(
        "script", nargs="?", help="an XRA (or, with --sql, SQL) script file"
    )
    parser.add_argument(
        "--sql", action="store_true", help="treat the script file as SQL"
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="connect the shell to a running 'repro serve' instance "
        "instead of an in-process database",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="enable tracing; stream spans as JSON lines to PATH",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics summary on exit",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE every query: print estimated vs. actual "
        "rows per operator and feed actuals back into planning",
    )
    parser.add_argument(
        "--trace-events",
        metavar="PATH",
        help="on exit, write a Chrome/Perfetto trace-event file of the "
        "recorded spans and analyzed operators to PATH",
    )
    parser.add_argument(
        "--slow-log",
        metavar="SECONDS",
        type=float,
        help="slow-query threshold in seconds (default 1.0)",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="lint every statement before running it; findings print "
        "as warnings but execution proceeds (.lint in the shell)",
    )
    parser.add_argument(
        "--strict-lint",
        action="store_true",
        help="like --lint, but refuse to execute on error-severity "
        "findings and cross-check every optimized plan",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="cache query results (epoch-invalidated; .cache in the shell)",
    )
    parser.add_argument(
        "--cache-mb",
        metavar="MB",
        type=float,
        default=64.0,
        help="result-cache size budget in MiB for --cache (default 64)",
    )
    options = parser.parse_args(argv)

    if options.connect:
        if options.script:
            with open(options.script, encoding="utf-8") as handle:
                return connect_main(options.connect, handle)
        return connect_main(options.connect, sys.stdin)

    shell = Shell()
    if options.trace:
        shell.trace_command(f"on {options.trace}")
    elif options.trace_events:
        # Spans only exist while tracing is on; keep them in memory for
        # the exit-time trace-event export.
        obs.enable()
    if options.analyze:
        shell.analyze_command("on")
    if options.slow_log is not None:
        shell.query_log.slow_threshold = options.slow_log
    if options.cache:
        shell.session.set_cache(
            QueryCache(max_bytes=int(options.cache_mb * 1024 * 1024))
        )
    if options.strict_lint:
        shell.session.set_lint("strict")
    elif options.lint:
        shell.session.set_lint("warn")
    try:
        if options.script:
            with open(options.script, encoding="utf-8") as handle:
                text = handle.read()
            if options.sql:
                for statement in filter(str.strip, text.split(";")):
                    shell.execute_sql(statement)
            else:
                shell.execute_xra(text)
            return 0
        return shell.run(sys.stdin)
    finally:
        if options.metrics:
            shell.metrics_command()
        if options.trace_events:
            written = obs.export_chrome_trace(
                options.trace_events,
                tracer=obs.tracer(),
                analyze=shell.analyze_reports,
            )
            shell.print(
                f"trace events: {written} event(s) -> {options.trace_events}"
            )
        if options.trace or options.trace_events:
            obs.disable()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
