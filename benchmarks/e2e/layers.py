"""The traced run's second half: sampled ops replayed layer by layer.

Nothing under ``src/`` is instrumented here.  Each sampled op is re-run in
this process through the same *public* functions the server calls, one span
per call, strictly one after another — so a span's self time is its own
duration and the spans of one op add up to the work that blocks its reply.
What the replay cannot see (request handling in ``server.core``, the executor
hop, the socket) is the remainder against the live client-side spans, which
only in-program tracing (a later issue) can split further.

A span is ``{id, name, start, end, parent, op_id}``; spans stay in memory
until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.cache import QueryCache
from repro.database import Database
from repro.engine.planner import execute, plan_physical
from repro.language.context import ExecutionContext
from repro.language.statements import Query
from repro.optimizer import optimize
from repro.relation import Relation
from repro.server import encode_message, relation_from_wire, relation_to_wire

from harness import Exchange, WrongAnswer, bag_equal, difference, parse_request

#: Replayed spans on the path that blocks a reply, in order.  The sum of
#: their self times over the client-observed service time is
#: ``trace.coverage_ratio``.  (``relation.materialize`` is not here: it sizes
#: a floor *inside* ``engine.vector.execute``, it is not a further step.)
CHAIN = (
    "xra.parse", "sql.parse_translate", "cache.hit_path", "optimizer.optimize",
    "engine.planner.plan", "engine.vector.execute", "language.write_execute",
    "database.snapshot", "database.install", "server.protocol.relation_to_wire",
    "server.protocol.encode_message", "server.client.json_loads",
    "server.client.relation_from_wire",
)
#: The part of :data:`CHAIN` the wire response's ``seconds`` covers — the
#: server stamps it before the reply is serialised.
INSIDE_REQUEST = CHAIN[:10]


class Tracer:
    """Spans in memory; nesting through a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: The sampled ops traced so far; an op's index here is its ``op_id``.
        self.sampled: List[Sequence[Exchange]] = []
        self._open: List[int] = []

    def add(self, name: str, op_id: int, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (the live client-side ones)."""
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "op_id": op_id}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op_id: int) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = self.add(name, op_id, 0.0, 0.0, parent)
        self._open.append(index)
        self.spans[index]["start"] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the children's."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        totals: Dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            totals[span["name"]] += seconds
        return totals


class Replay:
    """Re-runs sampled ops against an in-process copy of the database."""

    def __init__(self, database: Database, tracer: Tracer, compare: bool) -> None:
        self.database = database
        self.tracer = tracer
        #: Compare each replayed answer with the one that came over the
        #: wire (only meaningful when the workload never writes).
        self.compare = compare
        self.cache = QueryCache()
        self.transaction: Optional[ExecutionContext] = None
        self.response_bytes = 0

    def _context(self, cache: Optional[QueryCache] = None) -> ExecutionContext:
        return ExecutionContext(
            self.database.snapshot(),
            use_physical_engine=True,
            optimizer=optimize,
            cache=cache,
            database=self.database,
            engine="vector",
        )

    def op(self, op_id: int, exchanges: Sequence[Exchange]) -> None:
        """Replay one sampled op under a ``replay`` root span."""
        with self.tracer.span("replay", op_id):
            for exchange in exchanges:
                self._request(op_id, exchange)

    def _request(self, op_id: int, exchange: Exchange) -> None:
        span = self.tracer.span
        request = exchange.request
        outputs: List[Relation] = []
        if request.op == "begin":
            with span("database.snapshot", op_id):
                self.transaction = self._context()
        elif request.op == "commit":
            assert self.transaction is not None
            with span("database.snapshot", op_id):
                merged = dict(self.database.snapshot())
            merged["beer"] = self.transaction.relations["beer"]
            with span("database.install", op_id):
                self.database.install(merged)
            self.transaction = None
        else:
            name = "xra.parse" if request.op == "xra" else "sql.parse_translate"
            with span(name, op_id):
                statements = parse_request(request, self.database.schema)
            hit = bool((exchange.response.get("resources") or {}).get("cache_hits"))
            for statement in statements:
                if isinstance(statement, Query):
                    outputs.append(self._read(op_id, statement.expression, hit))
                else:
                    self._write(op_id, statement)
        self._reply(op_id, exchange, outputs)

    def _read(self, op_id: int, expression: Any, hit: bool) -> Relation:
        span = self.tracer.span
        if hit and self.transaction is None:
            context = self._context(self.cache)
            self.cache.evaluate(expression, context)  # warm the entry, untimed
            with span("cache.hit_path", op_id):
                return self.cache.evaluate(expression, context)
        context = self.transaction or self._context()
        with span("optimizer.optimize", op_id):
            normalized = optimize(expression)
        with span("engine.planner.plan", op_id):
            physical = plan_physical(normalized, None, "vector")
        with span("engine.vector.execute", op_id):
            result = execute(
                normalized, context.environment(), physical=physical, engine="vector"
            )
        with span("relation.materialize", op_id):
            Relation.from_pairs(result.schema, list(result.pairs()))
        return result

    def _write(self, op_id: int, statement: Any) -> None:
        span = self.tracer.span
        context = self.transaction
        if context is None:
            with span("database.snapshot", op_id):
                context = self._context(self.cache)
        with span("language.write_execute", op_id):
            statement.execute(context)
        if self.transaction is None:
            with span("database.install", op_id):
                self.database.install(context.relations)

    def _reply(self, op_id: int, exchange: Exchange, outputs: List[Relation]) -> None:
        """What ``server.protocol`` and ``server.client`` do to the answer."""
        span = self.tracer.span
        with span("server.protocol.relation_to_wire", op_id):
            documents = [relation_to_wire(relation) for relation in outputs]
        response = {**exchange.response, "results": documents}
        with span("server.protocol.encode_message", op_id):
            line = encode_message(response)
        self.response_bytes += len(line)
        with span("server.client.json_loads", op_id):
            decoded = json.loads(line)
        with span("server.client.relation_from_wire", op_id):
            relations = [relation_from_wire(document) for document in decoded["results"]]
        if self.compare and not all(map(bag_equal, exchange.relations, relations)):
            raise WrongAnswer(
                f"{exchange.request.text}: the in-process vector engine disagrees "
                f"with the wire\n{difference(exchange.relations[0], relations[0])}"
            )
