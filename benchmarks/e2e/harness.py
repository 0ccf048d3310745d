"""The child server's lifetime and the load generator's connections.

One :class:`ServerProcess` owns one child; :func:`reap` is the last line of
defence (``atexit`` and the signal handlers in ``run.py`` call it) so no run,
however it ends, leaves a server behind.  A :class:`Connection` is one
generator thread's TCP session plus everything it observed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine import evaluate
from repro.language.statements import Query, Statement
from repro.relation import Relation
from repro.schema import DatabaseSchema
from repro.server import RemoteError, ServerClient, encode_message, relation_from_wire
from repro.server import relation_to_wire
from repro.sql.ast import SelectQuery
from repro.sql.parser import parse_sql
from repro.sql.translate import translate_statement
from repro.xra.parser import parse_script

from workloads import Item, Op, Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: The system under test; everything else is ``ServerConfig``'s default
#: (telemetry off).  ``vector`` is the engine the ROADMAP keeps; the
#: ``reference`` evaluator is the oracle, used here only for checking.
SERVER_CONFIG = {"engine": "vector", "cache": True, "optimize": True}

#: With two processors to use, the server gets one and the load generator the
#: other.  Left to the scheduler, the three busy threads migrate between the
#: two, and on the seed that cost 38% of ``point_hot``'s throughput and most
#: of its run-to-run steadiness.
_PROCESSORS = sorted(os.sched_getaffinity(0))
SERVER_CPU, GENERATOR_CPU = (
    (_PROCESSORS[0], _PROCESSORS[1]) if len(_PROCESSORS) >= 2 else (None, None)
)

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_REFUSALS = ("REPRO-BUSY", "REPRO-TIMEOUT")

#: Every child this process started and has not yet seen exit.
_children: List["ServerProcess"] = []
#: The pid of every child ever started: ``run.py`` ends by checking them.
started_pids: List[int] = []


class ServerProcess:
    """One ``server_main.py`` child, loaded with the generated relations."""

    def __init__(self, relations: Sequence[Relation]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server_main.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")},
        )
        self.pid = self.process.pid
        _children.append(self)
        started_pids.append(self.pid)
        if SERVER_CPU is not None:
            # The child is still reading its header: it has one thread, and
            # the ones it starts later inherit the mask.
            os.sched_setaffinity(self.pid, {SERVER_CPU})
        header = {
            "config": SERVER_CONFIG,
            "relations": [relation_to_wire(relation) for relation in relations],
        }
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write(encode_message(header))
        self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [], 120.0)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.close()
            raise RuntimeError("the server child did not come up")
        self.address = ("127.0.0.1", int(json.loads(line)["port"]))

    def cpu_seconds(self) -> float:
        """utime + stime of the child so far (``/proc/<pid>/stat``)."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """End-of-file on stdin asks the child to drain; then insist."""
        process = self.process
        if process.poll() is None:
            assert process.stdin is not None
            try:
                process.stdin.close()
            except OSError:
                pass
            for ask in (None, process.terminate, process.kill):
                if ask is not None:
                    ask()
                try:
                    process.wait(5)
                    break
                except subprocess.TimeoutExpired:
                    continue
        if process.stdout is not None:
            process.stdout.close()
        if self in _children:
            _children.remove(self)


def reap() -> None:
    """Stop every child still registered (idempotent)."""
    for child in list(_children):
        child.close()


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# -- parsing, shared by the oracle, the replay and the final check -----------


def parse_request(request: Request, schema: DatabaseSchema) -> List[Statement]:
    """The statements of one ``xra``/``sql`` request (as the server parses)."""
    if request.op == "xra":
        return [item.statement for item in parse_script(request.text, schema.get)]
    parsed = parse_sql(request.text)
    translated = translate_statement(parsed, schema)
    return [Query(translated) if isinstance(parsed, SelectQuery) else translated]


class WrongAnswer(Exception):
    """A reply that is not what the oracle or the data says it must be."""


def bag_equal(got: Relation, expected: Relation) -> bool:
    """Multiset equality, REAL values to a relative 1e-9.

    Exact ``==`` first.  It is too strict only for float aggregates: the
    vector engine folds AVG batch by batch, the reference evaluator tuple by
    tuple, and the two sums differ in the last digit.  The tolerance is set
    from the dtype (IEEE doubles, ≤20 000 addends), not from observation.
    """
    if got == expected:
        return True
    if len(got) != len(expected) or got.distinct_count != expected.distinct_count:
        return False

    def close(a: Any, b: Any) -> bool:
        if isinstance(a, float) and isinstance(b, float):
            return math.isclose(a, b, rel_tol=1e-9)
        return a == b

    ordered = (sorted(relation.pairs(), key=repr) for relation in (got, expected))
    return all(
        count == other_count and all(map(close, row, other_row))
        for (row, count), (other_row, other_count) in zip(*ordered)
    )


def verify(client: ServerClient, requests: Iterable[Request], oracle: Any) -> int:
    """The correctness gate: wire answers bag-equal the reference evaluator's.

    ``oracle`` is an in-process copy of the database; each request is a
    query template instantiated over its verification slice.
    """
    env = dict(oracle.snapshot())
    checked = 0
    for request in requests:
        (statement,) = parse_request(request, oracle.schema)
        expected = evaluate(statement.expression, env)
        (got,) = getattr(client, request.op)(request.text)
        if not bag_equal(got, expected):
            raise WrongAnswer(
                f"{request.text}: not what the reference evaluator computes\n"
                + difference(got, expected)
            )
        checked += 1
    return checked


def describe(relation: Relation, limit: int = 5) -> str:
    pairs = sorted(relation.pairs(), key=repr)
    shown = ", ".join(f"{row}x{count}" for row, count in pairs[:limit])
    more = " ..." if len(pairs) > limit else ""
    return f"{len(relation)} rows, {len(pairs)} distinct [{shown}{more}]"


def difference(got: Relation, expected: Relation) -> str:
    """Both monus directions of two relations that should be bag-equal."""
    return (
        f"  only over the wire: {describe(got.difference(expected))}\n"
        f"  only in-process: {describe(expected.difference(got))}"
    )


# -- the generator's connections ---------------------------------------------


class Record(NamedTuple):
    """One attempted op.  ``origin`` is the due time in an open loop and the
    send time in a closed one; latency is ``done - origin``."""

    kind: str
    origin: float
    sent: float
    done: float
    outcome: str  # "ok" | "failed" | "aborted"
    lag: float


class Exchange(NamedTuple):
    """One request of a sampled op, as the client saw it."""

    request: Request
    sent: float
    replied: float
    decoded: float
    response: Dict[str, Any]
    relations: List[Relation]


#: ``resources`` fields summed over every timed reply.
_COUNTERS = (
    "rows_scanned", "rows_emitted", "cache_hits", "cache_misses",
    "batches_vectorized", "batches_fallback", "dedup_rows_in", "dedup_rows_out",
)


class Connection:
    """One generator thread's session and its observations."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.client = ServerClient(*address, timeout=60.0)
        #: Write and transaction ops the server acknowledged as committed,
        #: warm-up included: the final-state check replays exactly these.
        self.acknowledged: List[Op] = []
        self.reset()

    def reset(self) -> None:
        """Forget what the warm-up observed (but not what it wrote)."""
        self.records: List[Record] = []
        self.sampled: List[List[Exchange]] = []
        self.resources = dict.fromkeys(_COUNTERS, 0)
        self.refused = 0
        self.commits = 0
        self.conflicts = 0
        self.commit_seconds = 0.0
        self.complaints: List[str] = []
        self.error: Optional[Exception] = None

    def perform(self, op: Op, exchanges: Optional[List[Exchange]] = None) -> str:
        """Send one op's requests; check every reply.  Returns the outcome."""
        for request in op.requests:
            fields = {"q": request.text} if request.text else {}
            sent = time.perf_counter()
            try:
                response = self.client.request(request.op, **fields)
            except RemoteError as error:
                if request.op == "commit":
                    self.commits += 1
                    if error.code == "REPRO-CONFLICT":
                        # First-committer-wins did its job: expected.
                        self.conflicts += 1
                        return "aborted"
                if error.code in _REFUSALS:
                    self.refused += 1
                self.complaints.append(f"{request.text or request.op}: {error}")
                return "failed"
            replied = time.perf_counter()
            documents = response.get("results", ())
            relations = [relation_from_wire(document) for document in documents]
            decoded = time.perf_counter()
            for document, relation in zip(documents, relations):
                rows = document["rows"]
                carried = sum(count for _row, count in document["pairs"])
                if not (rows == carried == len(relation)) or request.rows not in (None, rows):
                    self.complaints.append(
                        f"{request.text}: reply says {rows} rows, carries {carried}, "
                        f"decodes to {len(relation)}, expected {request.rows}"
                    )
                    return "failed"
            if request.op == "commit":
                self.commits += 1
                self.commit_seconds += replied - sent
            tallies = response.get("resources")
            if tallies:
                for name in _COUNTERS:
                    self.resources[name] += tallies[name]
            if exchanges is not None:
                exchanges.append(Exchange(request, sent, replied, decoded, response, relations))
        if op.kind != "read":
            self.acknowledged.append(op)
        return "ok"

    def drive(
        self,
        items: Iterable[Item],
        start: float,
        deadline: float,
        sample_every: Optional[float],
        stop: threading.Event,
    ) -> None:
        """Run this connection's share of the window (thread body)."""
        next_sample = start
        previous_done = start
        try:
            for due, op in items:
                if due is None:
                    origin = sent = time.perf_counter()
                    if sent >= deadline:
                        return
                    lag = 0.0
                else:
                    origin = start + due
                    delay = origin - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    # Lateness the generator itself added: not time spent
                    # queued behind this connection's previous op.
                    lag = sent - max(origin, previous_done)
                if stop.is_set():
                    return
                exchanges: Optional[List[Exchange]] = None
                if sample_every is not None and sent >= next_sample:
                    exchanges = []
                    next_sample += sample_every
                outcome = self.perform(op, exchanges)
                previous_done = time.perf_counter()
                self.records.append(Record(op.kind, origin, sent, previous_done, outcome, lag))
                if exchanges is not None and outcome == "ok":
                    self.sampled.append(exchanges)
                    # What a traced run retains must not make the cycle
                    # collector's passes longer than an untraced run's: park
                    # it out of the collector's reach.
                    gc.freeze()
        except Exception as error:  # handed to the main thread, which re-raises
            self.error = error

    def close(self) -> None:
        self.client.close()
