"""A stateful isolation model: interleaved transactions == a serial replay.

Hypothesis drives 2–4 concurrently open transactions over 2–3
relations ``r0, r1, r2`` (one integer column each).  Each transaction
runs random ``insert``/``delete``/``update`` statements and ``?`` queries
against its snapshot, and the transactions commit in random order; an
auto-commit write may land in between.  At the end of every run:

* the database state equals a serial replay, on a fresh database, of
  the committed transactions in logical-time order — a writer at the
  head it committed on, a transaction without a net delta at the state
  it began from;
* every committed transaction's query outputs equal the replay's;
* a transaction whose writes are all literal inserts reads nothing, so
  it never conflicts.

The same model runs in-process (:class:`~repro.language.Session`
transactions) and over the wire (one :class:`~repro.server.QueryServer`
per test, reset between examples).  Against a commit that validates
only the relations a transaction *wrote* (snapshot isolation), the model
finds write skew: a transaction commits a write computed from a relation
that another commit changed meanwhile, and no serial order explains the
result.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.database import Database
from repro.errors import TransactionConflictError
from repro.language import Query, Session, Transaction, Update
from repro.relation import Relation
from repro.server import ServerConfig, serve_in_background
from repro.server.client import RemoteError, ServerClient
from repro.xra import XRAInterpreter
from repro.xra.parser import parse_script

MAX_OPEN = 4
NAMES = ["r0", "r1", "r2"]
VALUES = st.integers(0, 1)


def setup_script(names: List[str], rows: List[List[int]]) -> str:
    lines = [f"create {name}(x: integer);" for name in names]
    for name, values in zip(names, rows):
        if values:
            body = "; ".join(f"({value})" for value in values)
            lines.append(f"insert({name}, tuples[{body}]);")
    return "\n".join(lines)


TARGETS = st.sampled_from(NAMES)
READS = st.one_of(
    TARGETS, st.builds(lambda name, value: f"sel[%1 = {value}]({name})", TARGETS, VALUES)
)
EXPRESSIONS = st.one_of(
    READS,
    st.lists(VALUES, min_size=1, max_size=2).map(
        lambda values: "tuples[" + "; ".join(f"({v})" for v in values) + "]"
    ),
)
WRITES = st.one_of(
    st.builds(lambda t, e: f"insert({t}, {e});", TARGETS, EXPRESSIONS),
    st.builds(lambda t, e: f"delete({t}, {e});", TARGETS, EXPRESSIONS),
    st.builds(lambda t, e: f"update({t}, {e}, (%1 + 1));", TARGETS, EXPRESSIONS),
)
STATEMENTS = st.one_of(WRITES, READS.map(lambda e: f"? {e};"))


def blind(texts: List[str]) -> bool:
    """Only literal inserts: the transaction reads no relation."""
    return all(
        text.startswith("insert(") and text.split(", ", 1)[1].startswith("tuples[")
        for text in texts
    )


class InProcess:
    """Transactions through :class:`Session` on one in-memory database."""

    def reset(self, script: str) -> None:
        self.database = Database()
        XRAInterpreter(self.database).run(script)

    def time(self) -> int:
        return self.database.logical_time

    def begin(self) -> object:
        return Session(self.database).transaction()

    def execute(self, txn, text: str) -> List[Relation]:
        (item,) = parse_script(text, self.database.schema.get)
        statement = item.statement
        if isinstance(statement, Query):
            return [txn.query(statement.expression)]
        if isinstance(statement, Update):
            txn.update(statement.target, statement.expression, statement.assignments)
        else:
            getattr(txn, type(statement).__name__.lower())(
                statement.target, statement.expression
            )
        return []

    def commit(self, txn) -> Optional[Tuple[int, bool]]:
        """``None`` on a conflict, else (head time before, wrote anything)."""
        result = txn.commit()
        if not result.committed:
            assert isinstance(result.error, TransactionConflictError), result.error
            return None
        transition = result.transition
        return transition.time_before, bool(transition.deltas)

    def autocommit(self, text: str) -> int:
        (item,) = parse_script(text, self.database.schema.get)
        result = Session(self.database).run([item.statement])
        assert result.committed, result.error
        return result.transition.time_before

    def state(self, names: List[str]) -> Dict[str, Relation]:
        return {name: self.database.get(name) for name in names}


class OverTheWire:
    """Transactions over the protocol, one connection per open one."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.admin = ServerClient(*handle.address)
        self.idle: List[ServerClient] = []

    def reset(self, script: str) -> None:
        drops = "".join(f"drop {entry['name']};" for entry in self.admin.tables())
        self.admin.xra(drops + script)

    def time(self) -> int:
        return self.admin.ping()

    def begin(self) -> ServerClient:
        client = self.idle.pop() if self.idle else ServerClient(*self.handle.address)
        client.begin()
        return client

    def execute(self, client: ServerClient, text: str) -> List[Relation]:
        return client.xra(text)

    def commit(self, client: ServerClient) -> Optional[Tuple[int, bool]]:
        try:
            response = client.commit()
        except RemoteError as error:
            assert error.code == "REPRO-CONFLICT", error
            return None
        finally:
            self.idle.append(client)
        wrote = bool(response["relations"])
        return response["logical_time"] - wrote, wrote

    def autocommit(self, text: str) -> int:
        return self.admin.xra_response(text)["logical_time"] - 1

    def state(self, names: List[str]) -> Dict[str, Relation]:
        return {name: self.admin.xra(f"? {name};")[0] for name in names}

    def close(self) -> None:
        for client in self.idle + [self.admin]:
            client.close()


class IsolationModel(RuleBasedStateMachine):
    backend: object = None

    def __init__(self) -> None:
        super().__init__()
        self.open: Dict[int, dict] = {}
        self.committed: List[Tuple[Tuple[int, int], List[str], List[Relation]]] = []
        self.serial = 0

    @initialize(
        count=st.integers(2, 3),
        rows=st.lists(st.lists(VALUES, max_size=3), min_size=3, max_size=3),
        concurrent=st.integers(2, MAX_OPEN),
    )
    def load(self, count: int, rows: List[List[int]], concurrent: int) -> None:
        self.names = NAMES[:count]
        self.script = setup_script(self.names, rows)
        self.backend.reset(self.script)
        for _ in range(concurrent):
            self.begin()

    def fit(self, text: str) -> str:
        """Map the generated names onto the ``count`` relations loaded."""
        return re.sub(r"r(\d)", lambda m: self.names[int(m[1]) % len(self.names)], text)

    @precondition(lambda self: len(self.open) < MAX_OPEN)
    @rule()
    def begin(self) -> None:
        begun = self.backend.time()
        self.open[self.serial] = {
            "handle": self.backend.begin(),
            "begun": begun,
            "texts": [],
            "outputs": [],
        }
        self.serial += 1

    @precondition(lambda self: self.open)
    @rule(pick=st.integers(0, MAX_OPEN - 1), text=STATEMENTS)
    def execute(self, pick: int, text: str) -> None:
        txn = self.open[sorted(self.open)[pick % len(self.open)]]
        text = self.fit(text)
        txn["outputs"] += self.backend.execute(txn["handle"], text)
        txn["texts"].append(text)

    @precondition(lambda self: self.open)
    @rule(pick=st.integers(0, MAX_OPEN - 1))
    def commit(self, pick: int) -> None:
        self._commit(sorted(self.open)[pick % len(self.open)])

    @rule(text=WRITES)
    def autocommit(self, text: str) -> None:
        text = self.fit(text)
        self.committed.append(((self.backend.autocommit(text), 1), [text], []))

    def _commit(self, serial: int) -> None:
        txn = self.open.pop(serial)
        outcome = self.backend.commit(txn["handle"])
        if outcome is None:
            assert not blind(txn["texts"]), f"blind inserts conflicted: {txn['texts']}"
            return
        head, wrote = outcome
        # A writer serializes at the head it committed on, a transaction
        # without a net delta at the state it began from.
        key = (head, 1) if wrote else (txn["begun"], 0)
        self.committed.append((key, txn["texts"], txn["outputs"]))

    def teardown(self) -> None:
        try:
            if hasattr(self, "names"):
                for serial in sorted(self.open):
                    self._commit(serial)
                self._check()
        finally:
            for txn in self.open.values():
                if isinstance(txn["handle"], ServerClient):
                    txn["handle"].rollback()
                    self.backend.idle.append(txn["handle"])

    def _check(self) -> None:
        replay = Database()
        XRAInterpreter(replay).run(self.script)
        for key, texts, outputs in sorted(self.committed, key=lambda entry: entry[0]):
            items = parse_script("\n".join(texts), replay.schema.get)
            result = Transaction([item.statement for item in items]).run(replay)
            assert result.committed, result.error
            assert result.outputs == outputs, f"outputs diverged at {key}: {texts}"
        observed = self.backend.state(self.names)
        for name in self.names:
            assert observed[name] == replay.get(name), (
                f"{name} diverged from the serial replay of {self.committed}"
            )


SETTINGS = settings(
    max_examples=50,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_in_process_transactions_are_serializable() -> None:
    class Model(IsolationModel):
        backend = InProcess()

    run_state_machine_as_test(Model, settings=SETTINGS)


@pytest.fixture
def wire_backend():
    handle = serve_in_background(Database(), ServerConfig(query_timeout=15.0))
    backend = OverTheWire(handle)
    yield backend
    backend.close()
    handle.stop()


def test_wire_transactions_are_serializable(wire_backend) -> None:
    class Model(IsolationModel):
        backend = wire_backend

    run_state_machine_as_test(Model, settings=settings(SETTINGS, max_examples=100))
