"""The concurrent query server: protocol, isolation, and the differential.

The centerpiece is the differential test: N concurrent clients interleave
reads and writes against one server, and the resulting history must be
bag-identical to a *serial* replay of the same committed schedule — every
committed write is one logical-time transition, every read observes
exactly the state its pinned logical time names.  That is the paper's
state-sequence semantics (Section 4) surviving real concurrency.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.database import Database
from repro.domains import DATE, INTEGER, MONEY, STRING
from repro.errors import ProtocolError, ReproError
from repro.relation import Relation
from repro.schema import RelationSchema
from repro.server import (
    ServerConfig,
    relation_from_wire,
    relation_to_wire,
    serve_in_background,
)
from repro.server.client import RemoteError, ServerClient
from repro.language import Session
from repro.xra import XRAInterpreter, StatementItem, parse_script

SEED_SCRIPT = """
create acct(owner: string, amount: integer);
insert(acct, tuples[('alice', 10); ('bob', 20); ('carol', 30)]);
"""


def parse_query(text: str, database: Database):
    """The algebra tree of one XRA query expression."""
    (item,) = parse_script(f"? {text};", database.schema.get)
    assert isinstance(item, StatementItem)
    return item.statement.expression


def seeded_database() -> Database:
    database = Database()
    XRAInterpreter(database).run(SEED_SCRIPT)
    return database


@pytest.fixture
def server():
    handle = serve_in_background(
        seeded_database(), ServerConfig(query_timeout=15.0)
    )
    yield handle
    handle.stop()


def connect(handle) -> ServerClient:
    return ServerClient(*handle.address)


# ---------------------------------------------------------------------------
# Wire basics
# ---------------------------------------------------------------------------


def test_hello_carries_schema_and_time(server) -> None:
    with connect(server) as client:
        assert client.hello["protocol"] == 1
        assert client.hello["relations"] == ["acct"]
        assert client.hello["logical_time"] == 1
        assert "client_id" in client.hello


def test_autocommit_roundtrip(server) -> None:
    with connect(server) as client:
        client.xra("insert(acct, tuples[('dave', 40)]);")
        (result,) = client.xra("? sel[%2 >= 20](acct);")
        assert len(result) == 3
        (names,) = client.sql("SELECT owner FROM acct WHERE amount > 25")
        assert sorted(row[0] for row, _ in names.pairs()) == ["carol", "dave"]


def test_typed_values_roundtrip_the_wire() -> None:
    schema = RelationSchema.of(
        "ledger", who=STRING, paid=MONEY, day=DATE, n=INTEGER
    )
    import datetime
    import decimal

    relation = Relation.from_pairs(
        schema,
        [
            (("ann", decimal.Decimal("12.50"), datetime.date(2024, 3, 1), 2), 3),
            (("bob", decimal.Decimal("0.99"), datetime.date(2024, 3, 2), 1), 1),
        ],
    )
    wired = json.loads(json.dumps(relation_to_wire(relation)))
    back = relation_from_wire(wired)
    assert back == relation  # bag equality, typed values restored


def test_tables_and_ping(server) -> None:
    with connect(server) as client:
        (entry,) = client.tables()
        assert entry["name"] == "acct" and entry["rows"] == 3
        assert client.ping() == 1


def test_server_accepts_only_the_physical_engine() -> None:
    with pytest.raises(ValueError):
        ServerConfig(engine="reference")
    assert ServerConfig().engine == "vector"


def test_default_server_joins_through_the_physical_engine() -> None:
    database = seeded_database()
    expected = Session(
        database, use_physical_engine=False, use_optimizer=False
    ).query(parse_query("join[%2 < %4](acct, acct)", database))
    with serve_in_background(database, ServerConfig()) as handle:
        with connect(handle) as client:
            response = client.xra_response("? join[%2 < %4](acct, acct);")
    (result,) = (relation_from_wire(doc) for doc in response["results"])
    assert result == expected and len(result) == 3
    # Only the batch engine's operators hand over batches.
    assert response["resources"]["batches_vectorized"] > 0


# ---------------------------------------------------------------------------
# Snapshot isolation (satellite: concurrent-session cache invalidation)
# ---------------------------------------------------------------------------


def test_snapshot_isolation(server) -> None:
    """A reader inside an open transaction must not observe a concurrent
    writer's commit until its own transaction ends."""
    with connect(server) as reader, connect(server) as writer:
        reader.begin()
        (before,) = reader.xra("? acct;")
        assert len(before) == 3

        writer.xra("insert(acct, tuples[('mallory', 99)]);")
        (writer_view,) = writer.xra("? acct;")
        assert len(writer_view) == 4  # the writer's commit is visible to it

        # The pinned reader still sees the state it began at — the shared
        # result cache must not leak the post-commit bag into the pin.
        (during,) = reader.xra("? acct;")
        assert during == before

        reader.commit()  # read-only: commits without a transition
        (after,) = reader.xra("? acct;")
        assert len(after) == 4


def test_transaction_sees_its_own_writes(server) -> None:
    with connect(server) as client:
        client.begin()
        client.xra("insert(acct, tuples[('dave', 40)]);")
        (inside,) = client.xra("? acct;")
        assert len(inside) == 4
        response = client.commit()
        assert response["relations"] == ["acct"]
        (outside,) = client.xra("? acct;")
        assert len(outside) == 4


def test_write_conflict_first_committer_wins(server) -> None:
    with connect(server) as first, connect(server) as second:
        first.begin()
        first.xra("? acct;")  # the read is what a later commit invalidates
        first.xra("insert(acct, tuples[('x', 1)]);")
        second.xra("insert(acct, tuples[('y', 2)]);")  # auto-commit wins
        with pytest.raises(RemoteError) as caught:
            first.commit()
        assert caught.value.code == "REPRO-CONFLICT"
        assert "acct" in str(caught.value)
        # The loser rolled back: retry on a fresh snapshot succeeds.
        first.begin()
        first.xra("insert(acct, tuples[('x', 1)]);")
        assert first.commit()["committed"] is True
        (result,) = first.xra("? acct;")
        assert len(result) == 5


def test_blind_inserts_both_commit(server) -> None:
    """A literal insert reads nothing of its target, so two of them
    commute (⊎ is commutative and associative) and both commit."""
    with connect(server) as first, connect(server) as second:
        first.begin()
        second.begin()
        first.xra("insert(acct, tuples[('x', 1)]);")
        second.xra("insert(acct, tuples[('y', 2)]);")
        assert first.commit()["relations"] == ["acct"]
        assert second.commit()["relations"] == ["acct"]
        (result,) = first.xra("? acct;")
        assert len(result) == 5


SKEW_SCRIPT = """
create a(x: integer);
create b(x: integer);
insert(a, tuples[(1)]);
insert(b, tuples[(1)]);
"""


def test_write_skew_is_refused() -> None:
    """``insert(b, a)`` ∥ ``insert(a, b)`` from a = b = {1}: both reading
    the other's target, they cannot both commit — a = b = {1, 1} is no
    serial order's result.  The survivor's state is a serial replay."""
    database = Database()
    XRAInterpreter(database).run(SKEW_SCRIPT)
    handle = serve_in_background(database, ServerConfig(query_timeout=15.0))
    statements = ("insert(b, a);", "insert(a, b);")
    try:
        with connect(handle) as one, connect(handle) as two:
            clients = (one, two)
            for client, text in zip(clients, statements):
                client.begin()
                client.xra(text)
            codes = []
            for client in clients:
                try:
                    client.commit()
                    codes.append("ok")
                except RemoteError as error:
                    codes.append(error.code)
            assert sorted(codes) == ["REPRO-CONFLICT", "ok"]
            (a,) = one.xra("? a;")
            (b,) = one.xra("? b;")
    finally:
        handle.stop()
    replay = Database()
    XRAInterpreter(replay).run(SKEW_SCRIPT + statements[codes.index("ok")])
    assert replay.get("a") == a and replay.get("b") == b


def test_rollback_discards_the_working_state(server) -> None:
    with connect(server) as client:
        client.begin()
        client.xra("delete(acct, acct);")
        (inside,) = client.xra("? acct;")
        assert len(inside) == 0
        client.rollback()
        (after,) = client.xra("? acct;")
        assert len(after) == 3


def test_disconnect_rolls_back_open_transaction(server) -> None:
    client = connect(server)
    client.begin()
    client.xra("delete(acct, acct);")
    client.close()  # no commit
    with connect(server) as fresh:
        (result,) = fresh.xra("? acct;")
        assert len(result) == 3


def test_concurrent_cache_invalidation(server) -> None:
    """Auto-commit readers on one connection see another connection's
    commits immediately — the shared cache invalidates on epoch bump."""
    with connect(server) as reader, connect(server) as writer:
        query = "? sel[%2 > 0](acct);"
        (cold,) = reader.xra(query)
        (warm,) = reader.xra(query)  # result-level hit
        assert warm == cold
        writer.xra("insert(acct, tuples[('zoe', 7)]);")
        (fresh,) = reader.xra(query)
        assert len(fresh) == len(cold) + 1
        stats = server.server.session.cache.stats
        assert stats.result_hits >= 1
        assert stats.invalidations + stats.result_misses >= 2


# ---------------------------------------------------------------------------
# Admission control, timeouts, shutdown
# ---------------------------------------------------------------------------


def test_query_timeout_returns_immediately(monkeypatch) -> None:
    from repro.server.sessions import ServerSession

    slow = threading.Event()
    original = ServerSession.run_statements

    def stalling(statements, context):
        slow.wait(5.0)
        return original(statements, context)

    handle = serve_in_background(
        seeded_database(),
        ServerConfig(query_timeout=0.2, admission_timeout=2.0),
    )
    try:
        monkeypatch.setattr(
            ServerSession, "run_statements", staticmethod(stalling)
        )
        with connect(handle) as client:
            started = time.perf_counter()
            with pytest.raises(RemoteError) as caught:
                client.xra("? acct;")
            elapsed = time.perf_counter() - started
            assert caught.value.code == "REPRO-TIMEOUT"
            assert elapsed < 2.0  # answered long before the thread ends
            slow.set()
            monkeypatch.setattr(
                ServerSession, "run_statements", staticmethod(original)
            )
            assert client.ping() == 1  # the connection survived
    finally:
        slow.set()
        handle.stop()


def test_timed_out_write_never_installs(monkeypatch) -> None:
    from repro.server.sessions import ServerSession

    release = threading.Event()
    original = ServerSession.run_statements

    def stalling(statements, context):
        release.wait(5.0)
        return original(statements, context)

    handle = serve_in_background(
        seeded_database(), ServerConfig(query_timeout=0.2)
    )
    try:
        monkeypatch.setattr(
            ServerSession, "run_statements", staticmethod(stalling)
        )
        with connect(handle) as client:
            with pytest.raises(RemoteError) as caught:
                client.xra("insert(acct, tuples[('late', 1)]);")
            assert caught.value.code == "REPRO-TIMEOUT"
            release.set()
            monkeypatch.setattr(
                ServerSession, "run_statements", staticmethod(original)
            )
            time.sleep(0.3)  # let the abandoned thread finish
            (result,) = client.xra("? acct;")
            assert len(result) == 3  # the timed-out insert was discarded
    finally:
        release.set()
        handle.stop()


def test_admission_control_refuses_when_saturated(monkeypatch) -> None:
    from repro.server.sessions import ServerSession

    release = threading.Event()
    original = ServerSession.run_statements

    def stalling(statements, context):
        release.wait(10.0)
        return original(statements, context)

    handle = serve_in_background(
        seeded_database(),
        ServerConfig(
            max_inflight=1, admission_timeout=0.2, query_timeout=15.0
        ),
    )
    try:
        monkeypatch.setattr(
            ServerSession, "run_statements", staticmethod(stalling)
        )
        hog = connect(handle)
        result: list = []

        def occupy() -> None:
            try:
                result.append(hog.xra("? acct;"))
            except Exception as error:  # noqa: BLE001 - recorded for debug
                result.append(error)

        thread = threading.Thread(target=occupy)
        thread.start()
        time.sleep(0.15)  # let the hog take the only slot
        with connect(handle) as client:
            with pytest.raises(RemoteError) as caught:
                client.xra("? acct;")
            assert caught.value.code == "REPRO-BUSY"
        release.set()
        thread.join(10.0)
        hog.close()
    finally:
        release.set()
        handle.stop()


def test_connection_limit() -> None:
    handle = serve_in_background(
        seeded_database(), ServerConfig(max_connections=1)
    )
    try:
        with connect(handle):
            with pytest.raises(RemoteError) as caught:
                connect(handle)
            assert caught.value.code == "REPRO-BUSY"
    finally:
        handle.stop()


def test_graceful_shutdown_closes_clients(server) -> None:
    client = connect(server)
    assert client.ping() == 1
    server.stop()
    with pytest.raises((RemoteError, ConnectionError, OSError)):
        client.ping()
    client.close()


# ---------------------------------------------------------------------------
# Protocol and semantic errors on the wire
# ---------------------------------------------------------------------------


def test_unknown_op_is_a_protocol_error(server) -> None:
    with connect(server) as client:
        with pytest.raises(RemoteError) as caught:
            client.request("frobnicate")
        assert caught.value.code == "REPRO-PROTOCOL"


def test_commit_without_begin_is_a_protocol_error(server) -> None:
    with connect(server) as client:
        with pytest.raises(RemoteError) as caught:
            client.commit()
        assert caught.value.code == "REPRO-PROTOCOL"


def test_ddl_inside_transaction_is_refused(server) -> None:
    with connect(server) as client:
        client.begin()
        with pytest.raises(RemoteError) as caught:
            client.xra("create extra(x: integer);")
        assert caught.value.code == "REPRO-PROTOCOL"


def test_raw_garbage_line_gets_an_error_response(server) -> None:
    host, port = server.address
    with socket.create_connection((host, port), timeout=5) as sock:
        stream = sock.makefile("rb")
        json.loads(stream.readline())  # hello
        sock.sendall(b"this is not json\n")
        response = json.loads(stream.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "REPRO-PROTOCOL"


def test_semantic_errors_keep_their_codes(server) -> None:
    with connect(server) as client:
        with pytest.raises(RemoteError) as caught:
            client.xra("? ghost;")
        assert caught.value.code in ("REPRO-XRA-PARSE", "REPRO-UNKNOWN-RELATION")
        with pytest.raises(RemoteError) as caught:
            client.sql("SELECT FROM")
        assert caught.value.code == "REPRO-SQL-PARSE"
        assert isinstance(caught.value, ReproError)


def test_constraint_violation_travels_as_repro_constraint(server) -> None:
    with connect(server) as client:
        client.xra("constraint check positive on acct [%2 > 0];")
        with pytest.raises(RemoteError) as caught:
            client.xra("insert(acct, tuples[('debt', -5)]);")
        assert caught.value.code == "REPRO-CONSTRAINT"
        (result,) = client.xra("? acct;")
        assert len(result) == 3  # the violating write never installed


#: A frame cap small enough that ``? big;`` (2 000 rows) overruns it.
SMALL_CAP = 10_000


@pytest.fixture
def big_server():
    database = seeded_database()
    XRAInterpreter(database).run(
        "create big(n: integer, tag: string);\n"
        "insert(big, tuples["
        + "; ".join(f"({i}, 'row-{i}')" for i in range(2000))
        + "]);"
    )
    handle = serve_in_background(database, ServerConfig(query_timeout=15.0))
    yield handle
    handle.stop()


def test_reply_over_the_frame_cap_is_refused_by_the_server(
    big_server, monkeypatch
) -> None:
    monkeypatch.setattr("repro.server.core.MAX_LINE_BYTES", SMALL_CAP)
    monkeypatch.setattr("repro.server.client.MAX_LINE_BYTES", SMALL_CAP)
    with connect(big_server) as client:
        with pytest.raises(RemoteError) as caught:
            client.xra("? big;")
        assert caught.value.code == "REPRO-PROTOCOL"
        message = str(caught.value)
        assert f"{SMALL_CAP}-byte frame cap" in message
        size = int(message.split("reply of ")[1].split(" bytes")[0])
        assert size > SMALL_CAP
        # The framing survived: the connection keeps working.
        assert client.ping() == 2
        (small,) = client.xra("? sel[%1 < 10](big);")
        assert len(small) == 10


def test_truncated_reply_closes_the_client_connection(
    big_server, monkeypatch
) -> None:
    # Only the client's cap shrinks, so the server sends the whole line.
    monkeypatch.setattr("repro.server.client.MAX_LINE_BYTES", SMALL_CAP)
    with connect(big_server) as client:
        with pytest.raises(ProtocolError, match="not newline-terminated"):
            client.xra("? big;")
        # No later request may parse the unread tail as its reply.
        with pytest.raises(OSError):
            client.ping()


# ---------------------------------------------------------------------------
# The differential: N concurrent clients == serial replay
# ---------------------------------------------------------------------------

N_CLIENTS = 8
OPS_PER_CLIENT = 6


def client_schedule(client: int) -> list:
    """A deterministic mixed schedule for one client."""
    ops = []
    for index in range(OPS_PER_CLIENT):
        kind = (client + index) % 3
        if kind == 0:
            ops.append(
                ("write",
                 f"insert(acct, tuples[('c{client}', {index + 1})]);")
            )
        elif kind == 1:
            ops.append(
                ("write",
                 f"delete(acct, sel[%1 = 'c{client}'](acct));")
            )
        else:
            ops.append(("read", "? sel[%2 >= 1](acct);"))
    return ops


def test_differential_concurrent_equals_serial_replay() -> None:
    handle = serve_in_background(
        seeded_database(), ServerConfig(query_timeout=30.0)
    )
    log_lock = threading.Lock()
    writes: list = []   # (logical_time, text)
    reads: list = []    # (logical_time, text, wire document)
    failures: list = []
    barrier = threading.Barrier(N_CLIENTS)

    def run_client(client_id: int) -> None:
        try:
            with connect(handle) as client:
                barrier.wait(timeout=30)
                for kind, text in client_schedule(client_id):
                    response = client.xra_response(text)
                    with log_lock:
                        if kind == "write":
                            writes.append(
                                (response["logical_time"], text)
                            )
                        else:
                            reads.append(
                                (
                                    response["logical_time"],
                                    text,
                                    response["results"][0],
                                )
                            )
        except Exception as error:  # noqa: BLE001 - surfaced below
            failures.append((client_id, error))

    threads = [
        threading.Thread(target=run_client, args=(client_id,))
        for client_id in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    try:
        assert not failures, failures
        with connect(handle) as client:
            (final_concurrent,) = client.xra("? acct;")
            final_time = client.ping()
    finally:
        handle.stop()

    # Every committed write is exactly one transition: the logical times
    # of the writes enumerate 2..final_time with no gaps or duplicates.
    write_times = sorted(t for t, _ in writes)
    assert write_times == list(range(2, final_time + 1))

    # Serial replay of the same schedule, in commit order.
    replay = seeded_database()
    interpreter = XRAInterpreter(replay)
    states = {replay.logical_time: replay.snapshot()}
    for logical_time, text in sorted(writes):
        interpreter.run(text)
        assert replay.logical_time == logical_time
        states[logical_time] = replay.snapshot()

    assert replay.get("acct") == final_concurrent

    # Every concurrent read saw exactly the state its pinned time names.
    for logical_time, text, document in reads:
        observed = relation_from_wire(document)
        env = dict(states[logical_time])
        expected = XRAInterpreter(_database_from_state(env)).run(text)
        assert observed == expected.outputs[0], (
            f"read at t={logical_time} diverged: {text}"
        )


def _database_from_state(state: dict) -> Database:
    database = Database()
    for name, relation in state.items():
        database.create_relation(relation.schema.strict(), relation)
    return database


def test_server_history_keeps_deltas_not_states(server) -> None:
    import gc
    import weakref

    database = server.server.database
    before = len(database.transitions)
    versions = []
    with connect(server) as client:
        for k in range(8):
            versions.append(weakref.ref(database.get("acct")))
            client.xra(f"insert(acct, tuples[('w{k}', {k})]);")
    gc.collect()
    assert [version() for version in versions] == [None] * 8
    assert len(database.transitions) == before + 8
    assert all(t.delta_size == 1 for t in database.transitions[before:])
