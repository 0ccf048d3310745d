"""The live telemetry plane: accounts, Prometheus export, stitched traces.

Four layers, tested bottom-up:

* :class:`ResourceAccount` — tallies, merge, thread-local activation;
* the Prometheus text exposition over the stable
  :meth:`MetricsRegistry.snapshot` schema (format validity, counter
  naming, synthetic histogram buckets, label escaping);
* the HTTP admin plane against a live :class:`QueryServer` under
  concurrent client load — scrape validity, counter monotonicity,
  per-connection gauges, ``/healthz`` flipping to 503 during drain;
* wire-level trace propagation — every client request span joins 1:1
  with a server request span in the stitched Perfetto export, with the
  server-side phase spans riding along.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import re
import threading
import time
from io import StringIO
from typing import Dict, FrozenSet, Iterator, List, Tuple

import pytest

from repro import obs
from repro.database import Database
from repro.obs.export import export_stitched_trace, stitch_trace_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    ResourceAccount,
    TelemetryServer,
    account,
    activate,
    render_prometheus,
    render_top,
)
from repro.server import ServerConfig, serve_in_background
from repro.server.client import ServerClient
from repro.server.sessions import ServerSession
from repro.xra import XRAInterpreter

SEED = """
create acct(owner: string, amount: integer);
insert(acct, tuples[('alice', 10); ('alice', 10); ('bob', 20); ('carol', 30)]);
"""


def seeded() -> Database:
    database = Database()
    XRAInterpreter(database).run(SEED)
    return database


@pytest.fixture(autouse=True)
def _reset_obs() -> Iterator[None]:
    yield
    obs.reset()


@pytest.fixture
def server():
    handle = serve_in_background(
        seeded(),
        ServerConfig(
            telemetry=0,
            engine="vector",
            slow_query_threshold=0.0,
            query_timeout=15.0,
        ),
    )
    yield handle
    handle.stop()


def scrape(address: Tuple[str, int], path: str = "/metrics",
           method: str = "GET") -> Tuple[int, str]:
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# ResourceAccount
# ---------------------------------------------------------------------------


def test_account_tallies_and_ratio() -> None:
    acct = ResourceAccount()
    assert acct.dedup_ratio is None  # no δ ran yet
    acct.dedup_rows_in = 12
    acct.dedup_rows_out = 4
    assert acct.dedup_ratio == 3.0
    record = acct.to_dict()
    assert record["dedup_rows_in"] == 12
    assert record["dedup_ratio"] == 3.0
    assert set(record) == set(ResourceAccount.__slots__) | {"dedup_ratio"}


def test_account_merge_folds_every_field() -> None:
    left, right = ResourceAccount(), ResourceAccount()
    for index, field in enumerate(ResourceAccount.__slots__):
        setattr(left, field, index)
        setattr(right, field, 10)
    assert left.merge(right) is left
    for index, field in enumerate(ResourceAccount.__slots__):
        assert getattr(left, field) == index + 10


def test_activation_is_thread_local_and_nests() -> None:
    assert account() is None
    outer, inner = ResourceAccount(), ResourceAccount()
    with activate(outer):
        assert account() is outer
        with activate(inner):
            assert account() is inner
        assert account() is outer
        seen_in_thread: List[object] = []
        thread = threading.Thread(
            target=lambda: seen_in_thread.append(account())
        )
        thread.start()
        thread.join()
        assert seen_in_thread == [None]  # other threads see their own slot
    assert account() is None


def test_evaluation_credits_the_active_account() -> None:
    from repro.algebra import RelationRef, Unique
    from repro.language.context import ExecutionContext

    database = seeded()
    acct = ResourceAccount()
    context = ExecutionContext(
        dict(database.snapshot()), account=acct
    )
    expr = Unique(RelationRef("acct", database.schema.get("acct")))
    result = context.evaluate(expr)
    assert len(result) == 3
    assert acct.rows_scanned == 4
    assert acct.rows_emitted == 3
    assert acct.dedup_rows_in == 4
    assert acct.dedup_rows_out == 3
    assert acct.dedup_ratio == pytest.approx(4 / 3)
    assert acct.evaluations == 1


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

#: One exposition sample line: name, optional labels, numeric value.
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[^{}]*\})?"
    r" (-?[0-9][0-9.eE+-]*|NaN|\+Inf|-Inf)$"
)
_LABEL = re.compile(r'([a-zA-Z0-9_]+)="((?:[^"\\]|\\.)*)"')

Sample = Tuple[str, FrozenSet[Tuple[str, str]], float]


def parse_exposition(text: str) -> List[Sample]:
    """Parse (and thereby validate) exposition text into samples."""
    samples: List[Sample] = []
    typed: set = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            typed.add(line.split()[2])
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        assert match, f"invalid exposition line: {line!r}"
        name, label_body, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or base in typed, f"undeclared metric {name}"
        labels = frozenset(_LABEL.findall(label_body or ""))
        samples.append((name, labels, float(value)))
    return samples


def test_counter_names_get_total_suffix() -> None:
    registry = MetricsRegistry()
    registry.counter("server.requests", op="xra").inc(3)
    text = render_prometheus(registry.snapshot())
    assert "# TYPE repro_server_requests_total counter" in text
    assert 'repro_server_requests_total{op="xra"} 3' in text


def test_label_values_are_escaped() -> None:
    registry = MetricsRegistry()
    registry.counter("errors", detail='quote " slash \\ nl \n').inc()
    text = render_prometheus(registry.snapshot())
    assert r'detail="quote \" slash \\ nl \n"' in text
    parse_exposition(text)


def test_non_numeric_gauges_are_skipped() -> None:
    registry = MetricsRegistry()
    registry.gauge("session.engine").set("vector")
    registry.gauge("cache.bytes").set(1024)
    text = render_prometheus(registry.snapshot())
    assert "vector" not in text
    assert "repro_cache_bytes 1024" in text


def test_histogram_buckets_are_cumulative_and_monotone() -> None:
    registry = MetricsRegistry()
    histogram = registry.histogram("request_seconds")
    for value in range(1, 101):
        histogram.observe(value / 100.0)
    samples = parse_exposition(render_prometheus(registry.snapshot()))
    buckets = [
        (dict(labels)["le"], value)
        for name, labels, value in samples
        if name == "repro_request_seconds_bucket"
    ]
    assert buckets, "no bucket samples rendered"
    assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 100
    counts = [count for _, count in buckets]
    assert counts == sorted(counts), "cumulative counts must be monotone"
    boundaries = [float(le) for le, _ in buckets[:-1]]
    assert boundaries == sorted(boundaries)
    count = next(
        value for name, _, value in samples
        if name == "repro_request_seconds_count"
    )
    assert count == 100


def test_snapshot_schema_round_trips() -> None:
    """The documented snapshot schema survives JSON and feeds all surfaces."""
    registry = MetricsRegistry()
    registry.counter("server.requests", op="xra").inc(2)
    registry.gauge("server.inflight").set(1)
    registry.histogram("server.request_seconds", op="xra").observe(0.25)
    snapshot = registry.snapshot()
    restored = json.loads(json.dumps(snapshot))
    assert restored == snapshot
    for record in snapshot:
        assert record["event"] == "metric"
        assert record["kind"] in ("counter", "gauge", "histogram")
        assert isinstance(record["name"], str)
        if record["kind"] == "histogram":
            assert {"count", "sum", "min", "max", "mean",
                    "p50", "p95", "p99"} <= set(record)
        else:
            assert "value" in record
    # All three surfaces are derived from this one schema: the registry's
    # own text rendering and the Prometheus exposition accept the
    # round-tripped records unchanged.
    text = render_prometheus(restored)
    assert "repro_server_requests_total" in text
    assert "repro_server_request_seconds_bucket" in text
    rendered = registry.render()
    assert "server.requests" in rendered


# ---------------------------------------------------------------------------
# The admin plane against a live server under load
# ---------------------------------------------------------------------------


def _series(samples: List[Sample]) -> Dict[Tuple[str, FrozenSet], float]:
    return {(name, labels): value for name, labels, value in samples}


def test_scrape_under_concurrent_load(server) -> None:
    admin = server.server.telemetry_address
    assert admin is not None
    errors: List[BaseException] = []

    def worker(index: int) -> None:
        try:
            with ServerClient(*server.address) as client:
                for round_number in range(5):
                    client.xra("? unique(proj[%1](acct));")
                client.xra(
                    f"insert(acct, tuples[('worker-{index}', {index})]);"
                )
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(8)
    ]
    for thread in threads:
        thread.start()
    status, mid_text = scrape(admin)  # scrape *while* the load runs
    assert status == 200
    mid = _series(parse_exposition(mid_text))
    for thread in threads:
        thread.join()
    status, final_text = scrape(admin)
    assert status == 200
    final = _series(parse_exposition(final_text))

    # Counters are monotone between the mid-load and final scrapes.
    for key, value in mid.items():
        if key[0].endswith("_total"):
            assert key in final, f"counter series vanished: {key}"
            assert final[key] >= value, f"counter went backwards: {key}"

    # The headline request counter saw all 48 xra requests.
    xra_requests = sum(
        value
        for (name, labels), value in final.items()
        if name == "repro_server_requests_total"
        and ("op", "xra") in labels
    )
    assert xra_requests == 48
    names = {name for name, _ in final}
    assert "repro_server_admitted_total" in names
    assert "repro_server_admission_wait_seconds_count" in names
    assert "repro_server_request_seconds_bucket" in names
    assert "repro_server_write_lock_hold_seconds_count" in names
    # Per-connection gauges, labelled by client id.
    scanned = [
        (labels, value)
        for (name, labels), value in final.items()
        if name == "repro_server_session_rows_scanned"
    ]
    assert len(scanned) == 8
    # A session whose reads all hit the shared result cache scans zero
    # rows — but then its cache-hit gauge must say so.
    for labels, value in scanned:
        if value == 0:
            assert final[("repro_server_session_cache_hits", labels)] > 0
    requests = [
        value
        for (name, labels), value in final.items()
        if name == "repro_server_session_requests"
    ]
    assert sorted(requests) == [6] * 8


def test_response_carries_resources(server) -> None:
    with ServerClient(*server.address) as client:
        response = client.xra_response("? unique(acct);")
    resources = response["resources"]
    assert resources["rows_scanned"] == 4
    assert resources["dedup_rows_in"] == 4
    assert resources["dedup_rows_out"] == 3
    assert resources["statements"] == 1
    assert resources["batches_vectorized"] >= 1


def test_stats_command_and_top_dashboard(server) -> None:
    with ServerClient(*server.address) as client:
        client.xra("? unique(acct);")
        stats = client.stats()
        assert stats["server"]["draining"] is False
        assert stats["totals"]["requests"] >= 1
        assert stats["querylog"]["recorded"] >= 1
        assert any(
            record["name"] == "server.requests"
            for record in stats["metrics"]
        )
        (connection,) = stats["connections"]
        assert connection["resources"]["rows_scanned"] == 4
        screen = render_top(stats)
        assert "write lock free" in screen
        assert f"{connection['client']:>8}" in screen
        # The remote shell's .top is just this dashboard over one
        # stats round trip.
        from repro.cli import RemoteShell

        out = StringIO()
        shell = RemoteShell(client, out=out, err=out)
        assert shell.handle_meta(".top") is None
        assert "inflight" in out.getvalue()


def test_slowlog_and_stats_endpoints(server) -> None:
    admin = server.server.telemetry_address
    with ServerClient(*server.address) as client:
        client.xra("? acct;")
    status, body = scrape(admin, "/slowlog")
    assert status == 200
    entries = json.loads(body)["slowlog"]
    assert entries and entries[-1]["resources"]["rows_scanned"] == 4
    assert entries[-1]["trace_id"]  # propagated from the client envelope
    status, body = scrape(admin, "/stats")
    assert status == 200
    assert json.loads(body)["server"]["status"] == "ok"


def test_unknown_paths_and_methods(server) -> None:
    admin = server.server.telemetry_address
    status, body = scrape(admin, "/nope")
    assert status == 404
    assert "/metrics" in json.loads(body)["endpoints"]
    status, _ = scrape(admin, "/metrics", method="POST")
    assert status == 405
    connection = http.client.HTTPConnection(*admin, timeout=10)
    try:
        connection.request("HEAD", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert response.read() == b""  # HEAD: headers only
    finally:
        connection.close()


@contextlib.contextmanager
def standalone_plane(**kwargs) -> Iterator[TelemetryServer]:
    """A TelemetryServer on its own thread loop (no query server)."""
    plane = TelemetryServer(port=0, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(plane.start())
        started.set()
        loop.run_forever()
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    try:
        yield plane
    finally:
        asyncio.run_coroutine_threadsafe(plane.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)


def test_readyz_reflects_admission_saturation() -> None:
    health = {"status": "ok", "draining": False, "admission_saturated": True}
    with standalone_plane(health=lambda: dict(health)) as plane:
        status, _ = scrape(plane.address, "/healthz")
        assert status == 200  # saturated is not dead
        status, body = scrape(plane.address, "/readyz")
        assert status == 503
        assert json.loads(body)["ready"] is False
        health["admission_saturated"] = False
        status, body = scrape(plane.address, "/readyz")
        assert status == 200
        assert json.loads(body)["ready"] is True


def test_healthz_flips_during_drain(monkeypatch) -> None:
    original = ServerSession.run_statements

    def stalled(statements, context):
        time.sleep(1.0)
        return original(statements, context)

    monkeypatch.setattr(
        ServerSession, "run_statements", staticmethod(stalled)
    )
    handle = serve_in_background(
        seeded(), ServerConfig(telemetry=0, drain_timeout=15.0)
    )
    try:
        admin = handle.server.telemetry_address
        status, body = scrape(admin, "/healthz")
        assert status == 200 and json.loads(body)["draining"] is False

        def slow_query() -> None:
            with contextlib.suppress(Exception):
                with ServerClient(*handle.address) as client:
                    client.xra("? acct;")

        sender = threading.Thread(target=slow_query)
        sender.start()
        time.sleep(0.3)  # let the request reach the stalled executor
        future = asyncio.run_coroutine_threadsafe(
            handle.server.shutdown(), handle._loop
        )
        # The admin plane outlives the drain window, so a scraper sees
        # the flip to 503/draining while the in-flight request finishes.
        saw_draining = False
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with contextlib.suppress(OSError):
                status, body = scrape(admin, "/healthz")
                if status == 503 and json.loads(body)["draining"]:
                    saw_draining = True
                    break
            time.sleep(0.05)
        assert saw_draining
        future.result(20)
        sender.join(20)
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# Wire-level trace propagation and the stitched export
# ---------------------------------------------------------------------------


def test_stitched_trace_joins_one_to_one(server, tmp_path) -> None:
    obs.enable()
    with ServerClient(*server.address) as client:
        client.xra("? unique(acct);")
        client.begin()
        client.xra("insert(acct, tuples[('dave', 40)]);")
        client.commit()
        trace_id = client.trace_id
    records = [span.to_record() for span in obs.tracer().ordered()]
    client_side = [r for r in records if r["name"] == "client.request"]
    server_side = [r for r in records if r["name"] != "client.request"]
    assert client_side and server_side

    # The join key is exact: every client request span pairs with
    # exactly one server request span via (trace_id, span_id).
    client_keys = {
        (r["attrs"]["trace_id"], r["attrs"]["span_id"]) for r in client_side
    }
    # client.close() sends a raw, untraced frame; every request that went
    # through ServerClient.request carries the propagated context.
    server_requests = [
        r for r in server_side
        if r["name"] == "server.request"
        and "trace_id" in r.get("attrs", {})
    ]
    server_keys = {
        (r["attrs"]["trace_id"], r["attrs"]["parent_span_id"])
        for r in server_requests
    }
    assert client_keys == server_keys
    assert len(client_keys) == len(client_side) == len(server_requests)
    assert all(key[0] == trace_id for key in client_keys)
    # The server minted its own span id for each linked span.
    assert all(r["attrs"]["span_id"] for r in server_requests)

    events = stitch_trace_events(client_side, server_side)
    stitched = [
        event for event in events
        if event.get("pid") == 2 and "stitched" in event.get("args", {})
    ]
    assert stitched
    by_name = {event["name"] for event in stitched
               if event["args"]["stitched"]}
    # The request span and its phases all land inside the client span.
    assert "server.request" in by_name
    assert "server.snapshot.pin" in by_name
    assert "server.execute" in by_name
    assert "server.admission.wait" in by_name
    assert "server.commit" in by_name
    client_events = [
        event for event in events
        if event.get("pid") == 1 and event.get("ph") == "X"
    ]
    for event in stitched:
        if event["name"] != "server.request":
            continue
        if event["args"].get("op") == "close":
            assert event["args"]["stitched"] is False  # untraced frame
            continue
        assert event["args"]["stitched"] is True
        containing = [
            parent for parent in client_events
            if parent["ts"] - 1e-3 <= event["ts"]
            and event["ts"] + event["dur"]
            <= parent["ts"] + parent["dur"] + 1e-3
        ]
        assert containing, "server.request not inside any client span"

    target = tmp_path / "stitched.json"
    written = export_stitched_trace(str(target), client_side, server_side)
    payload = json.loads(target.read_text())
    assert written == len(payload["traceEvents"]) == len(events)
    assert payload["displayTimeUnit"] == "ms"
