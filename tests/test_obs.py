"""Tests for the observability subsystem (repro.obs).

Covers the tracer (nesting, disable semantics, sinks), the metrics
registry, the query log, the JSONL exporter, and the end-to-end
instrumentation of the query pipeline — parse, optimize, plan, execute —
plus the CLI meta-commands that surface it all.
"""

import io
import json

import pytest

from repro import obs
from repro.algebra import LiteralRelation
from repro.cli import Shell
from repro.language import Insert, Session
from repro.obs import (
    NULL_SPAN,
    JsonLinesSink,
    MetricsRegistry,
    QueryLog,
    Tracer,
    export_jsonl,
    render_summary,
)
from repro.relation import Relation
from repro.sql import sql_to_algebra
from repro.workloads import tiny_beer_database


@pytest.fixture(autouse=True)
def _isolate_obs():
    """Every test starts and ends with observability fully off."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def beer_session():
    db = tiny_beer_database()
    return Session(db), db


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        [inner] = tracer.find("inner")
        [outer] = tracer.find("outer")
        assert inner.parent_index == outer.index
        assert inner.depth == outer.depth + 1
        assert outer.parent_index is None

    def test_completion_vs_start_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        # Children close first, so completion order is inner, outer...
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        # ...but ordered() restores start order.
        assert [s.name for s in tracer.ordered()] == ["outer", "inner"]

    def test_span_attributes(self):
        tracer = Tracer()
        with tracer.span("work", phase="parse") as span:
            span.set(tokens=42)
        [work] = tracer.find("work")
        record = work.to_record()
        assert record["event"] == "span"
        assert record["attrs"] == {"phase": "parse", "tokens": 42}
        assert record["seconds"] >= 0.0

    def test_exception_marks_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        [boom] = tracer.find("boom")
        assert boom.attrs["error"] == "ValueError"

    def test_max_spans_cap(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 3
        assert tracer.dropped == 2

    def test_spans_stream_to_sink(self):
        buffer = io.StringIO()
        tracer = Tracer(sink=JsonLinesSink(buffer))
        with tracer.span("a"):
            pass
        record = json.loads(buffer.getvalue())
        assert record["name"] == "a"

    def test_render_is_indented(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        lines = tracer.render().splitlines()
        # Two header lines, then the tree in start order.
        assert lines[2].startswith("outer")
        assert lines[3].startswith("  inner")


class TestDisableSemantics:
    def test_disabled_span_is_null_singleton(self):
        assert not obs.enabled()
        span = obs.span("anything", key="value")
        assert span is NULL_SPAN
        assert not span.recording
        with span as entered:
            entered.set(ignored=1)  # must be a silent no-op

    def test_disabled_metrics_are_noops(self):
        obs.add("some.counter", 5)
        obs.observe("some.histogram", 1.0)
        obs.gauge("some.gauge", 3)
        assert len(obs.metrics()) == 0
        assert obs.metrics().value("some.counter") is None

    def test_enable_then_disable(self):
        obs.enable()
        assert obs.enabled()
        with obs.span("live") as span:
            assert span.recording
        assert obs.tracer().find("live")
        obs.disable()
        assert not obs.enabled()
        assert obs.span("dead") is NULL_SPAN

    def test_metrics_survive_disable_until_reset(self):
        obs.enable()
        obs.add("kept.counter", 2)
        obs.disable()
        assert obs.metrics().value("kept.counter") == 2
        obs.reset()
        assert obs.metrics().value("kept.counter") is None


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.value("hits") == 5

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("rows", op="scan").inc(10)
        registry.counter("rows", op="join").inc(3)
        assert registry.value("rows", op="scan") == 10
        assert registry.value("rows", op="join") == 3
        assert registry.total("rows") == 13

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x", a=1, b=2).inc()
        assert registry.value("x", b=2, a=1) == 1

    def test_gauge_keeps_last(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(7)
        assert registry.value("depth") == 7

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("hits", kind="a").inc(2)
        records = registry.snapshot()
        assert all(r["event"] == "metric" for r in records)
        assert any(r["name"] == "hits" for r in records)
        assert "hits" in registry.render()

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.reset()
        assert registry.value("hits") is None
        assert len(registry) == 0


# ---------------------------------------------------------------------------
# Pipeline instrumentation, end to end
# ---------------------------------------------------------------------------


class TestPipelineTracing:
    def test_sql_query_produces_nested_spans(self, beer_session):
        session, db = beer_session
        obs.enable()
        expr = sql_to_algebra(
            "SELECT beer.name FROM beer, brewery "
            "WHERE beer.brewery = brewery.name",
            db.schema,
        )
        session.query(expr)
        names = [s.name for s in obs.tracer().ordered()]
        for expected in ("sql.parse", "sql.lex", "session.query",
                         "optimize", "plan", "execute"):
            assert expected in names, f"missing span {expected}"
        # parse happens before the session span; lex nests under parse;
        # plan and execute nest under session.query.
        tracer = obs.tracer()
        [lex] = tracer.find("sql.lex")
        [parse] = tracer.find("sql.parse")
        assert lex.parent_index == parse.index
        [query] = tracer.find("session.query")
        [plan] = tracer.find("plan")
        [execute] = tracer.find("execute")
        assert plan.depth > query.depth
        assert execute.depth > query.depth

    def test_execute_span_carries_operator_records(self, beer_session):
        session, _db = beer_session
        obs.enable()
        beer = session.relation("beer")
        brewery = session.relation("brewery")
        expr = beer.product(brewery).select("%2 = %4").project(["%1"])
        result = session.query(expr)
        [execute] = obs.tracer().find("execute")
        operators = execute.attrs["operators"]
        assert execute.attrs["rows"] == len(result)
        assert any(op["op"] == "v-hash-join" for op in operators)
        assert all("rows" in op and "pairs" in op for op in operators)

    def test_operator_and_rule_counters_nonzero(self, beer_session):
        session, _db = beer_session
        obs.enable()
        beer = session.relation("beer")
        brewery = session.relation("brewery")
        expr = beer.product(brewery).select("%2 = %4").project(["%1"])
        session.query(expr)
        registry = obs.metrics()
        assert registry.total("operator.rows") > 0
        assert registry.total("operator.pairs") > 0
        assert registry.total("optimizer.rule_hits") > 0
        assert registry.value("optimizer.runs") == 1
        assert registry.value("session.queries") == 1

    def test_transaction_spans_and_counters(self, beer_session):
        session, db = beer_session
        obs.enable()
        schema = db.schema.get("beer")
        row = next(iter(db["beer"]))
        session.run([Insert("beer", LiteralRelation(Relation(schema, [row])))])
        tracer = obs.tracer()
        [txn] = tracer.find("transaction")
        [commit] = tracer.find("commit")
        assert commit.parent_index == txn.index
        assert txn.attrs["outcome"] == "commit"
        assert obs.metrics().value("transactions.committed") == 1

    def test_xra_parse_spans(self):
        obs.enable()
        from repro.xra import parse_script

        db = tiny_beer_database()
        parse_script("? beer;", db.schema.get)
        names = [s.name for s in obs.tracer().ordered()]
        assert "xra.parse" in names
        assert "xra.lex" in names

    def test_disabled_pipeline_records_nothing(self, beer_session):
        session, _db = beer_session
        beer = session.relation("beer")
        session.query(beer.select("%3 > 0"))
        assert obs.metrics().total("operator.rows") == 0


# ---------------------------------------------------------------------------
# Query log / slow queries
# ---------------------------------------------------------------------------


class TestQueryLog:
    def test_records_and_flags_slow(self):
        log = QueryLog(slow_threshold=0.5)
        log.record(kind="query", text="fast", seconds=0.1, plan="p",
                   rows=1, distinct=1, logical_time=0)
        log.record(kind="query", text="slow", seconds=0.9, plan="p",
                   rows=1, distinct=1, logical_time=1)
        assert log.recorded == 2
        assert log.slow_count == 1
        assert [r.text for r in log.slow()] == ["slow"]

    def test_no_threshold_means_nothing_slow(self):
        log = QueryLog()
        log.record(kind="query", text="q", seconds=99.0, plan="p",
                   rows=0, distinct=0, logical_time=0)
        assert log.slow_count == 0

    def test_capacity_ring(self):
        log = QueryLog(capacity=2)
        for i in range(5):
            log.record(kind="query", text=f"q{i}", seconds=0.0, plan="p",
                       rows=0, distinct=0, logical_time=i)
        assert log.recorded == 5
        assert [r.text for r in log.tail()] == ["q3", "q4"]

    def test_session_populates_log(self, beer_session):
        session, _db = beer_session
        session.query_log = QueryLog(slow_threshold=0.0)
        beer = session.relation("beer")
        result = session.query(beer.select("%3 > 4"))
        [record] = session.query_log.tail()
        assert record.kind == "query"
        assert record.rows == len(result)
        assert record.slow  # threshold 0 flags everything
        assert "beer" in record.plan

    def test_session_logs_transactions(self, beer_session):
        session, db = beer_session
        session.query_log = QueryLog()
        schema = db.schema.get("beer")
        row = next(iter(db["beer"]))
        session.run([Insert("beer", LiteralRelation(Relation(schema, [row])))])
        [record] = session.query_log.tail()
        assert record.kind == "commit"
        assert record.text.startswith("insert(beer")

    def test_render(self):
        log = QueryLog(slow_threshold=0.5)
        log.record(kind="query", text="q", seconds=1.0, plan="p",
                   rows=2, distinct=2, logical_time=0)
        text = log.render()
        assert "1 recorded" in text
        assert "1 slow" in text


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


class TestExport:
    def test_jsonl_file_roundtrip(self, tmp_path, beer_session):
        session, _db = beer_session
        path = tmp_path / "trace.jsonl"
        obs.enable(sink=JsonLinesSink(str(path)))
        beer = session.relation("beer")
        session.query(beer.select("%3 > 0"))
        obs.disable()  # closes the sink
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records
        names = {r["name"] for r in records}
        assert {"optimize", "plan", "execute", "session.query"} <= names
        assert all(r["event"] == "span" for r in records)

    def test_export_jsonl_batch(self, tmp_path):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.add("things", 3)
        path = tmp_path / "out.jsonl"
        export_jsonl(str(path), obs.tracer(), obs.metrics())
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        span_names = [r["name"] for r in records if r["event"] == "span"]
        assert span_names == ["outer", "inner"]  # start order
        metric_records = [r for r in records if r["event"] == "metric"]
        assert any(r["name"] == "things" for r in metric_records)

    def test_render_summary(self):
        obs.enable()
        with obs.span("s"):
            obs.add("hits")
        text = render_summary(obs.metrics(), obs.tracer())
        assert "hits" in text
        assert "1 span(s) recorded" in text


# ---------------------------------------------------------------------------
# CLI meta-commands
# ---------------------------------------------------------------------------


def make_shell():
    out, err = io.StringIO(), io.StringIO()
    shell = Shell(tiny_beer_database(), out=out, err=err)
    return shell, out, err


class TestCliCommands:
    def test_trace_on_off(self, tmp_path):
        shell, out, _err = make_shell()
        path = tmp_path / "t.jsonl"
        shell.handle_meta(f".trace on {path}")
        assert obs.enabled()
        shell.execute_xra("? beer;")
        shell.handle_meta(".trace off")
        assert not obs.enabled()
        assert "tracing on" in out.getvalue()
        assert path.exists() and path.read_text().strip()

    def test_metrics_command(self, tmp_path):
        shell, out, _err = make_shell()
        shell.handle_meta(f".trace on {tmp_path / 't.jsonl'}")
        shell.execute_xra("? sel[alcperc > 4.0](beer);")
        shell.handle_meta(".metrics")
        text = out.getvalue()
        assert "operator.rows" in text
        assert "optimizer" in text

    def test_metrics_hint_when_off(self):
        shell, out, _err = make_shell()
        shell.handle_meta(".metrics")
        assert "observability is off" in out.getvalue()

    def test_slowlog_threshold_and_listing(self):
        shell, out, _err = make_shell()
        shell.handle_meta(".slowlog 0")
        assert shell.query_log.slow_threshold == 0.0
        shell.execute_xra("? beer;")
        shell.handle_meta(".slowlog")
        text = out.getvalue()
        assert "threshold set to 0s" in text
        assert "1 slow" in text

    def test_slowlog_all(self):
        shell, out, _err = make_shell()
        shell.execute_xra("? beer;")
        shell.handle_meta(".slowlog all")
        assert "1 recorded" in out.getvalue()

    def test_slowlog_bad_argument(self):
        shell, _out, err = make_shell()
        shell.handle_meta(".slowlog nope")
        assert "usage" in err.getvalue()

    def test_help_mentions_obs_commands(self):
        shell, out, _err = make_shell()
        shell.handle_meta(".help")
        text = out.getvalue()
        for command in (".trace", ".metrics", ".slowlog"):
            assert command in text
