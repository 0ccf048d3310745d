"""Tests for EXPLAIN ANALYZE (repro.obs.analyze) and its feedback loop.

Covers the instrumented pipeline (estimate vs. actual per operator,
misestimate flagging, consolidation counts), the statistics feedback
via ``StatisticsCatalog.record_actuals`` — including the differential
test that a deliberately mis-statisticed join chain is re-planned after
feedback — and the wiring through ``tools.explain_analyze``, ``Session``,
the XRA interpreter, and the CLI's ``.analyze``.
"""

import io
import json

import pytest

from repro import obs
from repro.algebra import Join, Product, RelationRef, Select, Unique, render
from repro.cli import Shell
from repro.engine.statistics import StatisticsCatalog, TableStats, estimate_cardinality
from repro.language import Session
from repro.obs.analyze import AnalyzeReport, analyze
from repro.tools import explain_analyze
from repro.workloads import join_chain_relations, tiny_beer_database
from repro.xra import XRAInterpreter


@pytest.fixture(autouse=True)
def _isolate_obs():
    obs.reset()
    yield
    obs.reset()


def chain(count, sizes, distincts, seed):
    """A join-chain workload: (env, refs) over r1..rN."""
    relations = join_chain_relations(count, sizes, distincts, seed=seed)
    env = {relation.schema.name: relation for relation in relations}
    refs = [
        RelationRef(relation.schema.name, relation.schema)
        for relation in relations
    ]
    return env, refs


# ---------------------------------------------------------------------------
# The analyze pipeline
# ---------------------------------------------------------------------------


class TestAnalyzePipeline:
    def test_every_operator_has_actuals_and_estimates(self):
        env, refs = chain(2, [50, 10], [5, 4, 4], seed=1)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        report = analyze(expr, env)
        assert isinstance(report, AnalyzeReport)
        assert len(report.operators) >= 3  # join + two scans
        for op in report.operators:
            assert op.est_rows is not None
            assert op.rows >= 0
            assert op.invocations >= 1
            assert op.fingerprint
        # Root actuals match the materialised result.
        assert report.operators[0].rows == report.result_rows
        assert report.result is not None
        assert len(report.result) == report.result_rows

    def test_exact_catalog_estimates_scans_exactly(self):
        env, refs = chain(2, [30, 10], [5, 4, 4], seed=2)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        report = analyze(expr, env)  # default: exact stats from env
        scans = [op for op in report.operators if op.op_class == "v-scan"]
        assert scans
        for scan in scans:
            assert scan.est_rows == scan.rows
            assert scan.relation in env

    def test_misestimates_flagged_at_threshold(self):
        env, refs = chain(2, [200, 10], [10, 4, 4], seed=3)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        # An empty catalog guesses 1000 rows per table: r2 is off 100x.
        report = analyze(expr, env, catalog=StatisticsCatalog())
        flagged = report.flagged()
        assert flagged
        assert all(op.misestimate_factor >= report.threshold for op in flagged)
        assert "⚠" in report.render()

    def test_accurate_run_flags_nothing_on_scans(self):
        env, refs = chain(2, [30, 10], [5, 4, 4], seed=4)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        report = analyze(expr, env)
        scans = [op for op in report.operators if op.op_class == "v-scan"]
        assert all(not op.flagged() for op in scans)

    def test_consolidation_counted_on_distinct(self):
        env, refs = chain(1, [40], [3, 3], seed=5)
        report = analyze(Unique(refs[0]), env)
        distinct = [op for op in report.operators if op.op_class == "v-distinct"]
        assert len(distinct) == 1
        op = distinct[0]
        assert op.rows_in == 40
        assert op.consolidated == op.rows_in - op.rows
        assert op.consolidated > 0  # only 3 distinct values in 40 rows
        assert f"dedup=-{op.consolidated:,}" in report.render()

    def test_report_is_json_serializable(self):
        env, refs = chain(2, [20, 10], [4, 3, 3], seed=6)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        report = analyze(expr, env)
        payload = json.loads(report.to_json())
        assert payload["event"] == "analyze"
        assert payload["rows"] == report.result_rows
        assert payload["rewrites"]  # select-over-product fuses to a join
        assert len(payload["operators"]) == len(report.operators)
        for record in payload["operators"]:
            assert {"label", "op", "rows", "seconds", "invocations"} <= set(record)

    def test_rewrite_trace_recorded(self):
        env, refs = chain(2, [20, 10], [4, 3, 3], seed=7)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        report = analyze(expr, env)
        assert "select-product-to-join" in report.rewrites
        assert "⋈" in report.optimized

    def test_analyze_metrics_accumulate_without_tracing(self):
        env, refs = chain(1, [10], [3, 3], seed=8)
        assert not obs.enabled()
        analyze(refs[0], env)
        registry = obs.metrics()
        assert registry.total("analyze.runs") == 1
        assert registry.total("analyze.operators") >= 1
        assert registry.histogram("analyze.seconds").count == 1

    def test_misestimate_metric_labelled_by_op_class(self):
        env, refs = chain(1, [500], [5, 5], seed=9)
        analyze(refs[0], env, catalog=StatisticsCatalog())  # 1000 vs 500: 2x, fine
        assert obs.metrics().total("plan.misestimate") == 0
        analyze(
            Select("%1 = 1", refs[0]),
            env,
            catalog=StatisticsCatalog({"r1": TableStats(2)}),
        )
        assert obs.metrics().total("plan.misestimate") >= 1

    def test_cache_provenance(self):
        db = tiny_beer_database()
        session = Session(db, cache=True)
        beer = session.relation("beer")
        expr = beer.select("%3 > 5")
        session.query(expr)  # populate the result cache
        report = analyze(
            expr, db.snapshot(), cache=session.cache
        )
        assert report.cache is not None
        assert report.cache["result_cached"] is True
        assert "cache: result cached" in report.render()


# ---------------------------------------------------------------------------
# Estimate-vs-actual feedback
# ---------------------------------------------------------------------------


class TestFeedback:
    def test_record_actuals_updates_observed_and_tables(self):
        env, refs = chain(2, [60, 10], [5, 4, 4], seed=10)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        catalog = StatisticsCatalog()  # knows nothing
        report = analyze(expr, env, catalog=catalog)
        recorded = catalog.record_actuals(report)
        assert recorded == len(report.operators)
        assert catalog.tables["r1"].row_count == 60
        assert catalog.tables["r2"].row_count == 10
        # Actuals are keyed on the optimizer normal form (the tree that
        # actually ran); its estimate now equals the observed actual.
        from repro.optimizer import optimize

        normalized = optimize(expr, catalog)
        assert estimate_cardinality(normalized, catalog) == report.result_rows

    def test_vector_scan_annotation_names_its_relation(self):
        # The scan annotation is what record_actuals learns base
        # cardinalities from; it must name the relation on the plans
        # the engine actually runs.
        from repro.engine.vector import plan_vector
        from repro.obs.analyze import annotate_estimates

        env, refs = chain(1, [30], [5, 4], seed=17)
        expr = Select("%1 > 1", refs[0])
        physical = plan_vector(expr)
        annotations = annotate_estimates(
            expr, physical, StatisticsCatalog.from_env(env)
        )
        assert annotations[id(physical.child)]["relation"] == "r1"
        assert "relation" not in annotations[id(physical)]

    def test_observed_cardinality_is_cheap_when_empty(self):
        catalog = StatisticsCatalog()
        env, refs = chain(1, [5], [2, 2], seed=11)
        assert catalog.observed_cardinality(refs[0]) is None

    def test_feedback_clears_flags_on_rerun(self):
        env, refs = chain(2, [200, 10], [10, 4, 4], seed=12)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        catalog = StatisticsCatalog()
        first = analyze(expr, env, catalog=catalog, record=True)
        assert first.flagged()
        second = analyze(expr, env, catalog=catalog)
        assert not second.flagged()
        assert second.result == first.result

    def test_record_actuals_changes_join_plan(self):
        """The acceptance differential: a deliberately mis-statisticed
        join chain is re-associated once actuals flow back."""
        env, refs = chain(3, [2000, 10, 10], [50, 5, 5, 5], seed=13)
        expr = Join(
            Join(refs[0], refs[1], "%2 = %3"), refs[2], "%4 = %5"
        )
        # The catalog believes r1 is tiny; it actually has 2000 rows.
        lying = StatisticsCatalog(
            {"r1": TableStats(2), "r2": TableStats(10), "r3": TableStats(10)}
        )
        before = analyze(expr, env, catalog=lying)
        assert before.flagged()  # the lie is visible at runtime
        lying.record_actuals(before)
        after = analyze(expr, env, catalog=lying)
        # Same bag result (Theorem 3.3 — associativity), different plan.
        assert after.result == before.result
        assert after.optimized != before.optimized

    def test_explain_analyze_tool_records_on_request(self):
        env, refs = chain(2, [40, 10], [5, 4, 4], seed=14)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        catalog = StatisticsCatalog()
        report = explain_analyze(expr, env, catalog=catalog, record=True)
        assert isinstance(report, AnalyzeReport)
        assert catalog.observed  # actuals were folded in


# ---------------------------------------------------------------------------
# Session / XRA / CLI wiring
# ---------------------------------------------------------------------------


class TestSessionAnalyze:
    def test_explain_analyze_matches_query(self):
        db = tiny_beer_database()
        session = Session(db)
        expr = session.relation("beer").select("%3 > 5")
        report = session.explain_analyze(expr)
        assert report.result == session.query(expr)
        assert session.last_analyze is report

    def test_analyze_mode_query_returns_relation(self):
        db = tiny_beer_database()
        session = Session(db, analyze=True)
        expr = session.relation("beer").select("%3 > 5")
        plain = Session(db).query(expr)
        assert session.query(expr) == plain
        assert session.last_analyze is not None

    def test_session_feedback_accumulates_across_queries(self):
        db = tiny_beer_database()
        session = Session(db, analyze=True)
        expr = session.relation("beer").select("%3 > 5")
        session.query(expr)
        catalog = session.analyze_catalog()
        assert catalog.observed
        assert estimate_cardinality(expr, catalog) == len(session.query(expr))

    def test_analyze_mode_logs_kind_and_fingerprint(self):
        from repro.obs import QueryLog

        db = tiny_beer_database()
        session = Session(db, analyze=True, query_log=QueryLog())
        session.query(session.relation("beer").select("%3 > 5"))
        record = session.query_log.records[-1]
        assert record.kind == "analyze"
        assert record.fingerprint
        assert record.to_record()["fingerprint"] == record.fingerprint

    def test_reference_engine_rejects_analyze(self):
        db = tiny_beer_database()
        session = Session(db, use_physical_engine=False)
        with pytest.raises(ValueError):
            session.set_analyze(True)
        with pytest.raises(ValueError):
            session.explain_analyze(session.relation("beer"))

    def test_query_log_fingerprint_matches_cache_key(self):
        from repro.obs import QueryLog

        db = tiny_beer_database()
        session = Session(db, cache=True, query_log=QueryLog())
        expr = session.relation("beer").select("%3 > 5")
        session.query(expr)
        record = session.query_log.records[-1]
        assert session.cache.result_cached(record.fingerprint)
        # The log reads the plan that ran, not the tracer (off here).
        plan = session.plan(expr)
        assert record.fingerprint == plan.fingerprint
        assert record.plan == render(plan.normalized)


class TestXraAnalyze:
    def test_script_reports_collected(self):
        interp = XRAInterpreter(Session(tiny_beer_database(), analyze=True))
        result = interp.run("? sel[%3 > 5](beer); ? proj[%1](beer);")
        assert len(result.analyze_reports) == 2
        assert len(result.outputs) == 2
        assert result.committed
        assert result.outputs[0] == result.analyze_reports[0].result

    def test_analyze_off_by_default(self):
        interp = XRAInterpreter(tiny_beer_database())
        result = interp.run("? sel[%3 > 5](beer);")
        assert result.analyze_reports == []

    def test_writes_still_run_as_transactions(self):
        interp = XRAInterpreter(Session(tiny_beer_database(), analyze=True))
        result = interp.run(
            "insert(beer, tuples[('New', 'Brew', 5.0)]); ? beer;"
        )
        assert result.committed
        assert len(result.analyze_reports) == 1  # only the read


class TestCliAnalyze:
    def run_shell(self, text):
        out, err = io.StringIO(), io.StringIO()
        shell = Shell(tiny_beer_database(), out=out, err=err)
        shell.run(io.StringIO(text))
        return out.getvalue(), err.getvalue(), shell

    def test_analyze_command_prints_annotated_tree(self):
        out, err, _shell = self.run_shell(".analyze sel[%3 > 5](beer)\n")
        assert not err
        assert "EXPLAIN ANALYZE" in out
        assert "est=" in out and "act=" in out
        assert "ms" in out

    def test_analyze_mode_toggles(self):
        out, err, shell = self.run_shell(
            ".analyze on\n? sel[%3 > 5](beer);\n.analyze off\n"
        )
        assert not err
        assert "analyze mode on" in out
        assert "EXPLAIN ANALYZE" in out
        assert "Dubbel" in out  # the result still prints
        assert len(shell.analyze_reports) == 1

    def test_command_and_mode_feed_one_catalog(self):
        out, err, shell = self.run_shell(
            ".analyze sel[%3 > 5](beer)\n.analyze on\n? proj[%1](beer);\n"
        )
        assert not err
        command, statement = shell.analyze_reports
        observed = shell.session.analyze_catalog().observed
        for report in (command, statement):
            assert report.operators[0].fingerprint in observed

    def test_analyze_bad_query_reports_error(self):
        out, err, _shell = self.run_shell(".analyze sel[%3 > 5](nothere)\n")
        assert "error" in err

    def test_metrics_show_percentiles(self):
        out, err, _shell = self.run_shell(
            ".analyze sel[%3 > 5](beer)\n.metrics\n"
        )
        assert not err
        assert "analyze.runs" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out


# ---------------------------------------------------------------------------
# Overhead guard
# ---------------------------------------------------------------------------


class TestZeroOverheadWhenOff:
    def test_physical_ops_carry_no_analyze_state(self):
        from repro.engine.vector import VectorOp

        assert VectorOp.__slots__ == ("schema", "batch_size")

    def test_profiling_only_wraps_on_request(self):
        from repro.engine.planner import plan_physical
        from repro.engine.vector import VScanOp

        env, refs = chain(1, [10], [3, 3], seed=15)
        physical = plan_physical(refs[0])
        assert isinstance(physical, VScanOp)  # no wrappers in the plain path

    def test_estimates_unchanged_without_observations(self):
        env, refs = chain(2, [50, 10], [5, 4, 4], seed=16)
        expr = Select("%2 = %3", Product(refs[0], refs[1]))
        catalog = StatisticsCatalog.from_env(env)
        before = estimate_cardinality(expr, catalog)
        analyze(expr, env)  # uses its own catalog; ours must not change
        assert estimate_cardinality(expr, catalog) == before
