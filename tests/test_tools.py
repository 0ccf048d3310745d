"""Tests for the explain tooling."""

import pytest

from repro.algebra import Product, RelationRef, Select
from repro.engine import evaluate
from repro.tools import explain
from repro.workloads import tiny_beer_database


@pytest.fixture
def setup():
    db = tiny_beer_database()
    env = dict(db.as_env())
    beer = RelationRef("beer", env["beer"].schema)
    brewery = RelationRef("brewery", env["brewery"].schema)
    expr = Select(
        "%2 = %4 and %6 = 'Netherlands'", Product(beer, brewery)
    ).project(["%1"])
    return env, expr


class TestExplain:
    def test_report_sections(self, setup):
        env, expr = setup
        report = explain(expr, env)
        text = str(report)
        for section in ("== logical ==", "== rewrites ==", "== optimized ==",
                        "== estimates ==", "== physical =="):
            assert section in text

    def test_rules_fired_recorded(self, setup):
        env, expr = setup
        report = explain(expr, env)
        assert "split-select" in report.rules_fired

    def test_optimized_semantics_preserved(self, setup):
        env, expr = setup
        report = explain(expr, env)
        assert evaluate(report.optimized, env) == evaluate(expr, env)

    def test_cost_never_increases(self, setup):
        env, expr = setup
        report = explain(expr, env)
        assert report.estimated_cost_after() <= report.estimated_cost_before()

    def test_without_env_no_estimates(self, setup):
        _env, expr = setup
        report = explain(expr)
        assert report.estimated_cost_before() is None
        assert "== estimates ==" not in str(report)

    def test_with_histograms(self, setup):
        env, expr = setup
        report = explain(expr, env, with_histograms=True)
        assert report.catalog.histograms is not None

    def test_physical_plan_is_runnable(self, setup):
        env, expr = setup
        report = explain(expr, env)
        from repro.engine.vector import collect_batches

        assert collect_batches(report.physical, env) == evaluate(expr, env)
