"""Tests for the operator-level execution profiler."""

import pytest

from repro.algebra import Product, RelationRef, Select
from repro.engine import evaluate
from repro.engine.profiler import execute_profiled
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


class TestProfiler:
    def test_result_matches_reference(self, setup):
        env, expr = setup
        result, _profile = execute_profiled(expr, env)
        assert result == evaluate(expr, env)

    def test_profile_counts_rows(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        by_label = profile.by_label()
        assert by_label["v-scan beer"].rows == 6
        assert by_label["v-scan brewery"].rows == 4

    def test_join_fusion_visible_in_profile(self, setup):
        env, expr = setup
        # The planner fuses sigma-over-product into a hash join; the
        # profile should show join output far below the 24-row product.
        _result, profile = execute_profiled(expr, env)
        join_profiles = [
            p for p in profile.profiles if p.label.startswith("v-hash-join")
        ]
        assert join_profiles
        assert join_profiles[0].rows <= 6

    def test_join_emits_fewer_pairs_than_raw_product(self, setup):
        env, expr = setup
        beer = RelationRef("beer", env["beer"].schema)
        brewery = RelationRef("brewery", env["brewery"].schema)
        _r1, product_profile = execute_profiled(Product(beer, brewery), env)
        _r2, fused_profile = execute_profiled(expr, env)
        # The raw product emits |beer|·|brewery| pairs; the fused hash
        # join only the matches — the profiler makes the saving visible.
        product_pairs = product_profile.by_label()["v-product"].pairs
        join_pairs = [
            p for p in fused_profile.profiles if "hash-join" in p.label
        ][0].pairs
        assert product_pairs == 24
        assert join_pairs < product_pairs

    def test_report_renders(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        text = str(profile)
        assert "operator" in text
        assert "scan beer" in text

    def test_depths_follow_plan_shape(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        assert profile.profiles[0].depth == 0
        assert max(p.depth for p in profile.profiles) >= 1

    def test_group_by_and_distinct_profiled(self, setup):
        env, _expr = setup
        beer = RelationRef("beer", env["beer"].schema)
        expr = beer.group_by(["brewery"], "CNT", None).distinct()
        result, profile = execute_profiled(expr, env)
        assert result == evaluate(expr, env)
        labels = [p.label for p in profile.profiles]
        assert any("groupby" in label for label in labels)
        assert any("distinct" in label for label in labels)


class TestProfileReportErgonomics:
    def test_stable_plan_preorder_ordering(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        indexes = [p.index for p in profile.profiles]
        assert indexes == sorted(indexes)
        # Shuffled input comes back out in plan order.
        from repro.engine.profiler import ProfileReport

        reshuffled = ProfileReport(list(reversed(profile.profiles)))
        assert [p.index for p in reshuffled.profiles] == indexes

    def test_total_seconds_is_root_inclusive_time(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        assert profile.total_seconds == profile.profiles[0].seconds
        assert profile.total_seconds >= 0.0

    def test_exclusive_seconds_never_negative(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        for entry in profile.profiles:
            assert profile.exclusive_seconds(entry) >= 0.0

    def test_exclusive_seconds_clamps_fast_children(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        # Force the pathological case: a parent that (by timer noise)
        # appears faster than its children must clamp at zero.
        root = profile.profiles[0]
        root.seconds = 0.0
        assert profile.exclusive_seconds(root) == 0.0

    def test_report_shows_exclusive_column(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        assert "excl ms" in str(profile)

    def test_op_class_recorded(self, setup):
        env, expr = setup
        _result, profile = execute_profiled(expr, env)
        classes = {p.op_class for p in profile.profiles}
        assert "v-scan" in classes
        assert "v-hash-join" in classes

    def test_emit_metrics_shares_data_model(self, setup):
        from repro.obs import MetricsRegistry

        env, expr = setup
        registry = MetricsRegistry()
        _result, profile = execute_profiled(expr, env, registry=registry)
        scans = profile.by_label()["v-scan beer"]
        assert registry.total("operator.rows") == profile.total_rows()
        assert registry.value("operator.pairs", op="v-hash-join") > 0
        assert scans.rows > 0


class TestProfilerEmptyRelation:
    def test_profile_on_empty_relation(self):
        from repro.domains import INTEGER
        from repro.relation import Relation
        from repro.schema import RelationSchema

        schema = RelationSchema.of("empty", a=INTEGER)
        env = {"empty": Relation.empty(schema)}
        ref = RelationRef("empty", schema)
        expr = ref.select("a > 0").project(["a"])
        result, profile = execute_profiled(expr, env)
        assert len(result) == 0
        assert profile.total_pairs() == 0
        assert profile.total_rows() == 0
        assert profile.total_seconds >= 0.0
        for entry in profile.profiles:
            assert profile.exclusive_seconds(entry) >= 0.0
        assert "scan empty" in str(profile)

    def test_empty_report(self):
        from repro.engine.profiler import ProfileReport

        report = ProfileReport([])
        assert report.total_seconds == 0.0
        assert report.total_pairs() == 0
        assert str(report)
