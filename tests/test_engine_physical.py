"""The physical engine against the reference evaluator.

Strategy: generate random relations and a zoo of expression shapes, then
assert ``execute(e) == evaluate(e)``.  Plus unit tests for each physical
operator's algorithm-specific behaviour (hash-join key handling,
residual predicates, stream consolidation, the ``consolidated`` flags).
"""

import pytest
from hypothesis import given

from repro.aggregates import CNT
from repro.algebra import (
    GroupBy,
    Intersect,
    Join,
    LiteralRelation,
    Product,
    RelationRef,
    Select,
    Union,
    Unique,
)
from repro.engine import collect_batches, evaluate, execute, plan_physical
from repro.engine.vector import (
    VDifferenceOp,
    VDistinctOp,
    VFilterOp,
    VGroupByOp,
    VHashJoinOp,
    VIntersectOp,
    VLiteralOp,
    VNestedLoopJoinOp,
    VProjectOp,
    VScanOp,
    VUnionOp,
)
from repro.errors import EvaluationError
from repro.expressions import col, lit as const
from repro.relation import Relation
from repro.workloads import random_int_relation
from repro.workloads.synthetic import int_schema
from tests.conftest import int_relations


def lit(relation):
    return LiteralRelation(relation)


class TestAgreementWithReference:
    @given(int_relations, int_relations)
    def test_binary_operators(self, r1, r2):
        for expr in (
            Union(lit(r1), lit(r2)),
            lit(r1).difference(lit(r2)),
            Intersect(lit(r1), lit(r2)),
            Product(lit(r1), lit(r2)),
        ):
            assert execute(expr, {}) == evaluate(expr, {})

    @given(int_relations, int_relations)
    def test_equi_join(self, r1, r2):
        expr = Join(lit(r1), lit(r2), "%1 = %3")
        assert execute(expr, {}) == evaluate(expr, {})

    @given(int_relations, int_relations)
    def test_theta_join(self, r1, r2):
        expr = Join(lit(r1), lit(r2), "%1 < %4")
        assert execute(expr, {}) == evaluate(expr, {})

    @given(int_relations, int_relations)
    def test_mixed_join_with_residual(self, r1, r2):
        expr = Join(lit(r1), lit(r2), "%1 = %3 and %2 < %4")
        assert execute(expr, {}) == evaluate(expr, {})

    @given(int_relations)
    def test_unary_operators(self, r):
        for expr in (
            Select("%1 > 2", lit(r)),
            lit(r).project(["%2", "%1"]),
            lit(r).extended_project(["%1 + %2", "%1 * 2"]),
            Unique(lit(r)),
            GroupBy(["%1"], "CNT", None, lit(r)),
            GroupBy(["%1"], "SUM", "%2", lit(r)),
            GroupBy(None, "CNT", None, lit(r)),
        ):
            assert execute(expr, {}) == evaluate(expr, {})

    @given(int_relations, int_relations)
    def test_composed_pipeline(self, r1, r2):
        expr = (
            Select("%1 = %3", Product(lit(r1), lit(r2)))
            .project(["%2", "%4"])
            .distinct()
        )
        assert execute(expr, {}) == evaluate(expr, {})

    def test_larger_randomised_workload(self):
        left = random_int_relation(500, degree=2, value_space=40, seed=7, name="l")
        right = random_int_relation(300, degree=2, value_space=40, seed=8, name="r")
        env = {"l": left, "r": right}
        l_ref = RelationRef("l", left.schema.renamed("l"))
        r_ref = RelationRef("r", right.schema.renamed("r"))
        expr = (
            l_ref.join(r_ref, "%2 = %3")
            .select("%1 > 5")
            .project(["%1", "%4"])
            .group_by(["%1"], "CNT", None)
        )
        assert execute(expr, env) == evaluate(expr, env)


class TestPlannerStrategyChoice:
    def test_equi_join_becomes_hash_join(self):
        r = random_int_relation(5, name="x")
        expr = Join(lit(r), lit(r), "%1 = %3")
        assert isinstance(plan_physical(expr), VHashJoinOp)

    def test_theta_join_becomes_nested_loop(self):
        r = random_int_relation(5, name="x")
        expr = Join(lit(r), lit(r), "%1 < %3")
        assert isinstance(plan_physical(expr), VNestedLoopJoinOp)

    def test_select_over_product_fuses_into_join(self):
        r = random_int_relation(5, name="x")
        expr = Select("%1 = %3", Product(lit(r), lit(r)))
        assert isinstance(plan_physical(expr), VHashJoinOp)

    def test_constant_only_equality_is_pushed_into_keys(self):
        # '%4 = const' has an empty-reference side; the planner may fold it
        # into the hash key — results must still match the reference.
        r1 = random_int_relation(30, value_space=5, seed=1)
        r2 = random_int_relation(30, value_space=5, seed=2)
        expr = Join(lit(r1), lit(r2), "%1 = %3 and %4 = 2")
        assert execute(expr, {}) == evaluate(expr, {})

    def test_mixed_condition_keeps_residual(self):
        r = random_int_relation(5, name="x")
        expr = Join(lit(r), lit(r), "%1 = %3 and %2 < %4")
        node = plan_physical(expr)
        assert isinstance(node, VHashJoinOp)
        assert node.residual is not None

    def test_explain_renders_tree(self):
        r = random_int_relation(5, name="x")
        expr = Select("%1 > 1", Join(lit(r), lit(r), "%1 = %3"))
        text = plan_physical(expr).explain()
        assert "hash-join" in text
        assert "filter" in text

    def test_plan_physical_reserved_slot_takes_only_none(self):
        r = random_int_relation(5, name="x")
        expr = Join(lit(r), lit(r), "%1 = %3")
        vector = plan_physical(expr, None, "vector")
        assert collect_batches(vector, {}) == evaluate(expr, {})
        with pytest.raises(TypeError):
            plan_physical(expr, 2, "vector")

    def test_engine_argument_accepts_only_vector(self):
        r = random_int_relation(5, name="x")
        expr = Join(lit(r), lit(r), "%1 = %3")
        assert execute(expr, {}, engine="vector") == evaluate(expr, {})
        with pytest.raises(EvaluationError):
            plan_physical(expr, engine="pairs")
        with pytest.raises(EvaluationError):
            execute(expr, {}, engine="pairs")


class TestStreamMechanics:
    def test_consolidate_merges_repeated_rows(self):
        # A union streams the same row from both sides; collecting
        # totals the multiplicities per row.
        first = Relation(int_schema(1), {(1,): 2, (2,): 1})
        second = Relation(int_schema(1), {(1,): 3})
        op = VUnionOp(VLiteralOp(first), VLiteralOp(second))
        result = collect_batches(op, {})
        assert dict(result.pairs()) == {(1,): 5, (2,): 1}

    def test_filter_is_lazy(self):
        r = random_int_relation(10, degree=1, value_space=3, seed=3)
        op = VFilterOp(col(1).eq(const(0)), VLiteralOp(r, batch_size=2))
        stream = op.batches({})
        first = next(stream, None)
        if first is not None:
            assert all(row[0] == 0 for row in first.rows())

    def test_distinct_emits_once(self):
        r = Relation(int_schema(1), [(1,), (1,), (2,)])
        result = collect_batches(VDistinctOp(VLiteralOp(r)), {})
        assert result.multiplicity((1,)) == 1

    def test_scan_reads_environment(self):
        r = random_int_relation(5, name="t")
        op = VScanOp("t", r.schema)
        assert collect_batches(op, {"t": r}) == r

    def test_operators_are_reexecutable(self):
        r = random_int_relation(20, value_space=4, seed=5)
        expr = Unique(Select("%1 > 0", lit(r)))
        node = plan_physical(expr)
        first = collect_batches(node, {})
        second = collect_batches(node, {})
        assert first == second

    def test_hash_join_empty_build_side(self):
        r = random_int_relation(5)
        empty = Relation.empty(r.schema)
        expr = Join(lit(r), lit(empty), "%1 = %3")
        assert not execute(expr, {})

    def test_group_by_empty_input_whole_relation_cnt(self):
        empty = Relation.empty(int_schema(2))
        expr = GroupBy(None, "CNT", None, lit(empty))
        result = execute(expr, {})
        assert list(result.pairs()) == [((0,), 1)]

    def test_group_by_empty_input_partial_aggregate(self):
        from repro.errors import EmptyAggregateError

        empty = Relation.empty(int_schema(2))
        expr = GroupBy(None, "AVG", "%1", lit(empty))
        with pytest.raises(EmptyAggregateError):
            execute(expr, {})


class TestConsolidatedFlags:
    """``consolidated`` promises each row at most once in the stream.

    ``collect_batches`` trusts the flag and skips counting, so a wrong
    ``True`` would silently drop multiplicity.
    """

    @pytest.fixture
    def leaf(self):
        return VLiteralOp(Relation(int_schema(2), [(1, 1), (1, 1), (2, 3)]))

    def test_sources_and_consolidating_operators_are_duplicate_free(self, leaf):
        assert VScanOp("t", int_schema(2)).consolidated
        assert leaf.consolidated
        assert VDistinctOp(leaf).consolidated
        assert VGroupByOp([1], CNT, None, int_schema(2), leaf).consolidated
        assert VDifferenceOp(VUnionOp(leaf, leaf), leaf).consolidated
        assert VIntersectOp(VUnionOp(leaf, leaf), leaf).consolidated

    def test_merging_operators_are_not(self, leaf):
        assert not VUnionOp(leaf, leaf).consolidated
        assert not VProjectOp([1], int_schema(1), leaf).consolidated

    def test_filters_and_joins_inherit_from_their_inputs(self, leaf):
        union = VUnionOp(leaf, leaf)
        assert VFilterOp(col(1).gt(const(0)), leaf).consolidated
        assert not VFilterOp(col(1).gt(const(0)), union).consolidated
        for left, right, expected in ((leaf, leaf, True), (union, leaf, False)):
            product = VNestedLoopJoinOp(left, right, None, int_schema(4))
            theta = VNestedLoopJoinOp(left, right, col(1).lt(col(3)), int_schema(4))
            hashed = VHashJoinOp(left, right, [col(1)], [col(1)], int_schema(4))
            assert product.consolidated is expected
            assert theta.consolidated is expected
            assert hashed.consolidated is expected

    def test_fused_projection_forfeits_the_guarantee(self):
        leaf = VLiteralOp(Relation(int_schema(2), [(1, 1), (1, 2)]))
        fused = VHashJoinOp(
            leaf, leaf, [col(1)], [col(1)], int_schema(1), output_positions=[0]
        )
        assert not fused.consolidated
        # Four distinct joined rows all project to (1,): collect must total them.
        assert collect_batches(fused, {}).multiplicity((1,)) == 4
