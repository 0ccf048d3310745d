"""The physical engine against the reference evaluator.

Strategy: generate random relations and a zoo of expression shapes, then
assert ``execute(e) == evaluate(e)``.  Plus unit tests for each physical
operator's algorithm-specific behaviour (hash-join key handling,
residual predicates, stream consolidation).
"""

import pytest
from hypothesis import given

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
from repro.engine import collect_batches, evaluate, execute, plan, plan_physical
from repro.engine.iterators import (
    DistinctOp,
    FilterOp,
    HashJoinOp,
    LiteralOp,
    NestedLoopJoinOp,
    ScanOp,
    collect,
    consolidate,
)
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
        assert isinstance(plan(expr), HashJoinOp)

    def test_theta_join_becomes_nested_loop(self):
        r = random_int_relation(5, name="x")
        expr = Join(lit(r), lit(r), "%1 < %3")
        assert isinstance(plan(expr), NestedLoopJoinOp)

    def test_select_over_product_fuses_into_join(self):
        r = random_int_relation(5, name="x")
        expr = Select("%1 = %3", Product(lit(r), lit(r)))
        assert isinstance(plan(expr), HashJoinOp)

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
        node = plan(expr)
        assert isinstance(node, HashJoinOp)
        assert node.residual is not None

    def test_explain_renders_tree(self):
        r = random_int_relation(5, name="x")
        expr = Select("%1 > 1", Join(lit(r), lit(r), "%1 = %3"))
        text = plan(expr).explain()
        assert "hash-join" in text
        assert "filter" in text

    def test_plan_physical_reserved_slot_takes_only_none(self):
        r = random_int_relation(5, name="x")
        expr = Join(lit(r), lit(r), "%1 = %3")
        vector = plan_physical(expr, None, "vector")
        assert collect_batches(vector, {}) == evaluate(expr, {})
        with pytest.raises(TypeError):
            plan_physical(expr, 2, "vector")


class TestStreamMechanics:
    def test_consolidate_merges_repeated_rows(self):
        pairs = iter([((1,), 2), ((1,), 3), ((2,), 1)])
        assert consolidate(pairs) == {(1,): 5, (2,): 1}

    def test_filter_is_lazy(self):
        r = random_int_relation(10, degree=1, value_space=3, seed=3)
        op = FilterOp(lambda row: row[0] == 0, LiteralOp(r))
        stream = op.execute({})
        first = next(stream, None)
        if first is not None:
            assert first[0][0] == 0

    def test_distinct_emits_once(self):
        r = Relation(int_schema(1), [(1,), (1,), (2,)])
        result = collect(DistinctOp(LiteralOp(r)), {})
        assert result.multiplicity((1,)) == 1

    def test_scan_reads_environment(self):
        r = random_int_relation(5, name="t")
        op = ScanOp("t", r.schema)
        assert collect(op, {"t": r}) == r

    def test_operators_are_reexecutable(self):
        r = random_int_relation(20, value_space=4, seed=5)
        expr = Unique(Select("%1 > 0", lit(r)))
        node = plan(expr)
        first = collect(node, {})
        second = collect(node, {})
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
