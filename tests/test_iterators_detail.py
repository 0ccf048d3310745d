"""Detail tests for physical operators: labels, explain, edge behaviour."""

import pytest

from repro.aggregates import CNT, SUM
from repro.engine.vector import (
    VDifferenceOp,
    VDistinctOp,
    VFilterOp,
    VGroupByOp,
    VHashJoinOp,
    VIntersectOp,
    VLiteralOp,
    VMapOp,
    VNestedLoopJoinOp,
    VProjectOp,
    VScanOp,
    VUnionOp,
    collect_batches,
)
from repro.expressions import col, lit
from repro.relation import Relation
from repro.workloads import random_int_relation
from repro.workloads.synthetic import int_schema


@pytest.fixture
def relation():
    return Relation(int_schema(2), [(1, 10), (1, 10), (2, 20), (3, 30)])


def literal(relation):
    return VLiteralOp(relation)


def collect(op):
    return collect_batches(op, {})


class TestLabels:
    def test_scan_label_includes_name(self):
        op = VScanOp("beer", int_schema(2))
        assert op.label() == "v-scan beer"

    def test_literal_label_includes_size(self, relation):
        assert literal(relation).label() == "v-literal[4]"

    def test_filter_label_with_description(self, relation):
        op = VFilterOp(col(1).gt(lit(1)), literal(relation))
        assert op.label() == "v-filter [(%1 > 1)]"

    def test_project_label(self, relation):
        op = VProjectOp([2, 1], int_schema(2), literal(relation))
        assert op.label() == "v-project [%2, %1]"

    def test_hash_join_residual_flag(self, relation):
        plain = VHashJoinOp(
            literal(relation), literal(relation), [col(1)], [col(1)], int_schema(4)
        )
        residual = VHashJoinOp(
            literal(relation),
            literal(relation),
            [col(1)],
            [col(1)],
            int_schema(4),
            residual_expr=col(2).lt(col(4)),
        )
        assert plain.label() == "v-hash-join"
        assert residual.label() == "v-hash-join +residual"

    def test_groupby_label(self, relation):
        op = VGroupByOp([1], SUM, 2, int_schema(2), literal(relation))
        assert "SUM" in op.label()

    def test_explain_indents_children(self, relation):
        op = VUnionOp(literal(relation), literal(relation))
        lines = op.explain().splitlines()
        assert lines[0] == "v-union"
        assert lines[1].startswith("  ")


class TestOperatorEdges:
    def test_union_streams_both_sides(self, relation):
        result = collect(VUnionOp(literal(relation), literal(relation)))
        assert result.multiplicity((1, 10)) == 4

    def test_difference_consolidates_duplicate_stream_entries(self, relation):
        # Left side streams the same tuple in two batches (via a union);
        # monus must apply to the TOTAL, not per batch row.
        left = VUnionOp(literal(relation), literal(relation))
        right = literal(Relation(int_schema(2), [(1, 10), (1, 10), (1, 10)]))
        result = collect(VDifferenceOp(left, right))
        assert result.multiplicity((1, 10)) == 1  # 4 - 3

    def test_intersect_on_streams(self, relation):
        other = Relation(int_schema(2), [(1, 10), (9, 9)])
        result = collect(VIntersectOp(literal(relation), literal(other)))
        assert result.multiplicity((1, 10)) == 1
        assert (9, 9) not in result

    def test_product_multiplies_counts(self):
        left = Relation(int_schema(1), {(1,): 2})
        right = Relation(int_schema(1), {(7,): 3})
        op = VNestedLoopJoinOp(literal(left), literal(right), None, int_schema(2))
        assert op.label() == "v-product"
        result = collect(op)
        assert result.multiplicity((1, 7)) == 6

    def test_nested_loop_join_predicate(self, relation):
        op = VNestedLoopJoinOp(
            literal(relation), literal(relation), col(1).lt(col(3)), int_schema(4)
        )
        assert op.label() == "v-nested-loop-join"
        result = collect(op)
        assert result
        assert all(row[0] < row[2] for row in result.support())

    def test_map_op_applies_functions(self, relation):
        op = VMapOp([col(1) + col(2)], int_schema(1), literal(relation))
        result = collect(op)
        assert result.multiplicity((11,)) == 2

    def test_distinct_on_stream_with_repeats(self, relation):
        op = VDistinctOp(VUnionOp(literal(relation), literal(relation)))
        result = collect(op)
        assert all(count == 1 for _row, count in result.pairs())

    def test_groupby_cnt_without_param(self, relation):
        op = VGroupByOp([1], CNT, None, int_schema(2), literal(relation))
        result = collect(op)
        assert result.multiplicity((1, 2)) == 1

    def test_hash_join_key_mismatch_yields_nothing(self):
        left = Relation(int_schema(1), [(1,)])
        right = Relation(int_schema(1), [(2,)])
        op = VHashJoinOp(
            literal(left), literal(right), [col(1)], [col(1)], int_schema(2)
        )
        assert not collect(op)

    def test_scan_uses_current_environment(self):
        first = random_int_relation(5, name="t", seed=1)
        second = random_int_relation(7, name="t", seed=2)
        op = VScanOp("t", first.schema)
        assert len(collect_batches(op, {"t": first})) == 5
        assert len(collect_batches(op, {"t": second})) == 7
