"""Fragment-and-recombine: why parallel operators are possible.

The paper claims parallel operators fit the design without breaking it.
The claim rests on two theorems. Theorem 3.2 says σ, π and π̂ distribute
over ⊎ and δ does not. Theorem 3.3 says ⊎ is associative and commutative,
so fragment results can be recombined in any order. Each test splits a
bag (duplicates included) into fragments, evaluates the operator on every
fragment with the reference evaluator, recombines the results with ⊎ and
compares them to the unfragmented result with ``==``.

Partitions are keyed with the in-process ``hash``. The δ and AVG cases
also show a split that breaks the law, and Hypothesis must find an input
where it does.
"""

import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import find, given
from hypothesis import strategies as st

from repro.aggregates import AVG, CNT, MAX, MIN, SUM
from repro.algebra import LiteralRelation
from repro.engine import evaluate
from repro.relation import Relation
from tests.conftest import int_relations

fragment_counts = st.integers(min_value=1, max_value=4)


def split(relation, fragments, place):
    """Send each copy of each tuple to fragment ``place(row, copy)``."""
    parts = [Counter() for _ in range(fragments)]
    copy = 0
    for row, count in relation.pairs():
        for _ in range(count):
            parts[place(row, copy) % fragments][row] += 1
            copy += 1
    return [Relation.from_pairs(relation.schema, part.items()) for part in parts]


def hash_split(relation, fragments, key):
    """Hash-partition on ``key(row)``: all copies of a row stay together."""
    return split(relation, fragments, lambda row, _copy: hash(key(row)))


def round_robin(relation, fragments):
    """Deal copies out in turn, so copies of one tuple get separated."""
    return split(relation, fragments, lambda _row, copy: copy)


def recombined(operator, *fragment_lists):
    """⊎ over ``operator(fragment_i, ...)``, by the reference evaluator."""
    results = [
        operator(*(LiteralRelation(part) for part in parts))
        for parts in zip(*fragment_lists)
    ]
    return evaluate(reduce(lambda left, right: left.union(right), results), {})


def whole(operator, *relations):
    return evaluate(operator(*(LiteralRelation(r) for r in relations)), {})


DISTRIBUTIVE = {
    "select": lambda e: e.select("%1 > 2"),
    "project": lambda e: e.project(["%2"]),
    "extended_project": lambda e: e.extended_project(["%1 + %2", "%1 * 2"]),
}


@pytest.mark.parametrize("name", sorted(DISTRIBUTIVE))
@given(relation=int_relations, fragments=fragment_counts, seed=st.integers(0, 2**16))
def test_unary_operators_distribute_over_any_partition(name, relation, fragments, seed):
    rng = random.Random(seed)
    parts = split(relation, fragments, lambda _row, _copy: rng.randrange(fragments))
    rng.shuffle(parts)  # Theorem 3.3: the recombination order is free
    operator = DISTRIBUTIVE[name]
    assert recombined(operator, parts) == whole(operator, relation)


def distinct(e):
    return e.distinct()


def average_by_first(e):
    return e.group_by(["%1"], AVG, "%2")


@given(relation=int_relations, fragments=fragment_counts)
def test_distinct_on_a_whole_tuple_partition(relation, fragments):
    parts = hash_split(relation, fragments, lambda row: row)
    assert recombined(distinct, parts) == whole(distinct, relation)


@pytest.mark.parametrize("aggregate", [CNT, SUM, AVG, MIN, MAX], ids=str)
@given(relation=int_relations, fragments=fragment_counts)
def test_group_by_on_its_group_attributes(aggregate, relation, fragments):
    parts = hash_split(relation, fragments, lambda row: row[0])

    def gamma(e):
        return e.group_by(["%1"], aggregate, "%2")

    assert recombined(gamma, parts) == whole(gamma, relation)


@given(left=int_relations, right=int_relations, fragments=fragment_counts)
def test_equijoin_co_partitioned_on_its_keys(left, right, fragments):
    left_parts = hash_split(left, fragments, lambda row: row[0])
    right_parts = hash_split(right, fragments, lambda row: row[0])

    def join(outer, inner):
        return outer.join(inner, "%1 = %3")

    assert recombined(join, left_parts, right_parts) == whole(join, left, right)


def test_distinct_breaks_when_copies_are_split():
    find(
        int_relations,
        lambda r: recombined(distinct, round_robin(r, 2)) != whole(distinct, r),
    )


def test_average_breaks_on_a_split_not_aligned_to_its_groups():
    find(
        int_relations,
        lambda r: recombined(average_by_first, hash_split(r, 2, lambda row: row))
        != whole(average_by_first, r),
    )
