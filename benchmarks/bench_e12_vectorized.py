"""E12 — the physical (columnar batch) engine on its three target shapes.

The paper's cost argument (bag semantics keeps pipelines cheap because
nothing forces duplicate elimination) is about *algebraic* cost; this
bench measures the *physical* layer built on top of it: the columnar
batch operators with compiled expression kernels
(:mod:`repro.engine.vector`, what every ``Session`` runs) on three
workload shapes:

* **filter-heavy** — a fused arithmetic-comparison conjunction over a
  REAL column, selecting roughly half of a 120k-row bag;
* **join-heavy**  — a projected equi-join (fact-to-dimension, 500
  distinct keys), exercising the compiled probe loop with
  project-into-join fusion;
* **group-by**    — CNT per 500 groups, exercising the code-generated
  accumulation loop and the decomposed count fold.

Every workload asserts **bag-equality** before timing anything — speed
without the same multiset is worthless.  The filter and group-by
compare against the reference evaluator; the join compares against a
direct dictionary computation, because the reference evaluator's
σ(×) over 120 000 × 500 tuples does not fit in memory.

Until the pair-stream operators were deleted, this bench also asserted
≥3× over them on two of the three shapes; the last such numbers are
recorded in EXPERIMENTS.md (E12).
"""

from collections import Counter

import pytest

from repro.aggregates import CNT
from repro.algebra import GroupBy, Join, Project, RelationRef, Select
from repro.algebra.base import as_attr_list
from repro.database import Database
from repro.domains import INTEGER, REAL, STRING
from repro.engine import evaluate
from repro.expressions import col, lit
from repro.language import Session
from repro.relation import Relation
from repro.schema import RelationSchema

#: Fact/dimension sizes: big enough that per-tuple interpretation cost
#: would dominate, small enough for sub-second rounds.
BEERS = 120_000
BREWERIES = 500


@pytest.fixture(scope="module")
def database() -> Database:
    beer_schema = RelationSchema(
        "beers",
        [
            ("name", STRING),
            ("brewery", INTEGER),
            ("alcperc", REAL),
            ("rating", INTEGER),
        ],
    )
    beers = Relation.from_pairs(
        beer_schema,
        [
            (
                (f"beer{i}", i % BREWERIES, (i % 90) / 10.0, i % 5),
                1 + (i % 3),
            )
            for i in range(BEERS)
        ],
    )
    brewery_schema = RelationSchema(
        "breweries", [("bid", INTEGER), ("country", STRING)]
    )
    breweries = Relation.from_pairs(
        brewery_schema,
        [((i, f"country{i % 40}"), 1) for i in range(BREWERIES)],
    )
    db = Database()
    db.create_relation(beer_schema.strict(), beers)
    db.create_relation(brewery_schema.strict(), breweries)
    return db


def _refs(database: Database):
    return (
        RelationRef("beers", database.schema.get("beers")),
        RelationRef("breweries", database.schema.get("breweries")),
    )


def _bench(benchmark, database: Database, expr, expected: Relation) -> None:
    """Time ``expr`` on a default session; assert bag-equality first."""
    session = Session(database)
    assert session.query(expr) == expected

    result = benchmark(lambda: session.query(expr))
    assert result == expected
    benchmark.extra_info["rows"] = len(result)
    benchmark.extra_info["distinct"] = result.distinct_count


@pytest.mark.benchmark(group="e12-vectorized")
def test_filter_heavy(benchmark, database):
    """σ over a fused arithmetic conjunction: the compiled filter kernel."""
    beers, _ = _refs(database)
    expr = Select(
        (col("alcperc") * lit(1.1))
        .gt(lit(5.0))
        .and_(col("rating").ge(lit(2))),
        beers,
    )
    _bench(benchmark, database, expr, evaluate(expr, database.snapshot()))


@pytest.mark.benchmark(group="e12-vectorized")
def test_join_heavy(benchmark, database):
    """π(⋈): the compiled probe loop with project-into-join fusion."""
    beers, breweries = _refs(database)
    expr = Project(
        as_attr_list([1, 6]),
        Join(beers, breweries, col(2).eq(col(5))),
    )
    env = database.snapshot()
    countries = {}
    for (bid, country), count in env["breweries"].pairs():
        countries.setdefault(bid, []).append((country, count))
    expected: Counter = Counter()
    for (name, brewery, _alc, _rating), count in env["beers"].pairs():
        for country, brewery_count in countries.get(brewery, ()):
            expected[(name, country)] += count * brewery_count
    _bench(
        benchmark,
        database,
        expr,
        Relation.from_pairs(expr.schema, list(expected.items())),
    )


@pytest.mark.benchmark(group="e12-vectorized")
def test_group_by(benchmark, database):
    """γ with CNT per brewery: the code-generated count fold."""
    beers, _ = _refs(database)
    expr = GroupBy([2], CNT, 1, beers)
    _bench(benchmark, database, expr, evaluate(expr, database.snapshot()))
