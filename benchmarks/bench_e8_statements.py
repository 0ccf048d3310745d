"""E8 — Section 4: statements and transactions at scale.

Paper artifacts: the statement definitions (``update`` as
``R ← (R − E) ⊎ π̂α(R ∩ E)``), the transaction brackets with atomic
commit/abort, and Example 4.1.

The bench measures the building blocks a Section-4 implementation lives
on: the update statement (whose cost is the three-operator algebra
expression it is defined as), the commit path (snapshot, statements,
then ``Database.commit`` validating the read set and applying the net
delta to the head relation), the abort path (snapshot and statements,
then the working state is dropped — the database is never written), and
a multi-statement transaction with temporaries.  Expected shape: update
cost is linear in |R|; abort is cheaper than commit, which applies its
delta once more at the head (a dictionary copy of the written relation
plus O(|Δ|) work).
"""

import pytest

from repro.algebra import LiteralRelation, Select
from repro.database import Database
from repro.errors import TransactionAbort
from repro.language import Insert, Session, Transaction, Update
from repro.workloads import BeerWorkload
from repro.workloads.beer import BEER_SCHEMA


def fresh_session():
    database = BeerWorkload(beers=20_000, breweries=300, seed=8).database()
    return Session(database), database


@pytest.mark.benchmark(group="e8-statements")
def test_update_statement(benchmark):
    """Example 4.1 scaled up: rewrite one brewery's beers."""
    session, database = fresh_session()
    beer = session.relation("beer")
    statement = Update(
        "beer",
        Select("brewery = 'Brouwerij-0001'", beer),
        ["%1", "%2", "%3 * 1.1"],
    )

    def run_update():
        return session.run([statement])

    result = benchmark(run_update)
    assert result.committed


@pytest.mark.benchmark(group="e8-statements")
def test_bulk_insert_statement(benchmark):
    session, database = fresh_session()
    extra = BeerWorkload(beers=5_000, breweries=300, seed=9).relations()[0]
    statement = Insert("beer", LiteralRelation(extra))
    result = benchmark(lambda: session.run([statement]))
    assert result.committed


@pytest.mark.benchmark(group="e8-transactions")
def test_commit_path(benchmark):
    session, database = fresh_session()
    extra = LiteralRelation(
        BeerWorkload(beers=1_000, breweries=300, seed=10).relations()[0]
    )

    def committed_transaction():
        return Transaction([Insert("beer", extra)]).run(database)

    result = benchmark(committed_transaction)
    assert result.committed


@pytest.mark.benchmark(group="e8-transactions")
def test_abort_path(benchmark):
    session, database = fresh_session()
    extra = LiteralRelation(
        BeerWorkload(beers=1_000, breweries=300, seed=10).relations()[0]
    )

    class AbortingStatement:
        def execute(self, _context):
            raise TransactionAbort("measured abort")

    def aborted_transaction():
        return Transaction([Insert("beer", extra), AbortingStatement()]).run(
            database
        )

    result = benchmark(aborted_transaction)
    assert not result.committed
    assert len(database["beer"]) == 20_000  # rollback held


@pytest.mark.benchmark(group="e8-transactions")
def test_multistatement_with_temporaries(benchmark):
    session, database = fresh_session()

    def archive_strong_beers():
        with session.transaction() as txn:
            beer = txn.relation("beer")
            txn.assign("strong", beer.select("alcperc > 9.0"))
            txn.delete("beer", txn.relation("strong"))
            txn.insert("beer", txn.relation("strong"))  # put them back

    benchmark(archive_strong_beers)
    assert len(database["beer"]) == 20_000
