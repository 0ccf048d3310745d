"""Property-style fuzzing of transaction atomicity (Definition 4.3).

Random statement sequences with a failure injected at a random position:
the database must afterwards be *exactly* the pre-state — no partial
effects, no logical-time advance, no stray temporaries.  Committed runs
must advance time by exactly one and drop all temporaries.
"""

import random

import pytest

from repro.algebra import LiteralRelation, RelationRef, Select
from repro.database import Database
from repro.errors import TransactionAbort
from repro.language import Assign, Delete, Insert, Query, Transaction, Update
from repro.relation import Relation
from repro.workloads.synthetic import int_schema

SCHEMA = int_schema(2, name="t")


def fresh_database(seed):
    rng = random.Random(seed)
    rows = [(rng.randrange(6), rng.randrange(6)) for _ in range(30)]
    db = Database()
    db.create_relation(SCHEMA, Relation(SCHEMA, rows))
    return db


def random_statement(rng, temp_counter):
    """One random statement against relation ``t``."""
    ref = RelationRef("t", SCHEMA)
    literal = LiteralRelation(
        Relation(SCHEMA, [(rng.randrange(6), rng.randrange(6))])
    )
    kind = rng.randrange(5)
    if kind == 0:
        return Insert("t", literal)
    if kind == 1:
        return Delete("t", Select(f"%1 = {rng.randrange(6)}", ref))
    if kind == 2:
        return Update(
            "t",
            Select(f"%2 = {rng.randrange(6)}", ref),
            ["%1 + 1", "%2"],
        )
    if kind == 3:
        return Assign(f"tmp{next(temp_counter)}", ref)
    return Query(ref)


class FailingStatement:
    def execute(self, _context):
        raise TransactionAbort("injected failure")


def counter():
    value = 0
    while True:
        yield value
        value += 1


@pytest.mark.parametrize("seed", range(25))
def test_aborted_transactions_leave_no_trace(seed):
    rng = random.Random(seed)
    db = fresh_database(seed)
    pre_state = db.snapshot()
    pre_time = db.logical_time

    temp_counter = counter()
    statements = [
        random_statement(rng, temp_counter) for _ in range(rng.randint(1, 6))
    ]
    position = rng.randint(0, len(statements))
    statements.insert(position, FailingStatement())

    result = Transaction(statements).run(db)
    assert not result.committed
    assert db.snapshot() == pre_state
    assert db.logical_time == pre_time
    assert db.names() == ["t"]  # no temporaries leaked


@pytest.mark.parametrize("seed", range(25))
def test_committed_transactions_are_single_transitions(seed):
    rng = random.Random(seed + 1000)
    db = fresh_database(seed)
    pre_time = db.logical_time

    temp_counter = counter()
    statements = [
        random_statement(rng, temp_counter) for _ in range(rng.randint(1, 6))
    ]
    result = Transaction(statements).run(db, record_intermediate_states=True)
    assert result.committed
    assert db.logical_time == pre_time + 1
    assert db.names() == ["t"]
    # One intermediate state per statement plus the initial one.
    assert len(result.intermediate_states) == len(statements) + 1


@pytest.mark.parametrize("seed", range(10))
def test_replaying_on_pre_state_is_deterministic(seed):
    """Same statements on equal states give equal post-states."""
    rng_a = random.Random(seed + 2000)
    db_a = fresh_database(seed)
    db_b = fresh_database(seed)

    temp_counter = counter()
    statements = [
        random_statement(rng_a, temp_counter) for _ in range(4)
    ]
    Transaction(statements).run(db_a)
    Transaction(statements).run(db_b)
    assert db_a.snapshot() == db_b.snapshot()


# ---------------------------------------------------------------------------
# Statements as deltas, checked against the definitional algebra (Def 4.1)
# with collections.Counter as an independent bag implementation.
# ---------------------------------------------------------------------------

from collections import Counter  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.multiset import Delta  # noqa: E402

rows_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12
)

#: α lists: identity (a matched tuple maps onto itself), a shift that can
#: land on another existing tuple, and a collapse of many onto one.
ALPHAS = {
    "identity": (["%1", "%2"], lambda row: row),
    "shift": (["%1 + 1", "%2"], lambda row: (row[0] + 1, row[1])),
    "collapse": (["0", "%2"], lambda row: (0, row[1])),
}

specs = st.tuples(
    st.sampled_from(["insert", "delete", "update"]),
    rows_strategy,
    st.sampled_from(sorted(ALPHAS)),
)


def build(spec):
    kind, rows, alpha = spec
    literal = LiteralRelation(Relation(SCHEMA, rows))
    if kind == "insert":
        return Insert("t", literal)
    if kind == "delete":
        return Delete("t", literal)
    return Update("t", literal, ALPHAS[alpha][0])


def definitional(bag, spec):
    """R ⊎ E, R − E, (R − E) ⊎ π̂_α(R ∩ E) on Counters."""
    kind, rows, alpha = spec
    selector = Counter(rows)
    if kind == "insert":
        return bag + selector
    if kind == "delete":
        return bag - selector
    function = ALPHAS[alpha][1]
    return (bag - selector) + Counter(map(function, (bag & selector).elements()))


def database_with(rows):
    db = Database()
    db.create_relation(SCHEMA, Relation(SCHEMA, rows))
    return db


def counts(relation):
    return Counter(dict(relation.pairs()))


@given(rows_strategy, specs)
def test_each_statement_matches_its_definition(rows, spec):
    db = database_with(rows)
    epoch = db.epoch("t")
    expected = definitional(Counter(rows), spec)
    assert Transaction([build(spec)]).run(db).committed
    assert counts(db["t"]) == expected
    # The epoch moves exactly when the value does (net-zero updates too).
    assert (db.epoch("t") != epoch) == (expected != Counter(rows))


def test_net_zero_update_keeps_the_installed_object_and_epoch():
    db = database_with([(1, 1), (1, 1), (2, 3)])
    installed, epoch = db["t"], db.epoch("t")
    ref = RelationRef("t", SCHEMA)
    result = Transaction([Update("t", Select("%1 = 1", ref), ["%1", "%2"])]).run(db)
    assert result.committed and db.logical_time == 1
    assert db["t"] is installed and db.epoch("t") == epoch
    assert result.transition.changed_relations() == []


@settings(max_examples=60)
@given(rows_strategy, st.lists(specs, min_size=1, max_size=5))
def test_statements_in_one_transaction_compose_sequentially(rows, plan):
    db = database_with(rows)
    pre_state = db.snapshot()
    expected = Counter(rows)
    for spec in plan:
        expected = definitional(expected, spec)
    result = Transaction([build(spec) for spec in plan]).run(db)
    assert counts(db["t"]) == expected
    (transition,) = db.transitions
    assert transition is result.transition
    assert transition.deltas.get("t", Delta()) == Delta.between(
        pre_state["t"].tuples, db["t"].tuples
    )
    # D^t is recoverable from D^{t+1} and the recorded deltas, and back.
    assert transition.revert(db.snapshot()) == pre_state
    assert transition.apply(pre_state) == db.snapshot()
