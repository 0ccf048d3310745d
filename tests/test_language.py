"""Tests for statements, programs, transactions, and sessions (Section 4)."""

import pytest

from repro.algebra import LiteralRelation, RelationRef, Select
from repro.database import Database
from repro.domains import INTEGER, STRING
from repro.errors import (
    DuplicateRelationError,
    SchemaMismatchError,
    TransactionAbort,
    TransactionError,
    UnknownRelationError,
)
from repro.language import (
    Assign,
    Delete,
    ExecutionContext,
    Insert,
    Program,
    Query,
    Session,
    Transaction,
    Update,
)
from repro.relation import Relation
from repro.schema import RelationSchema

T = RelationSchema.of("t", k=INTEGER, v=STRING)


def make_db(*rows):
    db = Database()
    db.create_relation(T, Relation(T, rows))
    return db


def lit(*rows):
    return LiteralRelation(Relation(T, rows))


def t_ref():
    return RelationRef("t", T)


class TestStatements:
    def test_insert_is_union(self):
        db = make_db((1, "a"))
        ctx = ExecutionContext(db.snapshot())
        Insert("t", lit((1, "a"), (2, "b"))).execute(ctx)
        assert ctx.relations["t"].multiplicity((1, "a")) == 2
        assert ctx.relations["t"].multiplicity((2, "b")) == 1

    def test_insert_schema_checked(self):
        db = make_db()
        ctx = ExecutionContext(db.snapshot())
        bad = LiteralRelation(
            Relation(RelationSchema.of("x", a=INTEGER), [(1,)])
        )
        with pytest.raises(SchemaMismatchError):
            Insert("t", bad).execute(ctx)

    def test_delete_is_monus(self):
        db = make_db((1, "a"), (1, "a"), (2, "b"))
        ctx = ExecutionContext(db.snapshot())
        Delete("t", lit((1, "a"), (1, "a"), (1, "a"))).execute(ctx)
        assert (1, "a") not in ctx.relations["t"]
        assert ctx.relations["t"].multiplicity((2, "b")) == 1

    def test_update_definition_4_1(self):
        # R ← (R − E) ⊎ π̂α(R ∩ E)
        db = make_db((1, "a"), (1, "a"), (2, "b"))
        ctx = ExecutionContext(db.snapshot())
        Update("t", lit((1, "a")), ["%1 * 10", "%2"]).execute(ctx)
        updated = ctx.relations["t"]
        # Only the intersected multiplicity (1 copy) is rewritten.
        assert updated.multiplicity((10, "a")) == 1
        assert updated.multiplicity((1, "a")) == 1
        assert updated.multiplicity((2, "b")) == 1

    def test_update_whole_multiplicity(self):
        db = make_db((1, "a"), (1, "a"))
        ctx = ExecutionContext(db.snapshot())
        Update("t", lit((1, "a"), (1, "a")), ["%1 + 1", "%2"]).execute(ctx)
        assert ctx.relations["t"].multiplicity((2, "a")) == 2

    def test_update_requires_structure_preservation(self):
        db = make_db((1, "a"))
        ctx = ExecutionContext(db.snapshot())
        with pytest.raises(SchemaMismatchError):
            Update("t", lit((1, "a")), ["%1"]).execute(ctx)  # drops a column

    def test_update_selector_schema_checked(self):
        db = make_db((1, "a"))
        ctx = ExecutionContext(db.snapshot())
        bad = LiteralRelation(Relation(RelationSchema.of("x", a=INTEGER), [(1,)]))
        with pytest.raises(SchemaMismatchError):
            Update("t", bad, ["%1"]).execute(ctx)

    def test_assign_binds_temporary(self):
        db = make_db((1, "a"))
        ctx = ExecutionContext(db.snapshot())
        Assign("copy", t_ref()).execute(ctx)
        assert ctx.temporaries["copy"].multiplicity((1, "a")) == 1
        assert "copy" not in ctx.relations

    def test_assign_cannot_shadow_base(self):
        db = make_db()
        ctx = ExecutionContext(db.snapshot())
        with pytest.raises(DuplicateRelationError):
            Assign("t", lit()).execute(ctx)

    def test_query_appends_output(self):
        db = make_db((1, "a"))
        ctx = ExecutionContext(db.snapshot())
        Query(t_ref()).execute(ctx)
        assert len(ctx.outputs) == 1
        assert ctx.outputs[0].multiplicity((1, "a")) == 1

    def test_statements_target_temporaries(self):
        db = make_db((1, "a"))
        ctx = ExecutionContext(db.snapshot())
        Assign("tmp", t_ref()).execute(ctx)
        Insert("tmp", lit((2, "b"))).execute(ctx)
        assert ctx.temporaries["tmp"].multiplicity((2, "b")) == 1

    def test_unknown_target(self):
        db = make_db()
        ctx = ExecutionContext(db.snapshot())
        with pytest.raises(UnknownRelationError):
            Insert("nope", lit()).execute(ctx)

    def test_reprs(self):
        assert "insert" in repr(Insert("t", t_ref()))
        assert ":=" in repr(Assign("x", t_ref()))
        assert repr(Query(t_ref())).startswith("?")


class TestPrograms:
    def test_sequential_visibility(self):
        db = make_db((1, "a"))
        ctx = ExecutionContext(db.snapshot())
        program = Program(
            [
                Assign("tmp", Select("k = 1", t_ref())),
                Insert("t", RelationRef("tmp", T)),
                Query(t_ref()),
            ]
        )
        program.execute(ctx)
        assert ctx.outputs[0].multiplicity((1, "a")) == 2

    def test_then_is_paper_composition(self):
        program = Program([Query(t_ref())]).then(Query(t_ref()))
        assert len(program) == 2

    def test_repr_joins_with_semicolons(self):
        program = Program([Query(t_ref()), Query(t_ref())])
        assert ";" in repr(program)


class TestTransactions:
    def test_commit_installs_and_drops_temporaries(self):
        db = make_db((1, "a"))
        transaction = Transaction(
            [
                Assign("tmp", t_ref()),
                Insert("t", RelationRef("tmp", T)),
            ]
        )
        result = transaction.run(db)
        assert result.committed
        assert db["t"].multiplicity((1, "a")) == 2
        assert "tmp" not in db
        assert db.logical_time == 1

    def test_abort_on_exception_restores_pre_state(self):
        db = make_db((1, "a"))

        class Boom(Exception):
            pass

        class FailingStatement:
            def execute(self, _ctx):
                raise Boom()

        transaction = Transaction([Insert("t", lit((2, "b"))), FailingStatement()])
        with pytest.raises(Boom):
            transaction.run(db)
        assert db["t"].multiplicity((2, "b")) == 0
        assert db.logical_time == 0

    def test_transaction_abort_reported_not_raised(self):
        db = make_db((1, "a"))

        class AbortingStatement:
            def execute(self, _ctx):
                raise TransactionAbort("changed my mind")

        transaction = Transaction([Insert("t", lit((2, "b"))), AbortingStatement()])
        result = transaction.run(db)
        assert not result.committed
        assert isinstance(result.error, TransactionAbort)
        assert db["t"].multiplicity((2, "b")) == 0

    def test_intermediate_states_recorded(self):
        db = make_db()
        transaction = Transaction(
            [Insert("t", lit((1, "a"))), Insert("t", lit((2, "b")))]
        )
        result = transaction.run(db, record_intermediate_states=True)
        # D^{t.0}, D^{t.1}, D^{t.2}
        assert len(result.intermediate_states) == 3
        _idx0, state0 = result.intermediate_states[0]
        _idx1, state1 = result.intermediate_states[1]
        assert len(state0["t"]) == 0
        assert len(state1["t"]) == 1

    def test_intermediate_states_contain_temporaries(self):
        db = make_db((1, "a"))
        transaction = Transaction([Assign("tmp", t_ref())])
        result = transaction.run(db, record_intermediate_states=True)
        _index, state = result.intermediate_states[-1]
        assert "tmp" in state  # "not normal database states"
        assert "tmp" not in db  # dropped at the end bracket

    def test_outputs_survive_abort(self):
        db = make_db((1, "a"))

        class AbortingStatement:
            def execute(self, _ctx):
                raise TransactionAbort()

        transaction = Transaction([Query(t_ref()), AbortingStatement()])
        result = transaction.run(db)
        assert not result.committed
        assert len(result.outputs) == 1

    def test_each_commit_is_one_transition(self):
        db = make_db()
        Transaction([Insert("t", lit((1, "a")))]).run(db)
        Transaction([Insert("t", lit((2, "b")))]).run(db)
        assert db.logical_time == 2
        assert len(db.transitions) == 2

    def test_non_constraint_object_rejected(self):
        db = make_db()
        with pytest.raises(TypeError):
            Transaction([Insert("t", lit((1, "a")))]).run(
                db, constraints=[object()]
            )


class TestSession:
    def test_query_does_not_change_state(self):
        db = make_db((1, "a"))
        session = Session(db)
        result = session.query(session.relation("t"))
        assert result.multiplicity((1, "a")) == 1
        assert db.logical_time == 0

    def test_autocommit_statements(self):
        db = make_db()
        session = Session(db)
        session.insert("t", lit((1, "a")))
        session.delete("t", lit((1, "a")))
        assert db.logical_time == 2
        assert not db["t"]

    def test_session_update(self):
        db = make_db((1, "a"))
        session = Session(db)
        session.update("t", lit((1, "a")), ["%1 + 1", "%2"])
        assert db["t"].multiplicity((2, "a")) == 1

    def test_transaction_context_manager_commits(self):
        db = make_db()
        session = Session(db)
        with session.transaction() as txn:
            txn.insert("t", lit((1, "a")))
            out = txn.query(txn.relation("t"))
            assert out.multiplicity((1, "a")) == 1  # sees own writes
            assert db["t"].multiplicity((1, "a")) == 0  # isolation
        assert db["t"].multiplicity((1, "a")) == 1

    def test_transaction_context_manager_rolls_back(self):
        db = make_db()
        session = Session(db)
        with pytest.raises(RuntimeError):
            with session.transaction() as txn:
                txn.insert("t", lit((1, "a")))
                raise RuntimeError("boom")
        assert not db["t"]
        assert db.logical_time == 0

    def test_explicit_abort_swallowed(self):
        db = make_db()
        session = Session(db)
        with session.transaction() as txn:
            txn.insert("t", lit((1, "a")))
            txn.abort("never mind")
        assert not db["t"]

    def test_finished_transaction_rejects_statements(self):
        db = make_db()
        session = Session(db)
        txn = session.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("t", lit((1, "a")))

    def test_temporaries_visible_via_txn_relation(self):
        db = make_db((1, "a"))
        session = Session(db)
        with session.transaction() as txn:
            txn.assign("tmp", txn.relation("t"))
            out = txn.query(txn.relation("tmp"))
            assert len(out) == 1

    def test_reference_vs_physical_session_agree(self):
        db_physical = make_db((1, "a"), (1, "a"), (2, "b"))
        db_reference = make_db((1, "a"), (1, "a"), (2, "b"))
        query_physical = Session(db_physical, use_physical_engine=True)
        query_reference = Session(db_reference, use_physical_engine=False)
        expr = Select("k = 1", t_ref()).project(["v"])
        assert query_physical.query(expr) == query_reference.query(expr)


class TestAbortKeepsOtherCommits:
    """An abort discards its own working state and nothing else.

    Session A opens a transaction, session B commits a delete of every
    row over the same database, then A aborts.  B's commit must survive,
    and the installed state must be exactly what replaying the recorded
    transitions over the initial state gives.
    """

    def setup_method(self):
        self.db = make_db(*[(k, "x") for k in range(50)])
        self.initial = self.db.snapshot()
        self.initial_epoch = self.db.epoch("t")
        self.b = Session(self.db)

    def commit_b(self):
        assert self.b.delete("t", self.b.relation("t")).committed

    def assert_b_survived(self):
        assert self.db.logical_time == 1
        assert len(self.db["t"]) == 0
        assert self.db.epoch("t") > self.initial_epoch
        [transition] = self.db.transitions
        assert self.db.snapshot() == transition.apply(self.initial)

    def test_exception_in_the_block(self):
        a = Session(self.db)
        with a.transaction() as txn:
            txn.insert("t", lit((99, "a")))
            self.commit_b()
            raise TransactionAbort("A gives up")
        self.assert_b_survived()

    def test_constraint_failure_at_commit(self):
        from repro.extensions import DomainConstraint

        a = Session(self.db, constraints=[DomainConstraint("small", "t", "k < 99")])
        with pytest.raises(TransactionAbort):
            with a.transaction() as txn:
                txn.insert("t", lit((99, "a")))
                self.commit_b()
        self.assert_b_survived()

    @pytest.mark.parametrize("error", [TransactionAbort, RuntimeError])
    def test_one_shot_transaction(self, error):
        test = self

        class CommitElsewhereThenFail:
            def execute(self, _ctx):
                test.commit_b()
                raise error("fail after B committed")

        transaction = Transaction([Insert("t", lit((99, "a"))), CommitElsewhereThenFail()])
        if error is TransactionAbort:
            assert not transaction.run(self.db).committed
        else:
            with pytest.raises(error):
                transaction.run(self.db)
        self.assert_b_survived()
