"""Tests for database instances, states, logical time, transitions."""

import pytest

from repro.database import Database, DatabaseTransition
from repro.domains import INTEGER, STRING
from repro.errors import (
    DuplicateRelationError,
    SchemaMismatchError,
    UnknownRelationError,
)
from repro.relation import Relation
from repro.schema import DatabaseSchema, RelationSchema

T = RelationSchema.of("t", k=INTEGER, v=STRING)


class TestDatabaseBasics:
    def test_create_empty_relation(self):
        db = Database()
        db.create_relation(T)
        assert not db["t"]
        assert "t" in db
        assert db.names() == ["t"]

    def test_create_with_contents(self):
        db = Database()
        db.create_relation(T, Relation(T, [(1, "a")]))
        assert db["t"].multiplicity((1, "a")) == 1

    def test_create_checks_schema(self):
        db = Database()
        other = RelationSchema.of("x", a=INTEGER)
        with pytest.raises(SchemaMismatchError):
            db.create_relation(T, Relation(other, [(1,)]))

    def test_duplicate_create_rejected(self):
        db = Database()
        db.create_relation(T)
        with pytest.raises(DuplicateRelationError):
            db.create_relation(T)

    def test_drop(self):
        db = Database()
        db.create_relation(T)
        db.drop_relation("t")
        assert "t" not in db
        with pytest.raises(UnknownRelationError):
            db.get("t")

    def test_prepopulated_schema(self):
        db = Database(DatabaseSchema([T]))
        assert not db["t"]

    def test_set_checks_schema(self):
        db = Database()
        db.create_relation(T)
        with pytest.raises(SchemaMismatchError):
            db.set("t", Relation(RelationSchema.of("x", a=INTEGER), [(1,)]))

    def test_as_env_is_read_only(self):
        db = Database()
        db.create_relation(T)
        env = db.as_env()
        assert "t" in env
        with pytest.raises(TypeError):
            env["t"] = None  # type: ignore[index]


class TestStatesAndTime:
    def test_initial_time_zero(self):
        assert Database().logical_time == 0

    def test_snapshot_is_a_value(self):
        db = Database()
        db.create_relation(T, Relation(T, [(1, "a")]))
        state = db.snapshot()
        db.set("t", Relation(T, [(2, "b")]))
        assert state["t"].multiplicity((1, "a")) == 1
        assert db["t"].multiplicity((1, "a")) == 0
        assert not hasattr(db, "restore")

    def test_install_advances_time_and_records(self):
        db = Database()
        db.create_relation(T)
        state = db.snapshot()
        state["t"] = Relation(T, [(1, "a")]).rename("t")
        transition = db.install(state)
        assert db.logical_time == 1
        assert db["t"].multiplicity((1, "a")) == 1
        assert transition.time_before == 0
        assert transition.time_after == 1
        assert transition.is_single_step
        assert db.transitions == [transition]

    def test_transition_changed_relations(self):
        before = {"t": Relation(T, [(1, "a")])}
        after = {"t": Relation(T, [(2, "b")]), "u": Relation(T, [(3, "c")])}
        transition = DatabaseTransition(before, after, 0, 1)
        assert transition.changed_relations() == ["t", "u"]

    def test_transition_requires_increasing_time(self):
        with pytest.raises(ValueError):
            DatabaseTransition({}, {}, 2, 2)
        with pytest.raises(ValueError):
            DatabaseTransition({}, {}, 3, 1)

    def test_multi_step_transition_flag(self):
        transition = DatabaseTransition({}, {}, 0, 5)
        assert not transition.is_single_step

    def test_repr(self):
        db = Database()
        db.create_relation(T, Relation(T, [(1, "a")]))
        assert "t[1]" in repr(db)


class TestDeltaHistory:
    """History keeps deltas only; superseded versions are collectable."""

    def test_superseded_versions_die_and_history_is_deltas(self, monkeypatch):
        import gc
        import weakref

        from repro.algebra import LiteralRelation, RelationRef
        from repro.language import Delete, Insert, Update
        from repro.language.context import ExecutionContext
        from repro.multiset import Multiset

        db = Database()
        db.create_relation(T, Relation(T, [(k, "v") for k in range(50)]))
        ref = RelationRef("t", T)
        versions = []
        writes = 12
        for k in range(writes):
            versions.append(weakref.ref(db["t"]))
            row = LiteralRelation(Relation(T, [(100 + k, "w")]))
            statement = [
                Insert("t", row),
                Delete("t", ref.select(f"%1 = {k}")),
                Update("t", ref.select(f"%1 = {k + 20}"), ["%1", "'u'"]),
            ][k % 3]
            context = ExecutionContext(db.snapshot())
            statement.execute(context)
            db.install(context.relations)
        del context
        gc.collect()
        assert [version() for version in versions] == [None] * writes
        assert len(db.transitions) == writes
        assert all(t.delta_size <= 2 for t in db.transitions)

        def refuse(*_args):
            raise AssertionError("changed_relations compared full relations")

        monkeypatch.setattr(Multiset, "__eq__", refuse)
        assert all(t.changed_relations() == ["t"] for t in db.transitions)

    def test_hand_built_state_falls_back_to_a_diff(self):
        db = Database()
        db.create_relation(T, Relation(T, [(1, "a"), (1, "a")]))
        state = db.snapshot()
        state["t"] = Relation(T, [(1, "a"), (2, "b")]).rename("t")
        transition = db.install(state)
        delta = transition.deltas["t"]
        assert dict(delta.minus.pairs()) == {(1, "a"): 1}
        assert dict(delta.plus.pairs()) == {(2, "b"): 1}
