"""Tests for the Section 5 extensions: closure and constraints."""

import pytest

from repro.algebra import LiteralRelation
from repro.database import Database
from repro.engine import evaluate, execute
from repro.errors import ConstraintViolationError, ExpressionTypeError
from repro.extensions import (
    DomainConstraint,
    KeyConstraint,
    ReferentialConstraint,
    TransitiveClosure,
    closure_by_iteration,
    transitive_closure_pairs,
)
from repro.domains import INTEGER, STRING
from repro.language import Insert, Session, Transaction
from repro.relation import Relation
from repro.schema import RelationSchema
from repro.workloads import tiny_beer_database

EDGE = RelationSchema.of("edge", src=STRING, dst=STRING)


def edges(*pairs):
    return Relation(EDGE, pairs)


class TestTransitiveClosurePairs:
    def test_chain(self):
        closed = transitive_closure_pairs({("a", "b"), ("b", "c"), ("c", "d")})
        assert ("a", "d") in closed
        assert len(closed) == 6

    def test_cycle(self):
        closed = transitive_closure_pairs({("a", "b"), ("b", "a")})
        assert ("a", "a") in closed
        assert ("b", "b") in closed

    def test_empty(self):
        assert transitive_closure_pairs(set()) == set()

    def test_disconnected(self):
        closed = transitive_closure_pairs({("a", "b"), ("x", "y")})
        assert len(closed) == 2


class TestClosureOperator:
    def test_as_algebra_node(self):
        relation = edges(("a", "b"), ("b", "c"))
        node = TransitiveClosure(LiteralRelation(relation), "src", "dst")
        result = evaluate(node, {})
        assert result.multiplicity(("a", "c")) == 1
        assert len(result) == 3

    def test_duplicate_free_result(self):
        # Bag input with duplicated edges still yields multiplicity-1 pairs.
        relation = edges(("a", "b"), ("a", "b"), ("b", "c"))
        node = TransitiveClosure(LiteralRelation(relation), "src", "dst")
        result = evaluate(node, {})
        assert result.multiplicity(("a", "b")) == 1

    def test_schema_from_endpoints(self):
        relation = Relation(
            RelationSchema.of("flight", frm=STRING, to=STRING, dist=INTEGER),
            [("AMS", "BRU", 150)],
        )
        node = TransitiveClosure(LiteralRelation(relation), "frm", "to")
        assert node.schema.degree == 2
        assert node.schema.names() == ("frm", "to")

    def test_mismatched_domains_rejected(self):
        relation = Relation(
            RelationSchema.of("x", a=STRING, b=INTEGER), [("p", 1)]
        )
        with pytest.raises(ExpressionTypeError):
            TransitiveClosure(LiteralRelation(relation), "a", "b")

    def test_physical_engine_supports_extension(self):
        relation = edges(("a", "b"), ("b", "c"))
        node = TransitiveClosure(LiteralRelation(relation), "src", "dst")
        assert execute(node, {}) == evaluate(node, {})

    def test_matches_iterated_join_formulation(self):
        relation = edges(
            ("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "d")
        )
        node = TransitiveClosure(LiteralRelation(relation), "src", "dst")
        assert evaluate(node, {}) == closure_by_iteration(relation, "src", "dst")

    def test_tree_protocol(self):
        relation = edges(("a", "b"))
        node = TransitiveClosure(LiteralRelation(relation), "src", "dst")
        rebuilt = node.with_children(list(node.children()))
        assert rebuilt == node


class TestConstraints:
    def test_key_constraint_blocks_duplicates(self):
        db = tiny_beer_database()
        session = Session(
            db,
            constraints=[KeyConstraint("beer_pk", "beer", ["name", "brewery"])],
        )
        duplicate = LiteralRelation(
            Relation(db["beer"].schema, [("Pils", "Guineken", 9.9)])
        )
        result = session.insert("beer", duplicate)
        assert not result.committed
        assert isinstance(result.error, ConstraintViolationError)
        assert ("Pils", "Guineken", 9.9) not in db["beer"]

    def test_key_constraint_bag_twist(self):
        """A whole-tuple duplicate also violates the key."""
        schema = RelationSchema.of("k", a=INTEGER)
        db = Database()
        db.create_relation(schema, Relation(schema, [(1,), (1,)]))
        constraint = KeyConstraint("pk", "k", ["a"])
        with pytest.raises(ConstraintViolationError):
            constraint.check(db.snapshot())

    def test_referential_constraint(self):
        db = tiny_beer_database()
        constraint = ReferentialConstraint(
            "beer_brewery_fk", "beer", ["brewery"], "brewery", ["name"]
        )
        constraint.check(db.snapshot())  # holds initially
        session = Session(db, constraints=[constraint])
        orphan = LiteralRelation(
            Relation(db["beer"].schema, [("Ghost", "Nowhere", 5.0)])
        )
        result = session.insert("beer", orphan)
        assert not result.committed

    def test_domain_constraint(self):
        db = tiny_beer_database()
        constraint = DomainConstraint("alc_pos", "beer", "alcperc > 0.0")
        constraint.check(db.snapshot())
        session = Session(db, constraints=[constraint])
        bad = LiteralRelation(Relation(db["beer"].schema, [("Bad", "X", -0.1)]))
        assert not session.insert("beer", bad).committed

    def test_constraint_on_missing_relation_is_vacuous(self):
        DomainConstraint("x", "ghost", "true").check({})

    def test_transaction_runner_checks_constraints(self):
        db = tiny_beer_database()
        bad = LiteralRelation(Relation(db["beer"].schema, [("Bad", "X", -1.0)]))
        result = Transaction([Insert("beer", bad)]).run(
            db, constraints=[DomainConstraint("alc_pos", "beer", "alcperc > 0.0")]
        )
        assert not result.committed
        assert db.logical_time == 0
