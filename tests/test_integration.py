"""Cross-module integration tests: realistic end-to-end scenarios."""

import pytest

from repro import (
    Database,
    Relation,
    RelationSchema,
    Session,
    sql_to_algebra,
    sql_to_statement,
)
from repro.domains import INTEGER, REAL, STRING
from repro.engine import StatisticsCatalog, evaluate, execute
from repro.extensions import (
    DomainConstraint,
    KeyConstraint,
    ReferentialConstraint,
)
from repro.optimizer import optimize
from repro.workloads import BeerWorkload
from repro.xra import XRAInterpreter


class TestFullStackQuery:
    """SQL text -> algebra -> optimizer -> physical engine, vs ground truth."""

    @pytest.fixture
    def db(self):
        return BeerWorkload(beers=800, breweries=40, seed=5).database()

    def test_sql_optimized_physical_matches_reference(self, db):
        query = (
            "SELECT country, COUNT(*), AVG(alcperc) FROM beer, brewery "
            "WHERE beer.brewery = brewery.name AND alcperc > 3.0 "
            "GROUP BY country"
        )
        expr = sql_to_algebra(query, db.schema)
        env = dict(db.as_env())
        catalog = StatisticsCatalog.from_env(env)
        optimized = optimize(expr, catalog)
        assert execute(optimized, env) == evaluate(expr, env)

    def test_three_frontends_agree(self, db):
        """The same query through SQL, XRA, and the Python API."""
        env = dict(db.as_env())

        sql_result = evaluate(
            sql_to_algebra(
                "SELECT name FROM beer WHERE alcperc > 8.0", db.schema
            ),
            env,
        )

        xra = XRAInterpreter(Session(db, use_optimizer=False))
        xra_result = xra.run("? proj[name](sel[alcperc > 8.0](beer));").outputs[0]

        session = Session(db, use_optimizer=False)
        api_result = session.query(
            session.relation("beer").select("alcperc > 8.0").project(["name"])
        )

        assert sql_result == xra_result == api_result


class TestInventoryScenario:
    """A small warehouse: constraints + transactions + aggregation."""

    SCHEMA_ITEM = RelationSchema.of("item", sku=STRING, qty=INTEGER, price=REAL)
    SCHEMA_ORDER = RelationSchema.of("orders", sku=STRING, n=INTEGER)

    @pytest.fixture
    def session(self):
        db = Database()
        db.create_relation(
            self.SCHEMA_ITEM,
            Relation(
                self.SCHEMA_ITEM,
                [("bolt", 100, 0.10), ("nut", 250, 0.05), ("gear", 8, 12.5)],
            ),
        )
        db.create_relation(self.SCHEMA_ORDER)
        return Session(
            db,
            constraints=[
                KeyConstraint("item_pk", "item", ["sku"]),
                DomainConstraint("qty_nonneg", "item", "qty >= 0"),
                ReferentialConstraint(
                    "order_fk", "orders", ["sku"], "item", ["sku"]
                ),
            ],
        )

    def test_order_fulfilment_commit(self, session):
        db = session.database
        with session.transaction() as txn:
            item = txn.relation("item")
            txn.update("item", item.select("sku = 'bolt'"), ["%1", "%2 - 40", "%3"])
            from repro.algebra import LiteralRelation

            txn.insert(
                "orders",
                LiteralRelation(Relation(self.SCHEMA_ORDER, [("bolt", 40)])),
            )
        assert db["item"].multiplicity(("bolt", 60, 0.10)) == 1
        assert db["orders"].multiplicity(("bolt", 40)) == 1

    def test_overdraw_rolls_back_both_legs(self, session):
        db = session.database
        from repro.algebra import LiteralRelation
        from repro.errors import ConstraintViolationError

        with pytest.raises(ConstraintViolationError):
            with session.transaction() as txn:
                item = txn.relation("item")
                txn.update(
                    "item", item.select("sku = 'gear'"), ["%1", "%2 - 50", "%3"]
                )
                txn.insert(
                    "orders",
                    LiteralRelation(Relation(self.SCHEMA_ORDER, [("gear", 50)])),
                )
        # qty went negative -> commit-time constraint aborted everything.
        assert db["item"].multiplicity(("gear", 8, 12.5)) == 1
        assert not db["orders"]

    def test_orphan_order_rejected(self, session):
        from repro.algebra import LiteralRelation

        result = session.insert(
            "orders",
            LiteralRelation(Relation(self.SCHEMA_ORDER, [("ghost", 1)])),
        )
        assert not result.committed

    def test_value_of_stock_query(self, session):
        # Total stock value: extended projection feeding a whole-bag SUM.
        item = session.relation("item")
        value = session.query(
            item.extended_project(["qty * price"], names=["value"]).group_by(
                None, "SUM", "value"
            )
        )
        ((total,),) = [row for row, _count in value.pairs()]
        assert total == pytest.approx(100 * 0.10 + 250 * 0.05 + 8 * 12.5)


class TestSqlDmlThroughSessions:
    def test_statement_batch_is_atomic(self):
        db = BeerWorkload(beers=100, breweries=10, seed=6).database()
        session = Session(db)
        before = len(db["beer"])
        statements = [
            sql_to_statement("DELETE FROM beer WHERE alcperc > 5.0", db.schema),
            sql_to_statement(
                "INSERT INTO beer VALUES ('Replacement', 'Brouwerij-0001', 5.0)",
                db.schema,
            ),
        ]
        result = session.run(statements)
        assert result.committed
        assert db["beer"].multiplicity(
            ("Replacement", "Brouwerij-0001", 5.0)
        ) == 1
        assert len(db["beer"]) < before + 1

    def test_logical_time_audit_trail(self):
        db = BeerWorkload(beers=50, breweries=5, seed=7).database()
        session = Session(db)
        for _ in range(3):
            session.run(
                [
                    sql_to_statement(
                        "UPDATE beer SET alcperc = alcperc * 1.01", db.schema
                    )
                ]
            )
        assert db.logical_time == 3
        times = [(t.time_before, t.time_after) for t in db.transitions]
        assert times == [(0, 1), (1, 2), (2, 3)]
