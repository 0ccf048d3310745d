"""Tests for the XRA front end: lexer, parser, interpreter."""

import pytest

from repro.database import Database
from repro.errors import XRAParseError
from repro.extensions import DomainConstraint
from repro.language import Session
from repro.xra import (
    CreateRelation,
    StatementItem,
    TransactionItem,
    XRAInterpreter,
    parse_script,
    tokenize_xra,
)
from repro.workloads import tiny_beer_database


@pytest.fixture
def db():
    return tiny_beer_database()


@pytest.fixture
def xra(db):
    return XRAInterpreter(db)


class TestLexer:
    def test_comments_skipped(self):
        tokens = tokenize_xra("beer -- this is a comment\n;")
        assert [token.text for token in tokens] == ["beer", ";", ""]

    def test_assignment_operator(self):
        tokens = tokenize_xra("x := y")
        assert tokens[1].text == ":="

    def test_colon_alone(self):
        tokens = tokenize_xra("a: int")
        assert tokens[1].text == ":"

    def test_percent_refs(self):
        assert tokenize_xra("%12")[0].kind == "attr"

    def test_error_position(self):
        with pytest.raises(XRAParseError, match="position"):
            tokenize_xra("beer @")


class TestParser:
    def test_script_items(self, db):
        items = parse_script(
            "create t (a: int); ? beer; ( ? beer; ? brewery );",
            db.schema.get,
        )
        assert isinstance(items[0], CreateRelation)
        assert isinstance(items[1], StatementItem)
        assert isinstance(items[2], TransactionItem)
        assert len(items[2].statements) == 2

    def test_unknown_relation(self, db):
        with pytest.raises(XRAParseError, match="unknown relation"):
            parse_script("? nothere;", db.schema.get)

    def test_created_relation_visible_later(self, db):
        items = parse_script(
            "create t (a: int, b: string); ? t;", db.schema.get
        )
        assert len(items) == 2

    def test_dropped_relation_invisible_later(self, db):
        with pytest.raises(XRAParseError, match="dropped"):
            parse_script("drop beer; ? beer;", db.schema.get)

    def test_temporaries_typed_from_expression(self, db):
        items = parse_script(
            "( x := proj[%1](beer); ? sel[%1 = 'Pils'](x) );", db.schema.get
        )
        assert isinstance(items[0], TransactionItem)

    def test_trailing_semicolon_in_brackets(self, db):
        items = parse_script("( ? beer; );", db.schema.get)
        assert len(items[0].statements) == 1

    def test_literal_negative_numbers(self, db):
        parse_script("insert(beer, tuples[('x', 'y', -1.0)]);", db.schema.get)

    def test_malformed_statement(self, db):
        with pytest.raises(XRAParseError):
            parse_script("select beer;", db.schema.get)

    def test_unbalanced_condition(self, db):
        with pytest.raises(XRAParseError):
            parse_script("? sel[(%1 = 'x'](beer);", db.schema.get)


class TestInterpreter:
    def test_create_insert_query(self, xra, db):
        result = xra.run(
            """
            create visits (beer_name: string, visitors: int);
            insert(visits, tuples[('Pils', 10); ('Pils', 10); ('Bock', 3)]);
            ? visits;
            """
        )
        assert result.committed
        assert result.outputs[0].multiplicity(("Pils", 10)) == 2

    def test_query_operators(self, xra):
        result = xra.run(
            "? proj[%1](sel[%6 = 'Netherlands'](join[%2 = %4](beer, brewery)));"
        )
        assert result.outputs[0].multiplicity(("Pils",)) == 2

    def test_groupby_forms(self, xra):
        result = xra.run(
            """
            ? groupby[(country), AVG, alcperc](join[%2 = %4](beer, brewery));
            ? groupby[(), CNT, _](beer);
            """
        )
        grouped, counted = result.outputs
        assert grouped.multiplicity(("Belgium", 8.25)) == 1
        assert list(counted.pairs()) == [((6,), 1)]

    def test_set_operators(self, xra):
        result = xra.run(
            """
            ? union(beer, beer);
            ? diff(beer, sel[alcperc > 5.0](beer));
            ? inter(beer, sel[alcperc > 5.0](beer));
            ? unique(proj[name](union(beer, beer)));
            """
        )
        union, difference, intersection, uniques = result.outputs
        assert union.multiplicity(("Pils", "Guineken", 4.5)) == 2
        assert ("Bock", "Grolsch", 6.5) not in difference
        assert intersection.multiplicity(("Bock", "Grolsch", 6.5)) == 1
        assert uniques.multiplicity(("Pils",)) == 1

    def test_xproj_and_update(self, xra, db):
        xra.run(
            "update(beer, sel[brewery = 'Guineken'](beer), (%1, %2, %3 * 1.1));"
        )
        assert db["beer"].multiplicity(("Pils", "Guineken", 4.95)) == 1

    def test_transaction_atomicity(self, xra, db):
        # Second statement fails (unknown relation is a parse error, so use
        # a schema-mismatched insert instead).
        result = xra.run(
            """
            ( insert(beer, tuples[('X', 'Y', 1.0)]);
              delete(beer, sel[alcperc > 100.0](beer)) );
            """
        )
        assert result.committed
        assert db["beer"].multiplicity(("X", "Y", 1.0)) == 1

    def test_aborted_transaction_rolls_back(self, db):
        from repro.errors import SchemaMismatchError

        xra = XRAInterpreter(db)
        with pytest.raises(SchemaMismatchError):
            xra.run(
                """
                ( insert(beer, tuples[('X', 'Y', 1.0)]);
                  insert(beer, tuples[(1, 2)]) );
                """
            )
        assert ("X", "Y", 1.0) not in db["beer"]

    def test_constraints_checked_at_commit(self, db):
        xra = XRAInterpreter(
            Session(
                db,
                constraints=[
                    DomainConstraint("positive", "beer", "alcperc > 0.0")
                ],
            )
        )
        result = xra.run("insert(beer, tuples[('Bad', 'X', -1.0)]);")
        assert not result.committed
        assert ("Bad", "X", -1.0) not in db["beer"]

    def test_assignment_scoped_to_transaction(self, xra, db):
        result = xra.run(
            """
            ( strong := sel[alcperc > 6.0](beer);
              delete(beer, strong);
              ? strong );
            """
        )
        assert result.committed
        assert len(result.outputs[0]) == 3  # Tripel, Dubbel, Bock
        assert "strong" not in db

    def test_closure_extension(self, xra, db):
        result = xra.run(
            """
            create edge (src: string, dst: string);
            insert(edge, tuples[('a','b'); ('b','c')]);
            ? closure[src, dst](edge);
            """
        )
        closure = result.outputs[0]
        assert closure.multiplicity(("a", "c")) == 1
        assert len(closure) == 3

    def test_ddl_create_and_drop(self, xra, db):
        xra.run("create scratch (x: int); drop scratch;")
        assert "scratch" not in db

    def test_reference_engine_option(self, db):
        xra = XRAInterpreter(
            Session(db, use_physical_engine=False, use_optimizer=False)
        )
        result = xra.run("? proj[name](beer);")
        assert result.outputs[0].multiplicity(("Pils",)) == 2

    def test_script_result_repr(self, xra):
        result = xra.run("? beer;")
        assert "1 transaction(s)" in repr(result)


class TestConstraintDDL:
    """The `constraint` DDL extension (integrity control, paper ref [11])."""

    def make_interpreter(self):
        db = Database()
        xra = XRAInterpreter(db)
        xra.run(
            """
            create beer (name: string, brewery: string, alcperc: real);
            create brewery (name: string, city: string, country: string);
            insert(brewery, tuples[('Grolsch', 'Enschede', 'Netherlands')]);
            """
        )
        return db, xra

    def test_key_constraint_declared_and_enforced(self):
        db, xra = self.make_interpreter()
        xra.run("constraint key beer_pk on beer(name, brewery);")
        assert xra.run("insert(beer, tuples[('Pils', 'Grolsch', 4.5)]);").committed
        duplicate = xra.run("insert(beer, tuples[('Pils', 'Grolsch', 9.9)]);")
        assert not duplicate.committed
        assert len(db["beer"]) == 1

    def test_referential_constraint(self):
        db, xra = self.make_interpreter()
        xra.run(
            "constraint ref beer_fk on beer(brewery) references brewery(name);"
        )
        orphan = xra.run("insert(beer, tuples[('Ghost', 'Nowhere', 5.0)]);")
        assert not orphan.committed

    def test_check_constraint(self):
        db, xra = self.make_interpreter()
        xra.run("constraint check alc_pos on beer [alcperc > 0.0];")
        bad = xra.run("insert(beer, tuples[('Bad', 'Grolsch', -1.0)]);")
        assert not bad.committed

    def test_drop_constraint_restores_freedom(self):
        db, xra = self.make_interpreter()
        xra.run("constraint check alc_pos on beer [alcperc > 0.0];")
        xra.run("drop constraint alc_pos;")
        ok = xra.run("insert(beer, tuples[('Flat', 'Grolsch', -1.0)]);")
        assert ok.committed

    def test_constraint_on_unknown_relation_rejected(self):
        _db, xra = self.make_interpreter()
        with pytest.raises(XRAParseError, match="unknown relation"):
            xra.run("constraint key pk on ghost(a);")

    def test_malformed_constraint_kind(self):
        _db, xra = self.make_interpreter()
        with pytest.raises(XRAParseError, match="key"):
            xra.run("constraint unique pk on beer(name);")
