"""Parser for the XRA textual language.

Concrete syntax (comments start with ``--``; statements end with ``;``)::

    create beer (name: string, brewery: string, alcperc: real);
    insert(beer, tuples[('Pils', 'Guineken', 4.5); ('Pils', 'Grolsch', 4.5)]);
    ? proj[%1](sel[%6 = 'Netherlands'](join[%2 = %4](beer, brewery)));
    strong := sel[alcperc > 6.0](beer);
    update(beer, sel[brewery = 'Guineken'](beer), (%1, %2, %3 * 1.1));
    ( delete(beer, strong); insert(archive, strong) );   -- transaction brackets

Expression operators::

    union(E1, E2)    diff(E1, E2)    product(E1, E2)    inter(E1, E2)
    sel[cond](E)     proj[attrs](E)  xproj[e1, ..., en](E)
    join[cond](E1, E2)               unique(E)
    groupby[(attrs), FUNC, param](E)     -- param '_' for CNT's dummy
    closure[from, to](E)                 -- transitive-closure extension
    tuples[(v, ...); (v, ...)]           -- literal multi-set

A parenthesised statement list is a *transaction* (Definition 4.3's
brackets); bare statements auto-commit as singleton transactions.

The parser is schema-directed: relation leaves resolve against the
database schema (plus temporaries bound earlier in the same script), so
every algebra node is fully typed at parse time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.algebra import (
    AlgebraExpr,
    Intersect,
    Join,
    LiteralRelation,
    Product,
    RelationRef,
    Select,
    Unique,
)
from repro.algebra import Difference as DiffOp
from repro.algebra import Union as UnionOp
from repro.algebra.basic import Project
from repro.algebra.extended import ExtendedProject, GroupBy
from repro.domains import BOOLEAN, INTEGER, REAL, STRING, resolve_domain
from repro.errors import XRAParseError
from repro.expressions import (
    Arith,
    AttrRef,
    BoolOp,
    Compare,
    Const,
    Neg,
    Not,
    ScalarExpr,
)
from repro.extensions.closure import TransitiveClosure
from repro.language.statements import Assign, Delete, Insert, Query, Statement, Update
from repro.relation import Relation
from repro.schema import AttrList, RelationSchema
from repro.xra.lexer import XraToken, tokenize_xra

__all__ = [
    "parse_script",
    "CreateRelation",
    "DropRelation",
    "DeclareConstraint",
    "DropConstraint",
    "StatementItem",
    "TransactionItem",
    "ScriptItem",
    "DDL_ITEMS",
]


class CreateRelation:
    """DDL item: declare a new base relation."""

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema

    def apply(self, session) -> None:
        session.database.create_relation(self.schema)

    def __repr__(self) -> str:
        return f"create {self.schema!r}"


class DropRelation:
    """DDL item: remove a base relation."""

    def __init__(self, name: str) -> None:
        self.name = name

    def apply(self, session) -> None:
        session.database.drop_relation(self.name)

    def __repr__(self) -> str:
        return f"drop {self.name}"


class DeclareConstraint:
    """DDL item: register an integrity constraint with the session.

    Syntax (an extension in the spirit of the paper's reference [11] on
    integrity control)::

        constraint key beer_pk on beer(name, brewery);
        constraint ref beer_fk on beer(brewery) references brewery(name);
        constraint check alc_pos on beer [alcperc > 0.0];
    """

    def __init__(self, constraint: object) -> None:
        self.constraint = constraint

    def apply(self, session) -> None:
        session.declare_constraint(self.constraint)

    def __repr__(self) -> str:
        return f"declare {self.constraint!r}"


class DropConstraint:
    """DDL item: remove a previously declared constraint by name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def apply(self, session) -> None:
        session.drop_constraint(self.name)

    def __repr__(self) -> str:
        return f"drop constraint {self.name}"


class StatementItem:
    """A bare statement — executed as a singleton transaction."""

    def __init__(self, statement: Statement) -> None:
        self.statement = statement

    def __repr__(self) -> str:
        return repr(self.statement)


class TransactionItem:
    """A bracketed statement list — executed atomically."""

    def __init__(self, statements: List[Statement]) -> None:
        self.statements = statements

    def __repr__(self) -> str:
        inner = "; ".join(repr(statement) for statement in self.statements)
        return f"({inner})"


#: DDL items: each takes effect on a session's database or constraints
#: through ``item.apply(session)``, outside any transaction.
DDL_ITEMS = (CreateRelation, DropRelation, DeclareConstraint, DropConstraint)

ScriptItem = Union[
    CreateRelation,
    DropRelation,
    DeclareConstraint,
    DropConstraint,
    StatementItem,
    TransactionItem,
]


class _XraParser:
    def __init__(
        self, text: str, schema_lookup: Callable[[str], RelationSchema]
    ) -> None:
        self.text = text
        self.tokens = tokenize_xra(text)
        self.index = 0
        self._lookup = schema_lookup
        #: Schemas declared by `create` earlier in this script.
        self.created: Dict[str, RelationSchema] = {}
        self.dropped: set[str] = set()
        #: Schemas of temporaries bound by `:=` earlier in this script.
        self.temporaries: Dict[str, RelationSchema] = {}

    # -- cursor -----------------------------------------------------------

    def peek(self, ahead: int = 0) -> XraToken:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def advance(self) -> XraToken:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[XraToken]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> XraToken:
        token = self.accept(kind, text)
        if token is None:
            actual = self.peek()
            raise XRAParseError(
                f"expected {text or kind!r}, found "
                f"{actual.text or 'end of input'!r} at position {actual.position}"
            )
        return token

    def resolve_schema(self, name: str) -> RelationSchema:
        if name in self.temporaries:
            return self.temporaries[name]
        if name in self.created:
            return self.created[name]
        if name in self.dropped:
            raise XRAParseError(f"relation {name!r} was dropped earlier in the script")
        try:
            return self._lookup(name)
        except Exception:
            raise XRAParseError(f"unknown relation {name!r}") from None

    # -- script --------------------------------------------------------------

    def parse_script(self) -> List[ScriptItem]:
        items: List[ScriptItem] = []
        while self.peek().kind != "eof":
            items.append(self.parse_item())
        return items

    def parse_item(self) -> ScriptItem:
        token = self.peek()
        if token.kind == "keyword" and token.text == "create":
            item = self.parse_create()
            self.expect("op", ";")
            return item
        if token.kind == "keyword" and token.text == "drop":
            self.advance()
            if self.accept("keyword", "constraint"):
                name = self.expect("name").text
                self.expect("op", ";")
                return DropConstraint(name)
            name = self.expect("name").text
            self.dropped.add(name)
            self.created.pop(name, None)
            self.expect("op", ";")
            return DropRelation(name)
        if token.kind == "keyword" and token.text == "constraint":
            item = self.parse_constraint()
            self.expect("op", ";")
            return item
        if token.kind == "op" and token.text == "(":
            return self.parse_transaction()
        statement = self.parse_statement()
        self.expect("op", ";")
        return StatementItem(statement)

    def parse_create(self) -> CreateRelation:
        self.expect("keyword", "create")
        name = self.expect("name").text
        self.expect("op", "(")
        attributes = [self.parse_attribute_declaration()]
        while self.accept("op", ","):
            attributes.append(self.parse_attribute_declaration())
        self.expect("op", ")")
        schema = RelationSchema(name, attributes)
        self.created[name] = schema
        self.dropped.discard(name)
        return CreateRelation(schema)

    def parse_attribute_declaration(self):
        """One ``name: domain`` entry of a create declaration."""
        attr_name = self.expect("name").text
        self.expect("op", ":")
        domain_token = self.advance()
        if domain_token.kind not in ("name", "keyword"):
            raise XRAParseError(
                f"expected a domain name, found {domain_token.text!r}"
            )
        return attr_name, resolve_domain(domain_token.text)

    def parse_constraint(self) -> DeclareConstraint:
        from repro.extensions.constraints import (
            DomainConstraint,
            KeyConstraint,
            ReferentialConstraint,
        )

        self.expect("keyword", "constraint")
        kind_token = self.advance()
        if kind_token.kind != "keyword" or kind_token.text not in (
            "key",
            "ref",
            "check",
        ):
            raise XRAParseError(
                f"expected 'key', 'ref', or 'check', found {kind_token.text!r}"
            )
        name = self.expect("name").text
        self.expect("keyword", "on")
        relation = self.expect("name").text
        schema = self.resolve_schema(relation)
        if kind_token.text == "check":
            self.expect("op", "[")
            condition_tokens = self.collect_bracket_scalars()
            condition = self.rebuild_scalar(condition_tokens, schema)
            return DeclareConstraint(DomainConstraint(name, relation, condition))
        attrs = self.parse_attr_ref_list()
        if kind_token.text == "key":
            return DeclareConstraint(KeyConstraint(name, relation, attrs))
        self.expect("keyword", "references")
        referenced = self.expect("name").text
        self.resolve_schema(referenced)
        referenced_attrs = self.parse_attr_ref_list()
        return DeclareConstraint(
            ReferentialConstraint(
                name, relation, attrs, referenced, referenced_attrs
            )
        )

    def parse_attr_ref_list(self) -> List:
        """A parenthesised, comma-separated attribute reference list."""
        self.expect("op", "(")
        refs = [self.parse_attr_ref_token()]
        while self.accept("op", ","):
            refs.append(self.parse_attr_ref_token())
        self.expect("op", ")")
        return refs

    def parse_transaction(self) -> TransactionItem:
        self.expect("op", "(")
        statements = [self.parse_statement()]
        while self.accept("op", ";"):
            if self.peek().kind == "op" and self.peek().text == ")":
                break
            statements.append(self.parse_statement())
        self.expect("op", ")")
        self.accept("op", ";")
        return TransactionItem(statements)

    # -- statements --------------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.kind == "op" and token.text == "?":
            self.advance()
            return Query(self.parse_expr())
        if token.kind == "keyword" and token.text in ("insert", "delete"):
            self.advance()
            self.expect("op", "(")
            name = self.expect("name").text
            self.resolve_schema(name)  # fail fast on unknown targets
            self.expect("op", ",")
            expression = self.parse_expr()
            self.expect("op", ")")
            if token.text == "insert":
                return Insert(name, expression)
            return Delete(name, expression)
        if token.kind == "keyword" and token.text == "update":
            self.advance()
            self.expect("op", "(")
            name = self.expect("name").text
            schema = self.resolve_schema(name)
            self.expect("op", ",")
            expression = self.parse_expr()
            self.expect("op", ",")
            self.expect("op", "(")
            entry_token_lists = [self.collect_scalar_tokens((",", ")"))]
            while self.accept("op", ","):
                entry_token_lists.append(self.collect_scalar_tokens((",", ")")))
            self.expect("op", ")")
            self.expect("op", ")")
            entries = [
                self.rebuild_scalar(tokens, schema)
                for tokens in entry_token_lists
            ]
            return Update(name, expression, entries)
        if token.kind == "name" and self.peek(1).kind == "op" and self.peek(1).text == ":=":
            name = self.advance().text
            self.expect("op", ":=")
            expression = self.parse_expr()
            self.temporaries[name] = expression.schema
            return Assign(name, expression)
        raise XRAParseError(
            f"expected a statement, found {token.text or 'end of input'!r} "
            f"at position {token.position}"
        )

    # -- algebra expressions --------------------------------------------------------

    def parse_expr(self) -> AlgebraExpr:
        token = self.peek()
        if token.kind == "keyword":
            if token.text in ("union", "diff", "product", "inter"):
                self.advance()
                self.expect("op", "(")
                left = self.parse_expr()
                self.expect("op", ",")
                right = self.parse_expr()
                self.expect("op", ")")
                constructors = {
                    "union": UnionOp,
                    "diff": DiffOp,
                    "product": Product,
                    "inter": Intersect,
                }
                return constructors[token.text](left, right)
            if token.text == "sel":
                self.advance()
                self.expect("op", "[")
                condition_tokens = self.collect_bracket_scalars()
                self.expect("op", "(")
                operand = self.parse_expr()
                self.expect("op", ")")
                condition = self.rebuild_scalar(condition_tokens, operand.schema)
                return Select(condition, operand)
            if token.text == "join":
                self.advance()
                self.expect("op", "[")
                condition_tokens = self.collect_bracket_scalars()
                self.expect("op", "(")
                left = self.parse_expr()
                self.expect("op", ",")
                right = self.parse_expr()
                self.expect("op", ")")
                combined = left.schema.concat(right.schema)
                condition = self.rebuild_scalar(condition_tokens, combined)
                return Join(left, right, condition)
            if token.text == "proj":
                self.advance()
                self.expect("op", "[")
                refs = [self.parse_attr_ref_token()]
                while self.accept("op", ","):
                    refs.append(self.parse_attr_ref_token())
                self.expect("op", "]")
                self.expect("op", "(")
                operand = self.parse_expr()
                self.expect("op", ")")
                return Project(AttrList(refs), operand)
            if token.text == "xproj":
                self.advance()
                self.expect("op", "[")
                entry_token_lists = [self.collect_scalar_tokens((",", "]"))]
                while self.accept("op", ","):
                    entry_token_lists.append(self.collect_scalar_tokens((",", "]")))
                self.expect("op", "]")
                self.expect("op", "(")
                operand = self.parse_expr()
                self.expect("op", ")")
                entries = [
                    self.rebuild_scalar(tokens, operand.schema)
                    for tokens in entry_token_lists
                ]
                return ExtendedProject(entries, operand)
            if token.text == "unique":
                self.advance()
                self.expect("op", "(")
                operand = self.parse_expr()
                self.expect("op", ")")
                return Unique(operand)
            if token.text == "groupby":
                self.advance()
                self.expect("op", "[")
                self.expect("op", "(")
                refs: List = []
                if not (self.peek().kind == "op" and self.peek().text == ")"):
                    refs.append(self.parse_attr_ref_token())
                    while self.accept("op", ","):
                        refs.append(self.parse_attr_ref_token())
                self.expect("op", ")")
                self.expect("op", ",")
                function = self.expect("name").text
                self.expect("op", ",")
                if self.accept("op", "_") or self.accept("name", "_"):
                    param = None
                else:
                    param = self.parse_attr_ref_token()
                self.expect("op", "]")
                self.expect("op", "(")
                operand = self.parse_expr()
                self.expect("op", ")")
                attrs = AttrList(refs) if refs else None
                return GroupBy(attrs, function, param, operand)
            if token.text == "closure":
                self.advance()
                self.expect("op", "[")
                source = self.parse_attr_ref_token()
                self.expect("op", ",")
                target = self.parse_attr_ref_token()
                self.expect("op", "]")
                self.expect("op", "(")
                operand = self.parse_expr()
                self.expect("op", ")")
                return TransitiveClosure(operand, source, target)
            if token.text == "tuples":
                return self.parse_literal_relation()
        if token.kind == "name":
            name = self.advance().text
            return RelationRef(name, self.resolve_schema(name))
        if token.kind == "op" and token.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        raise XRAParseError(
            f"expected an expression, found {token.text or 'end of input'!r} "
            f"at position {token.position}"
        )

    def parse_literal_relation(self) -> LiteralRelation:
        self.expect("keyword", "tuples")
        self.expect("op", "[")
        rows = [self.parse_literal_tuple()]
        while self.accept("op", ";"):
            rows.append(self.parse_literal_tuple())
        self.expect("op", "]")
        first = rows[0]
        domains = []
        for value in first:
            if type(value) is bool:
                domains.append(BOOLEAN)
            elif type(value) is int:
                domains.append(INTEGER)
            elif type(value) is float:
                domains.append(REAL)
            else:
                domains.append(STRING)
        schema = RelationSchema.anonymous(domains)
        return LiteralRelation(Relation(schema, rows))

    def parse_literal_tuple(self) -> tuple:
        self.expect("op", "(")
        values = [self.parse_literal_value()]
        while self.accept("op", ","):
            values.append(self.parse_literal_value())
        self.expect("op", ")")
        return tuple(values)

    def parse_literal_value(self):
        negative = self.accept("op", "-") is not None
        token = self.advance()
        if token.kind == "int":
            value = int(token.text)
            return -value if negative else value
        if token.kind == "real":
            value = float(token.text)
            return -value if negative else value
        if negative:
            raise XRAParseError(f"expected a number after '-', found {token.text!r}")
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "keyword" and token.text in ("true", "false"):
            return token.text == "true"
        raise XRAParseError(f"expected a literal value, found {token.text!r}")

    def parse_attr_ref_token(self):
        token = self.advance()
        if token.kind == "attr":
            return int(token.text[1:])
        if token.kind == "name":
            return token.text
        raise XRAParseError(
            f"expected an attribute reference, found {token.text!r}"
        )

    # -- scalar expressions over XRA tokens ------------------------------------------

    def collect_bracket_scalars(self) -> List[XraToken]:
        """Collect tokens up to the matching ``]`` (depth-aware)."""
        collected = self.collect_scalar_tokens(("]",))
        self.expect("op", "]")
        return collected

    def collect_scalar_tokens(self, stop: Sequence[str]) -> List[XraToken]:
        """Collect tokens until a top-level stop operator (not consumed)."""
        depth = 0
        collected: List[XraToken] = []
        while True:
            token = self.peek()
            if token.kind == "eof":
                raise XRAParseError("unterminated scalar expression")
            if token.kind == "op":
                if token.text in "([{":
                    depth += 1
                elif token.text in ")]}":
                    if depth == 0 and token.text in stop:
                        return collected
                    if depth == 0 and token.text in ")]}":
                        raise XRAParseError(
                            f"unbalanced {token.text!r} at position {token.position}"
                        )
                    depth -= 1
                elif depth == 0 and token.text in stop:
                    return collected
            collected.append(self.advance())

    def rebuild_scalar(
        self, tokens: List[XraToken], schema: RelationSchema
    ) -> ScalarExpr:
        """Parse a collected token slice as a scalar expression."""
        parser = _ScalarFromTokens(tokens)
        expression = parser.parse()
        return expression


class _ScalarFromTokens:
    """The standard precedence ladder over a pre-collected token slice."""

    def __init__(self, tokens: List[XraToken]) -> None:
        self.tokens = tokens + [XraToken("eof", "", -1)]
        self.index = 0

    def peek(self) -> XraToken:
        return self.tokens[self.index]

    def advance(self) -> XraToken:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[XraToken]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> XraToken:
        token = self.accept(kind, text)
        if token is None:
            actual = self.peek()
            raise XRAParseError(
                f"expected {text or kind!r} in condition, found {actual.text!r}"
            )
        return token

    def parse(self) -> ScalarExpr:
        expression = self.parse_or()
        if self.peek().kind != "eof":
            raise XRAParseError(
                f"unexpected token {self.peek().text!r} in condition"
            )
        return expression

    def parse_or(self) -> ScalarExpr:
        expression = self.parse_and()
        while self.accept("keyword", "or"):
            expression = BoolOp("or", expression, self.parse_and())
        return expression

    def parse_and(self) -> ScalarExpr:
        expression = self.parse_not()
        while self.accept("keyword", "and"):
            expression = BoolOp("and", expression, self.parse_not())
        return expression

    def parse_not(self) -> ScalarExpr:
        if self.accept("keyword", "not"):
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ScalarExpr:
        expression = self.parse_additive()
        token = self.peek()
        if token.kind == "op" and token.text in ("=", "<>", "!=", "<=", ">=", "<", ">"):
            self.advance()
            operator = "<>" if token.text == "!=" else token.text
            return Compare(operator, expression, self.parse_additive())
        return expression

    def parse_additive(self) -> ScalarExpr:
        expression = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self.advance()
                expression = Arith(token.text, expression, self.parse_multiplicative())
            else:
                return expression

    def parse_multiplicative(self) -> ScalarExpr:
        expression = self.parse_unary()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("*", "/"):
                self.advance()
                expression = Arith(token.text, expression, self.parse_unary())
            else:
                return expression

    def parse_unary(self) -> ScalarExpr:
        if self.accept("op", "-"):
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> ScalarExpr:
        token = self.peek()
        if token.kind == "real":
            self.advance()
            return Const(float(token.text), REAL)
        if token.kind == "int":
            self.advance()
            return Const(int(token.text), INTEGER)
        if token.kind == "string":
            self.advance()
            return Const(token.text[1:-1].replace("''", "'"), STRING)
        if token.kind == "attr":
            self.advance()
            return AttrRef(int(token.text[1:]))
        if token.kind == "keyword" and token.text in ("true", "false"):
            self.advance()
            return Const(token.text == "true", BOOLEAN)
        if token.kind == "name":
            self.advance()
            name = token.text
            if self.accept("op", "."):
                name = f"{name}.{self.expect('name').text}"
            return AttrRef(name)
        if self.accept("op", "("):
            expression = self.parse_or()
            self.expect("op", ")")
            return expression
        raise XRAParseError(
            f"unexpected token {token.text or 'end of condition'!r} in condition"
        )


def parse_script(
    text: str, schema_lookup: Callable[[str], RelationSchema]
) -> List[ScriptItem]:
    """Parse an XRA script into DDL / statement / transaction items."""
    from repro import obs

    with obs.span("xra.parse") as span:
        with obs.span("xra.lex"):
            parser = _XraParser(text, schema_lookup)
        items = parser.parse_script()
        if span.recording:
            span.set(items=len(items), source=text.strip()[:200])
            obs.add("xra.scripts")
    return items
