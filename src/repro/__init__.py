"""A multi-set extended relational algebra.

Reproduction of Grefen & de By, *"A Multi-Set Extended Relational
Algebra — A Formal Approach to a Practical Issue"*, ICDE 1994: the full
bag-semantics relational algebra, its expression-equivalence toolkit,
the statement / program / transaction language built on it, and the two
front ends the paper motivates (SQL, and PRISMA/DB's XRA).

Quickstart::

    from repro import Database, Session, RelationSchema, Relation
    from repro.domains import STRING, REAL

    db = Database()
    beer = RelationSchema.of("beer", name=STRING, brewery=STRING, alcperc=REAL)
    db.create_relation(beer, Relation(beer, [("Pils", "Grolsch", 4.5)]))
    session = Session(db)
    strong = session.query(session.relation("beer").select("alcperc > 4.0"))

See ``examples/`` for complete programs and ``DESIGN.md`` for the
paper-to-module map.
"""

from repro.aggregates import AVG, CNT, CNTD, MAX, MEDIAN, MIN, STDEV, SUM, VAR
from repro.algebra import (
    AlgebraExpr,
    Difference,
    ExtendedProject,
    GroupBy,
    Intersect,
    Join,
    LiteralRelation,
    Product,
    Project,
    RelationRef,
    Select,
    Union,
    Unique,
    render,
    render_tree,
)
from repro.cache import QueryCache
from repro.database import (
    Database,
    DatabaseTransition,
    load_database,
    save_database,
)
from repro.domains import (
    BOOLEAN,
    DATE,
    INTEGER,
    MONEY,
    REAL,
    STRING,
    TIME,
    TIMESTAMP,
    Domain,
)
from repro.engine import (
    StatisticsCatalog,
    estimate_cardinality,
    estimate_cost,
    evaluate,
    evaluate_set,
    execute,
    execute_profiled,
    plan_physical,
)
from repro.presentation import Cursor, order_rows
from repro.tools import explain
from repro.errors import ReproError
from repro.expressions import col, lit, parse_expression
from repro.language import (
    Assign,
    Delete,
    Insert,
    Program,
    Query,
    Session,
    Transaction,
    Update,
)
from repro.multiset import Multiset
from repro import obs
from repro.optimizer import optimize
from repro.relation import Relation, format_relation
from repro.schema import Attribute, AttrList, DatabaseSchema, RelationSchema
from repro.sql import sql_to_algebra, sql_to_statement
from repro.xra import XRAInterpreter

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # structures
    "Domain",
    "INTEGER",
    "REAL",
    "BOOLEAN",
    "STRING",
    "DATE",
    "TIME",
    "TIMESTAMP",
    "MONEY",
    "Attribute",
    "AttrList",
    "RelationSchema",
    "DatabaseSchema",
    "Multiset",
    "Relation",
    "format_relation",
    # algebra
    "AlgebraExpr",
    "RelationRef",
    "LiteralRelation",
    "Union",
    "Difference",
    "Product",
    "Select",
    "Project",
    "Intersect",
    "Join",
    "ExtendedProject",
    "Unique",
    "GroupBy",
    "render",
    "render_tree",
    "CNT",
    "CNTD",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "VAR",
    "STDEV",
    "MEDIAN",
    "col",
    "lit",
    "parse_expression",
    # engines & optimizer
    "evaluate",
    "evaluate_set",
    "execute",
    "execute_profiled",
    "plan_physical",
    "optimize",
    "explain",
    "StatisticsCatalog",
    "estimate_cardinality",
    "estimate_cost",
    # presentation (outside the algebra, by design)
    "Cursor",
    "order_rows",
    # database & language
    "Database",
    "DatabaseTransition",
    "save_database",
    "load_database",
    "Insert",
    "Delete",
    "Update",
    "Assign",
    "Query",
    "Program",
    "Transaction",
    "Session",
    # caching
    "QueryCache",
    # front ends
    "sql_to_algebra",
    "sql_to_statement",
    "XRAInterpreter",
    # observability
    "obs",
    # errors
    "ReproError",
]
