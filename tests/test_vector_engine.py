"""Per-operator matrix and wiring for the physical (vector) engine.

Three layers of evidence:

* **per-operator** — for every translation rule the planner has, the
  engine's result must be bag-equal to the reference evaluator,
  including with a tiny batch size that forces chunk boundaries through
  every operator;
* **random plans at a tiny batch size** — the one generated corpus of
  ``tests/test_differential.py``, run with ``TINY_BATCH``;
* **compiled vs. interpreted** — the expression compiler must agree
  with the AST interpreter on edge values: division by zero routes to
  the same :class:`~repro.errors.DivisionByZeroError`, and MONEY
  arithmetic (which the compiler refuses to lower) falls back to the
  interpreter without changing results.  Kernels compile once per
  query shape, whatever its literals.

Plus wiring smoke: sessions/transactions, the query cache, EXPLAIN
ANALYZE labels, and where the ``engine`` argument survives.
"""

from decimal import Decimal

import pytest

from repro.aggregates import AVG, CNT, SUM
from repro.algebra import (
    Difference,
    ExtendedProject,
    GroupBy,
    Intersect,
    Join,
    Product,
    Project,
    RelationRef,
    Select,
    Union,
    Unique,
)
from repro.algebra.base import as_attr_list
from repro.database import Database
from repro.domains import INTEGER, MONEY, REAL, STRING
from repro.engine import evaluate, execute
from repro.engine.vector import (
    DEFAULT_BATCH_SIZE,
    VFilterOp,
    VGroupByOp,
    VHashJoinOp,
    collect_batches,
    plan_vector,
)
from repro.errors import DivisionByZeroError
from repro.expressions import Neg, col, lit
from repro.expressions.compile import _compile_source, compile_row
from repro.language import Session
from repro.optimizer import optimize
from repro.relation import Relation
from repro.schema import RelationSchema
from repro.testing import random_environment
from repro.workloads.beer import BEER_SCHEMA, BREWERY_SCHEMA
from tests.test_differential import SEEDS, TINY_BATCH, assert_corpus_agrees


@pytest.fixture(scope="module")
def env():
    return random_environment(tables=3, size=50, degree=2, value_space=5, seed=7)


def _operator_cases(env):
    """One hand-built expression per operator/translation rule."""
    t1, t2, t3 = (RelationRef(name, env[name].schema) for name in ("t1", "t2", "t3"))
    return {
        "scan": t1,
        "select": Select(col(1).ge(lit(2)), t1),
        "select-stack": Select(col(1).ge(lit(2)), Select(col(2).le(lit(4)), t1)),
        "select-arith": Select((col(1) * lit(2) + col(2)).gt(lit(5)), t1),
        "project": Project(as_attr_list([2]), t1),
        "project-swap": Project(as_attr_list([2, 1]), t1),
        "xproject": ExtendedProject([col(1) + col(2), col(2)], t1),
        "union": Union(t1, t2),
        "difference": Difference(t1, t2),
        "intersect": Intersect(t1, t2),
        "equi-join": Join(t1, t2, col(1).eq(col(3))),
        "equi-join-residual": Join(
            t1, t2, col(1).eq(col(3)).and_(col(2).lt(col(4)))
        ),
        "theta-join": Join(t1, t2, col(1).lt(col(3))),
        "select-product": Select(col(1).eq(col(3)), Product(t1, t2)),
        "product": Product(t1, t2),
        "distinct": Unique(t1),
        "group-count": GroupBy([1], CNT, 2, t1),
        "group-sum": GroupBy([1], SUM, 2, t1),
        "group-avg": GroupBy([1], AVG, 2, t1),
        "group-scalar": GroupBy(None, SUM, 1, t1),
        "project-join": Project(
            as_attr_list([1, 4]), Join(t1, t2, col(2).eq(col(3)))
        ),
        "pipeline": Project(
            as_attr_list([1, 3]),
            Select(col(2).ge(lit(2)), Join(t1, Unique(t3), col(1).eq(col(3)))),
        ),
    }


OPERATOR_CASE_NAMES = sorted(
    _operator_cases(random_environment(tables=3, size=2, degree=2, seed=7))
)


@pytest.mark.parametrize("name", OPERATOR_CASE_NAMES)
def test_operator_agrees_with_both_engines(env, name):
    expr = _operator_cases(env)[name]
    reference = evaluate(expr, env)
    assert execute(expr, env) == reference, f"physical != reference for {name}"
    chunked = collect_batches(plan_vector(expr, batch_size=TINY_BATCH), env)
    assert chunked == reference, f"tiny batches diverge for {name}"


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_agree(env, seed):
    assert_corpus_agrees(env, seed, TINY_BATCH)


class TestCompiledVsInterpreted:
    """The compiler and the AST interpreter must be indistinguishable."""

    SCHEMA = RelationSchema("r", [("a", INTEGER), ("b", INTEGER)])

    @pytest.mark.parametrize(
        "expr",
        [
            col(1) + col(2),
            col(1) - lit(3) * col(2),
            (col(1) * lit(3)).ge(col(2)),
            Neg(col(1)),
            col(1).eq(col(2)).or_(col(1).lt(lit(0))),
            col(1).gt(lit(0)).and_(col(2).le(lit(5))).not_(),
            col(1) / col(2),
        ],
        ids=repr,
    )
    def test_compiled_matches_interpreter(self, expr):
        compiled = compile_row(expr, self.SCHEMA)
        interpreted = expr.bind(self.SCHEMA)
        for row in [(4, 2), (0, 3), (-7, 5), (6, -2)]:
            assert compiled(row) == interpreted(row), (expr, row)

    def test_division_by_zero_agrees(self):
        expr = col(1) / col(2)
        compiled = compile_row(expr, self.SCHEMA)
        interpreted = expr.bind(self.SCHEMA)
        with pytest.raises(DivisionByZeroError):
            compiled((1, 0))
        with pytest.raises(DivisionByZeroError):
            interpreted((1, 0))

    def test_division_by_zero_routing_through_engines(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        expr = Select((col(1) / (col(2) - col(2))).gt(lit(0)), t1)
        with pytest.raises(DivisionByZeroError):
            evaluate(expr, env)
        with pytest.raises(DivisionByZeroError):
            execute(expr, env)

    def test_money_arithmetic_falls_back_to_interpreter(self):
        schema = RelationSchema("price", [("item", STRING), ("amount", MONEY)])
        relation = Relation.from_pairs(
            schema,
            [
                (("a", Decimal("1.10")), 2),
                (("b", Decimal("2.35")), 1),
                (("c", Decimal("0.99")), 3),
            ],
        )
        env = {"price": relation}
        expr = Select(
            (col(2) + col(2)).gt(lit(Decimal("2.00"))),
            RelationRef("price", schema),
        )
        plan = plan_vector(expr)
        assert isinstance(plan, VFilterOp)
        assert plan.kernel is None, "MONEY arithmetic must refuse to lower"
        assert "(interpreted)" in plan.label()
        assert collect_batches(plan, env) == evaluate(expr, env)

    @pytest.mark.parametrize(
        "condition, interpreted_sides",
        [
            # join[%2 * 2 = %5]: only the left key is MONEY arithmetic.
            ((col(2) * lit(2)).eq(col(5)), ("left",)),
            # join[%2 * 2 = %5 + %5]: neither key lowers.
            ((col(2) * lit(2)).eq(col(5) + col(5)), ("left", "right")),
        ],
        ids=["left-key", "both-keys"],
    )
    @pytest.mark.parametrize("batch_size", [DEFAULT_BATCH_SIZE, TINY_BATCH])
    def test_money_join_key_falls_back_to_row_key(
        self, condition, interpreted_sides, batch_size
    ):
        price_schema = RelationSchema("price", [("item", STRING), ("amount", MONEY)])
        offer_schema = RelationSchema(
            "offer", [("code", INTEGER), ("shop", STRING), ("total", MONEY)]
        )
        env = {
            "price": Relation.from_pairs(
                price_schema,
                [
                    ((f"item{i}", Decimal(i) / 4), 1 + i % 3)
                    for i in range(12)
                ],
            ),
            "offer": Relation.from_pairs(
                offer_schema,
                [
                    ((i, f"shop{i % 4}", Decimal(i) / 4), 1 + i % 2)
                    for i in range(12)
                ],
            ),
        }
        expr = Join(
            RelationRef("price", price_schema),
            RelationRef("offer", offer_schema),
            condition,
        )
        plan = plan_vector(expr, batch_size=batch_size)
        assert isinstance(plan, VHashJoinOp)
        for side in ("left", "right"):
            interpreted = side in interpreted_sides
            assert (getattr(plan, f"{side}_kernel") is None) is interpreted
            assert (getattr(plan, f"{side}_fallback") is not None) is interpreted
        reference = evaluate(expr, env)
        assert len(reference) > 0
        assert collect_batches(plan, env) == reference


class TestPlanShapes:
    """Vector-specific planner rewrites, pinned structurally."""

    def test_selection_stack_fuses_to_one_filter(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        expr = Select(col(1).ge(lit(2)), Select(col(2).le(lit(4)), t1))
        plan = plan_vector(expr)
        assert isinstance(plan, VFilterOp)
        assert not isinstance(plan.child, VFilterOp)

    def test_project_into_join_fusion(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        t2 = RelationRef("t2", env["t2"].schema)
        expr = Project(as_attr_list([1, 4]), Join(t1, t2, col(1).eq(col(3))))
        plan = plan_vector(expr)
        assert isinstance(plan, VHashJoinOp)
        assert tuple(plan.output_positions) == (0, 3)
        assert "+project" in plan.label()
        assert collect_batches(plan, env) == evaluate(expr, env)

    def test_group_by_fold_selection(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        assert plan_vector(GroupBy([1], CNT, 2, t1)).fold == "count"
        # SUM over an INTEGER parameter re-associates exactly.
        assert plan_vector(GroupBy([1], SUM, 2, t1)).fold == "sum"
        # AVG has no fold (measured slower than the bag path).
        assert plan_vector(GroupBy([1], AVG, 2, t1)).fold == "bag"

    def test_real_sum_stays_on_bag_path(self):
        # Float addition is order-sensitive; only the bag path replays
        # the reference evaluator's accumulation order bit for bit.
        schema = RelationSchema("m", [("k", INTEGER), ("x", REAL)])
        relation = Relation.from_pairs(
            schema,
            [((i % 3, (i * 0.1) ** 2), 1 + i % 2) for i in range(30)],
        )
        env = {"m": relation}
        expr = GroupBy([1], SUM, 2, RelationRef("m", schema))
        plan = plan_vector(expr)
        assert isinstance(plan, VGroupByOp)
        assert plan.fold == "bag"
        reference = evaluate(expr, env)
        assert collect_batches(plan, env) == reference
        assert execute(expr, env) == reference


def _compiled_sources(plan):
    """Every generated source reachable from a plan's operators."""
    sources = []
    stack = [plan]
    while stack:
        op = stack.pop()
        stack.extend(op.children())
        for slot in dir(op):
            source = getattr(getattr(op, slot, None), "__compiled_source__", None)
            if source is not None:
                sources.append(source)
    return sources


class TestKernelMemo:
    """Kernels compile once per query shape, whatever its literals."""

    def _shape(self, env, low, high):
        t1 = RelationRef("t1", env["t1"].schema)
        t2 = RelationRef("t2", env["t2"].schema)
        join = Join(t1, t2, col(1).eq(col(3)).and_(col(2).lt(col(4) + lit(low))))
        selected = Select(col(1).ge(lit(low)).or_(col(4).le(lit(high))), join)
        mapped = ExtendedProject([col(1), col(2) * lit(high) / lit(low)], selected)
        return GroupBy([1], SUM, 2, mapped)

    def test_new_literals_compile_nothing_new(self, env):
        first = self._shape(env, 424242, 31337)
        plan_vector(first)  # the first plan of a shape may compile
        before = _compile_source.cache_info()
        second = self._shape(env, 515151, 27182)
        plan = plan_vector(second)
        after = _compile_source.cache_info()
        assert after.misses == before.misses, "new literals recompiled a kernel"
        assert after.hits > before.hits
        sources = _compiled_sources(plan)
        assert sources
        for source in sources:
            assert "515151" not in source and "27182" not in source
        assert collect_batches(plan, env) == evaluate(second, env)

    #: Distinct generated sources the two analytic_cold query shapes
    #: compile at plan time: the selection kernel and one probe loop per
    #: shape (the join keys are plain attributes, which need no source).
    ANALYTIC_COLD_SOURCES = 3

    def test_analytic_cold_shapes_compile_once(self):
        beer = RelationRef("beer", BEER_SCHEMA)
        brewery = RelationRef("brewery", BREWERY_SCHEMA)

        def distinct_countries(x):
            # unique(proj[%6](sel[%3 > x](join[%2 = %4](beer, brewery))))
            joined = Join(beer, brewery, col(2).eq(col(4)))
            return Unique(Project(as_attr_list([6]), Select(col(3).gt(lit(x)), joined)))

        def avg_by_country(x):
            # groupby[(country), AVG, alcperc](join[%2 = %4](sel[alcperc > x](beer), brewery))
            selected = Select(col("alcperc").gt(lit(x)), beer)
            return GroupBy(
                ["country"], AVG, "alcperc", Join(selected, brewery, col(2).eq(col(4)))
            )

        sources = set()
        for shape in (distinct_countries, avg_by_country):
            for serial in range(20):
                before = _compile_source.cache_info().misses
                # Served queries are optimized before they are planned.
                plan = plan_vector(optimize(shape(0.5 + serial * 0.25)))
                if serial:
                    assert _compile_source.cache_info().misses == before, (
                        f"{shape.__name__} plan {serial} compiled a kernel"
                    )
                sources.update(_compiled_sources(plan))
        assert len(sources) == self.ANALYTIC_COLD_SOURCES


class TestEngineWiring:
    """Session/cache/analyze/CLI smoke on the vector engine."""

    @pytest.fixture()
    def database(self, env):
        db = Database()
        for relation in env.values():
            db.create_relation(relation.schema.strict(), relation)
        return db

    def _query(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        t2 = RelationRef("t2", env["t2"].schema)
        return Project(as_attr_list([1, 4]), Join(t1, t2, col(1).eq(col(3))))

    def test_session_engines_agree_and_cache_serves(self, env, database):
        expr = self._query(env)
        reference = Session(database, use_physical_engine=False)
        physical = Session(database, cache=True)
        expected = reference.query(expr)
        assert physical.query(expr) == expected
        assert physical.query(expr) == expected  # served from cache
        assert physical.cache.stats.result_hits >= 1

    def test_engine_validation(self, database):
        from repro.language.context import ExecutionContext
        from repro.server import ServerConfig

        # The physical-engine choice is gone from sessions; where an
        # ``engine`` argument survives, only the one engine is accepted.
        with pytest.raises(TypeError):
            Session(database, engine="vector")
        with pytest.raises(ValueError):
            ExecutionContext(database.snapshot(), engine="pairs")
        with pytest.raises(ValueError):
            ServerConfig(engine="pairs")
        assert ServerConfig(engine="vector").engine == "vector"

    def test_transaction_queries_on_vector(self, env, database):
        session = Session(database)
        expr = self._query(env)
        with session.transaction() as txn:
            inside = txn.query(expr)
        assert inside == evaluate(expr, database.snapshot())

    def test_explain_analyze_annotates_vector_operators(self, env, database):
        session = Session(database)
        expr = self._query(env)
        report = session.explain_analyze(expr)
        assert report.find("v-hash-join")
        assert report.find("v-scan")
        scans = [op for op in report.operators if op.op_class == "v-scan"]
        assert {op.relation for op in scans} == {"t1", "t2"}
        assert report.result == evaluate(expr, database.snapshot())
