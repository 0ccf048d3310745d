"""Differential fuzzing: the physical engine and the optimizer must agree.

Random well-typed expression trees are generated over small integer
relations; for each tree we require

    evaluate(e) == execute(e) == evaluate(optimize(e)) == execute(optimize(e))

which simultaneously exercises the reference evaluator, the physical
planner/operators, and every rewrite rule the optimizer fires.  The
corpus runs at the default batch size here and at ``TINY_BATCH`` in
``tests/test_vector_engine.py`` (through :func:`assert_corpus_agrees`),
so chunk-boundary bugs cannot hide behind "fits in one batch".

Hand-built cases then force the operators the generator rarely reaches
— ×, θ-join, and the transitive-closure extension — inside a plan, and
check that every node of each plan is a batch operator.
"""

import pytest

from repro.algebra import Join, Product, RelationRef, Select, Union
from repro.engine import evaluate, execute
from repro.engine.vector import (
    DEFAULT_BATCH_SIZE,
    VExtensionOp,
    VNestedLoopJoinOp,
    VectorOp,
    collect_batches,
    plan_vector,
)
from repro.errors import EmptyAggregateError
from repro.expressions import col, lit
from repro.extensions import TransitiveClosure
from repro.optimizer import optimize
from repro.testing import ExpressionGenerator, random_environment

SEEDS = list(range(40))

#: A batch size small enough that every 50-row table spans several
#: batches.
TINY_BATCH = 7


@pytest.fixture(scope="module")
def env():
    return random_environment(tables=3, size=50, degree=2, value_space=5, seed=7)


def _run(expr, env, batch_size):
    if batch_size == DEFAULT_BATCH_SIZE:
        return execute(expr, env)
    return collect_batches(plan_vector(expr, batch_size), env)


def assert_corpus_agrees(env, seed, batch_size=DEFAULT_BATCH_SIZE):
    """Generated tree ``seed``: engine == reference, raw and optimized."""
    generator = ExpressionGenerator(env, seed=seed, max_depth=5)
    expr = generator.expression()
    try:
        reference = evaluate(expr, env)
    except EmptyAggregateError:
        # Partial aggregates on an empty bag are defined behaviour
        # (Definition 3.3); the engine must refuse alike.
        with pytest.raises(EmptyAggregateError):
            _run(expr, env, batch_size)
        return
    assert _run(expr, env, batch_size) == reference, (
        f"physical != reference for {expr!r}"
    )
    optimized = optimize(expr)
    assert evaluate(optimized, env) == reference, (
        f"optimizer changed semantics for {expr!r}"
    )
    assert _run(optimized, env, batch_size) == reference, (
        f"physical diverges on optimized {expr!r}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_and_optimizer_agree(env, seed):
    assert_corpus_agrees(env, seed)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_generated_trees_are_nontrivial(env, seed):
    generator = ExpressionGenerator(env, seed=seed, max_depth=5)
    # At least some generated trees must contain real operator structure.
    sizes = [generator.expression().node_count() for _ in range(10)]
    assert max(sizes) >= 3


def _forced_cases(env):
    t1, t2, t3 = (RelationRef(name, env[name].schema) for name in ("t1", "t2", "t3"))
    closure = TransitiveClosure(t3, 1, 2)
    return {
        "product-in-union": Union(
            Product(t1, t2).project([1, 4]), Product(t2, t1).project([1, 4])
        ),
        "theta-join-under-select": Select(
            col(2).ge(lit(2)), Join(t1, t2, col(1).lt(col(4)))
        ),
        "closure-joined": Join(closure, t1, col(2).eq(col(3))),
        "closure-under-product": Product(closure, Select(col(1).eq(lit(1)), t2)),
    }


FORCED_CASE_NAMES = sorted(
    _forced_cases(random_environment(tables=3, size=2, degree=2, seed=7))
)


def _nodes(op):
    yield op
    for child in op.children():
        yield from _nodes(child)


@pytest.mark.parametrize("name", FORCED_CASE_NAMES)
@pytest.mark.parametrize("batch_size", [DEFAULT_BATCH_SIZE, TINY_BATCH])
def test_forced_operators_agree_and_stay_batched(env, name, batch_size):
    expr = _forced_cases(env)[name]
    plan = plan_vector(expr, batch_size)
    nodes = list(_nodes(plan))
    assert all(isinstance(node, VectorOp) for node in nodes)
    assert any(isinstance(node, (VNestedLoopJoinOp, VExtensionOp)) for node in nodes)
    assert collect_batches(plan, env) == evaluate(expr, env)
