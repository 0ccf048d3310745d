"""The per-operator counter record and the views folded from it.

Operators are counted in one place — ``child_batches``, where one
operator's batches are handed to the next — into one record per
operator.  The profiler, EXPLAIN ANALYZE, the ``operator.*`` metrics and
the resource account are folds over one run's records, so on every plan
of the differential corpus they must agree with each other.
"""

import sys
import threading
from functools import partial

import pytest

from repro import obs
from repro.algebra import Join, RelationRef, Select
from repro.engine import evaluate
from repro.engine import vector
from repro.engine.profiler import execute_profiled, metered, plan_records
from repro.engine.vector import DEFAULT_BATCH_SIZE, collect_batches, plan_vector
from repro.errors import EmptyAggregateError
from repro.expressions import col, lit
from repro.language.session import Session
from repro.obs.analyze import analyze
from repro.obs.telemetry import ResourceAccount, activate
from repro.optimizer import optimize
from repro.testing import ExpressionGenerator, random_environment
from repro.workloads import tiny_beer_database
from tests.test_differential import SEEDS, TINY_BATCH


@pytest.fixture(autouse=True)
def _reset_obs():
    yield
    obs.reset()


@pytest.fixture(scope="module")
def env():
    return random_environment(tables=3, size=50, degree=2, value_space=5, seed=7)


def _corpus_expr(env, seed):
    return ExpressionGenerator(env, seed=seed, max_depth=5).expression()


def _preorder(op):
    yield op
    for child in op.children():
        yield from _preorder(child)


def test_metrics_only_mode_records_physical_operators():
    registry = obs.enable_metrics()
    session = Session(tiny_beer_database())
    beer = session.relation("beer")
    session.query(beer.project(["%2"]).distinct())
    for op in ("v-scan", "v-distinct"):
        assert registry.value("operator.rows", op=op) > 0
        assert registry.value("operator.pairs", op=op) > 0


@pytest.mark.parametrize("batch_size", [DEFAULT_BATCH_SIZE, TINY_BATCH])
@pytest.mark.parametrize("seed", SEEDS)
def test_views_of_one_run_agree(env, seed, batch_size, monkeypatch):
    expr = _corpus_expr(env, seed)
    try:
        reference = evaluate(expr, env)
    except EmptyAggregateError:
        pytest.skip("partial aggregate over an empty bag")
    monkeypatch.setattr(vector, "plan_vector", partial(plan_vector, batch_size=batch_size))
    registry = obs.enable_metrics()
    acct = ResourceAccount()
    with activate(acct):
        report = analyze(expr, env, use_optimizer=False)
    assert report.result == reference
    operators = report.operators

    # The account and the metrics settled from the same records.
    scans = [op for op in operators if op.op_class == "v-scan"]
    deltas = [op for op in operators if op.op_class == "v-distinct"]
    assert acct.rows_scanned == sum(op.rows for op in scans)
    assert acct.dedup_rows_in == sum(op.rows_in for op in deltas)
    assert acct.dedup_rows_out == sum(op.rows for op in deltas)
    assert acct.batches_vectorized == sum(op.batches for op in operators)
    assert registry.total("operator.rows") == report.total_rows
    assert registry.total("operator.pairs") == sum(op.pairs for op in operators)

    # A profiled run of the same plan shape counts the same numbers.
    _result, profile = execute_profiled(expr, env)
    assert [(p.label, p.rows, p.pairs, p.invocations) for p in profile.profiles] == [
        (op.label, op.rows, op.pairs, op.invocations) for op in operators
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_plan_operators_are_distinct_objects(env, seed):
    # Records are keyed by operator identity, so no operator object may
    # sit at two positions of one plan.
    expr = _corpus_expr(env, seed)
    for plan in (plan_vector(expr), plan_vector(optimize(expr))):
        ids = [id(op) for op in _preorder(plan)]
        assert len(ids) == len(set(ids))


def test_threads_running_one_cached_plan_keep_their_own_records(env):
    # Operators hold no counters, so threads sharing a plan-cache plan
    # each see exactly their own run's numbers.
    t1, t2 = (RelationRef(name, env[name].schema) for name in ("t1", "t2"))
    plan = plan_vector(Join(t1, t2, col(1).eq(col(3))).distinct(), batch_size=TINY_BATCH)
    with metered() as meter:
        collect_batches(plan, env)
    expected = [(r.rows, r.pairs, r.batches, r.invocations) for r in plan_records(plan, meter)]
    mismatches = []

    def run():
        for _ in range(20):
            with metered() as own:
                collect_batches(plan, env)
            got = [(r.rows, r.pairs, r.batches, r.invocations) for r in plan_records(plan, own)]
            if got != expected:
                mismatches.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_unopened_probe_side_reports_zero_invocations():
    db = tiny_beer_database()
    env = dict(db.as_env())
    beer = RelationRef("beer", env["beer"].schema)
    brewery = RelationRef("brewery", env["brewery"].schema)
    nowhere = Select(col(1).eq(lit("nowhere")), brewery)
    _result, profile = execute_profiled(Join(beer, nowhere, col(2).eq(col(4))), env)
    join = profile.profiles[0]
    assert join.op_class == "v-hash-join"
    probe, build = (profile.profiles[index] for index in join.child_indexes)
    assert build.invocations == 1 and build.rows == 0
    assert probe.invocations == 0 and probe.label == "v-scan beer"
    assert "v-scan beer" in str(profile)


def test_account_around_explain_analyze_gets_its_scans():
    session = Session(tiny_beer_database())
    beer = session.relation("beer")
    brewery = session.relation("brewery")
    acct = ResourceAccount()
    with activate(acct):
        report = session.explain_analyze(beer.join(brewery, "%2 = %4"))
    assert acct.rows_scanned == 10
    assert acct.rows_scanned == sum(
        op.rows for op in report.operators if op.op_class == "v-scan"
    )


def test_shared_evaluator_node_adds_to_one_record():
    # ``beer`` is one object at two positions: its record sums both
    # evaluations, and δ's input is still one evaluation's rows.
    db = tiny_beer_database()
    beer = RelationRef("beer", db.schema.get("beer"))
    expr = beer.distinct().union(beer)
    acct = ResourceAccount()
    with activate(acct), metered() as meter:
        evaluate(expr, dict(db.as_env()))
    assert meter[id(beer)].invocations == 2
    assert meter[id(beer)].rows == 12
    assert acct.rows_scanned == 12
    assert (acct.dedup_rows_in, acct.dedup_rows_out) == (6, 6)
