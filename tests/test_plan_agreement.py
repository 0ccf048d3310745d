"""What EXPLAIN shows is what runs.

Every way the shell shows or runs a query — ``.explain``, ``.profile``,
:meth:`Session.explain_analyze` and ``?E`` — must use one plan: the
one :meth:`Session.plan` returns.  For each input, in a default
session, a cached session and an analyze-mode session, the test
collects the fingerprint and the physical plan each command showed or
handed to ``collect_batches``, and asserts there is one of each.

Inputs: the differential corpus (:mod:`repro.testing.exprgen`, 40
seeds), the product-of-products case on which ``.explain`` once showed
a catalog-reordered tree that ``?E`` did not run, and the two
``analytic_cold`` query shapes of ``benchmarks/e2e``.
"""

from __future__ import annotations

import io

import pytest

import repro.engine.planner
import repro.engine.vector
import repro.xra.interp
from repro.cli import Shell
from repro.database import Database
from repro.errors import ReproError
from repro.language import ExecutionContext, Query, Session
from repro.testing import ExpressionGenerator, random_environment
from repro.workloads import tiny_beer_database
from repro.xra.parser import StatementItem
from tests.test_differential import SEEDS

#: XRA queries over the tiny beer database.
BEER_QUERIES = {
    "product-of-products": "product(product(beer, brewery), beer)",
    "gamma-avg-over-join": (
        "groupby[(country), AVG, alcperc]"
        "(join[%2 = %4](sel[alcperc > 5.0](beer), brewery))"
    ),
    "distinct-over-join": "unique(proj[%6](sel[%3 > 4.4](join[%2 = %4](beer, brewery))))",
}

MODES = ["default", "cache", "analyze"]


class Recorder:
    """Spies on the plans handed out and the plans run."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.plans: list = []
        self.ran: list = []
        for owner in (Session, ExecutionContext):
            self._spy_plan(monkeypatch, owner)
        real_collect = repro.engine.vector.collect_batches

        def collect(physical, env):
            self.ran.append(physical)
            return real_collect(physical, env)

        for module in (repro.engine.planner, repro.engine.vector):
            monkeypatch.setattr(module, "collect_batches", collect)

    def _spy_plan(self, monkeypatch: pytest.MonkeyPatch, owner: type) -> None:
        real_plan = owner.plan

        def plan(instance, expr):
            made = real_plan(instance, expr)
            self.plans.append(made)
            return made

        monkeypatch.setattr(owner, "plan", plan)

    def start(self) -> None:
        self.plans.clear()
        self.ran.clear()

    def run_plan(self):
        """The one plan run since :meth:`start`, found by its physical tree."""
        [physical] = self.ran
        handed_out = [plan for plan in self.plans if plan.physical is physical]
        assert handed_out, "ran a plan that Session.plan did not hand out"
        return handed_out[0]


def printed(out: io.StringIO, label: str) -> str:
    [line] = [line for line in out.getvalue().splitlines() if line.startswith(label)]
    return line[len(label):].strip()


def shown_plans(shell: Shell, expr, text: str, recorder: Recorder):
    """(fingerprint, physical explain) per command, for one query."""
    shown = {}
    out = shell.out = io.StringIO()
    recorder.start()
    shell.handle_meta(f".explain {text}")
    physical = out.getvalue().split("physical:\n", 1)[1]
    shown[".explain"] = (printed(out, "fingerprint:"), physical.rstrip("\n"))

    out = shell.out = io.StringIO()
    recorder.start()
    shell.handle_meta(f".profile {text}")
    plan = recorder.run_plan()
    assert printed(out, "fingerprint:") == plan.fingerprint
    shown[".profile"] = (plan.fingerprint, plan.physical.explain(indent=1))

    recorder.start()
    # In analyze mode a recorded run re-plans later queries by design
    # (the feedback loop), so there this run leaves the catalog be.
    record = not shell.session.analyze
    try:
        fingerprint = shell.session.explain_analyze(expr, record).fingerprint
    except ReproError:  # a partial aggregate over an empty bag
        fingerprint = recorder.run_plan().fingerprint
    plan = recorder.run_plan()
    shown["explain_analyze"] = (fingerprint, plan.physical.explain(indent=1))

    recorder.start()
    shell.execute_xra(f"? {text};")
    plan = recorder.run_plan()
    shown["?E"] = (plan.fingerprint, plan.physical.explain(indent=1))
    return shown


def make_shell(database: Database, mode: str) -> Shell:
    shell = Shell(database, out=io.StringIO(), err=io.StringIO())
    if mode == "cache":
        shell.session.set_cache(True)
    elif mode == "analyze":
        shell.session.set_analyze(True)
    return shell


def assert_one_plan(shown) -> None:
    fingerprints = {fingerprint for fingerprint, _ in shown.values()}
    physicals = {physical for _, physical in shown.values()}
    assert len(fingerprints) == 1, shown
    assert len(physicals) == 1, shown


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(BEER_QUERIES))
def test_beer_queries_show_the_plan_that_runs(monkeypatch, name, mode):
    recorder = Recorder(monkeypatch)
    shell = make_shell(tiny_beer_database(), mode)
    text = BEER_QUERIES[name]
    expr = shell._parse_single_query(text)
    assert_one_plan(shown_plans(shell, expr, text, recorder))


def test_explain_shows_the_product_order_that_runs():
    out = io.StringIO()
    shell = Shell(tiny_beer_database(), out=out, err=io.StringIO())
    shell.handle_meta(".explain product(product(beer, brewery), beer)")
    assert "optimized: ((beer × brewery) × beer)" in out.getvalue()


@pytest.fixture(scope="module")
def corpus_database() -> Database:
    database = Database()
    env = random_environment(tables=3, size=50, degree=2, value_space=5, seed=7)
    for relation in env.values():
        database.create_relation(relation.schema.strict(), relation)
    return database


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_shows_the_plan_that_runs(monkeypatch, corpus_database, seed, mode):
    recorder = Recorder(monkeypatch)
    env = dict(corpus_database.as_env())
    expr = ExpressionGenerator(env, seed=seed, max_depth=5).expression()
    shell = make_shell(corpus_database, mode)
    # Generated trees have no XRA text; the shell parses every command's
    # text to this tree instead.
    monkeypatch.setattr(shell, "_parse_single_query", lambda _text: expr)
    monkeypatch.setattr(
        repro.xra.interp,
        "parse_script",
        lambda _text, _schema: [StatementItem(Query(expr))],
    )
    assert_one_plan(shown_plans(shell, expr, f"seed {seed}", recorder))
