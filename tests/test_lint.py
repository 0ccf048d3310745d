"""Unit tests for :mod:`repro.lint` — rules, reports, sessions, plans.

The fixture corpus (:mod:`tests.test_lint_fixtures`) pins the
file-level surface; here each layer is tested directly: individual
rule firings and non-firings on built trees, report ordering and
rendering, the statement/script/SQL front ends, the Session and
interpreter gates, plan-consistency checking, and the zero-cost-off
property.
"""

from __future__ import annotations

import pytest

from repro.algebra import (
    Difference,
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
from repro.algebra.extended import ExtendedProject
from repro.database import Database
from repro.domains import INTEGER, REAL, STRING
from repro.errors import LintError
from repro.expressions import parse_expression
from repro.language import Session
from repro.lint import (
    DUPLICATE_SENSITIVE,
    Severity,
    check_plan_consistency,
    checked_optimize,
    lint_expression,
    lint_script,
    rule_catalog,
)
from repro.schema import AttrList, DatabaseSchema, RelationSchema
from repro.xra import XRAInterpreter

BEER = RelationSchema.of("beer", name=STRING, brewery=STRING, alcperc=REAL)
NUMS = RelationSchema.of("nums", a=INTEGER, b=INTEGER)


def beer():
    return RelationRef("beer", BEER)


def nums():
    return RelationRef("nums", NUMS)


# -- individual rules ---------------------------------------------------


def test_xra010_aggregate_over_distinct():
    expr = GroupBy((2,), "AVG", 3, Unique(beer()))
    assert lint_expression(expr).codes() == ["XRA010"]


def test_xra010_quiet_for_insensitive_aggregates():
    expr = GroupBy((2,), "MIN", 3, Unique(beer()))
    assert lint_expression(expr).clean


def test_xra010_quiet_without_distinct():
    expr = GroupBy((2,), "AVG", 3, beer())
    assert lint_expression(expr).clean


def test_duplicate_sensitive_set_matches_paper():
    assert "AVG" in DUPLICATE_SENSITIVE
    assert "SUM" in DUPLICATE_SENSITIVE
    assert "CNTD" not in DUPLICATE_SENSITIVE
    assert "MIN" not in DUPLICATE_SENSITIVE


def test_xra011_redundant_distinct():
    assert lint_expression(Unique(Unique(beer()))).codes() == ["XRA011"]
    grouped = Unique(GroupBy((2,), "CNT", None, beer()))
    assert lint_expression(grouped).codes() == ["XRA011"]


def test_xra011_quiet_on_plain_relation():
    assert lint_expression(Unique(beer())).clean


def test_xra011_sees_through_select_and_setops():
    inner = Select(parse_expression("%1 > 0"), Unique(nums()))
    assert lint_expression(Unique(inner)).codes() == ["XRA011"]
    diff = Difference(Unique(nums()), nums())
    assert lint_expression(Unique(diff)).codes() == ["XRA011"]
    inter = Intersect(nums(), Unique(nums()))
    assert lint_expression(Unique(inter)).codes() == ["XRA011"]


def test_xra012_distinct_union():
    expr = Union(Unique(nums()), Unique(nums()))
    assert lint_expression(expr).codes() == ["XRA012"]


def test_xra012_quiet_when_wrapped_in_unique():
    expr = Unique(Union(Unique(nums()), Unique(nums())))
    codes = lint_expression(expr).codes()
    assert "XRA012" not in codes


def test_xra013_constant_true_selection():
    expr = Select(parse_expression("1 = 1"), nums())
    assert lint_expression(expr).codes() == ["XRA013"]
    reflexive = Select(parse_expression("%2 = %2"), nums())
    assert lint_expression(reflexive).codes() == ["XRA013"]


def test_xra014_constant_false_selection():
    expr = Select(parse_expression("1 = 2"), nums())
    assert lint_expression(expr).codes() == ["XRA014"]


def test_xra015_unconstrained_product():
    assert lint_expression(Product(nums(), nums())).codes() == ["XRA015"]


def test_xra015_quiet_with_spanning_predicate_above():
    expr = Select(parse_expression("%1 = %3"), Product(nums(), nums()))
    report = lint_expression(expr)
    assert "XRA015" not in report.codes()


def test_xra015_quiet_for_join():
    expr = Join(nums(), nums(), parse_expression("%1 = %3"))
    assert lint_expression(expr).clean


def test_xra016_dead_projected_columns():
    expr = Project(AttrList([1]), Project(AttrList([1, 2]), nums()))
    report = lint_expression(expr)
    assert report.codes() == ["XRA016"]
    (finding,) = report
    assert finding.severity is Severity.INFO


def test_xra017_constant_zero_division():
    expr = ExtendedProject(["%1 / 0"], nums())
    assert lint_expression(expr).codes() == ["XRA017"]
    in_select = Select(parse_expression("%1 / 0 > 1"), nums())
    assert lint_expression(in_select).codes() == ["XRA017"]


def test_clean_expression_has_clean_report():
    expr = Select(parse_expression("%1 > 2"), nums())
    report = lint_expression(expr)
    assert report.clean and report.ok
    assert report.render() == "lint: clean (no findings)"


# -- reports ------------------------------------------------------------


def test_report_orders_errors_first_and_serializes():
    expr = Union(Unique(nums()), Unique(nums()))
    report = lint_expression(expr)
    payload = report.to_dict()
    assert payload["counts"]["warning"] == 1
    assert payload["diagnostics"][0]["code"] == "XRA012"
    assert "Theorem 3.2" in payload["diagnostics"][0]["message"]
    assert "XRA012" in report.render()


def test_rule_catalog_is_complete_and_stable():
    catalog = rule_catalog()
    codes = [code for code, _, _, _ in catalog]
    assert codes == sorted(codes)
    for expected in (
        "XRA010",
        "XRA011",
        "XRA012",
        "XRA013",
        "XRA015",
        "XRA016",
        "XRA017",
    ):
        assert expected in codes


# -- script front end ---------------------------------------------------


def test_lint_script_positions_and_ddl_tracking():
    report = lint_script(
        "create t (a: int, b: int);\n"
        "x := proj[%1](t);\n"
        "? unique(unique(x));\n"
        "drop t;\n"
        "? t;\n"
    )
    assert report.codes() == ["XRA011", "XRA004"]
    redundant, unknown = report
    assert redundant.line == 3
    assert unknown.line == 5


def test_lint_script_is_pure_static_analysis():
    db = Database()
    interpreter = XRAInterpreter(Session(db, lint="warn"))
    interpreter.run("create t (a: int);")
    # Linting a script that drops and recreates must not touch the db.
    lint_script("drop t;\n? t;", db.schema.get)
    assert "t" in db.names()


@pytest.mark.parametrize(
    "alphas, message",
    [
        ("(%1, %3)", "supplies 2 attribute expression(s) for a degree-3"),
        ("(%1, %2, %3 > 1.0)", "assignment 3 ((%3 > 1.0)) produces boolean"),
    ],
    ids=["wrong-arity", "wrong-domain"],
)
def test_lint_script_checks_update_alpha_list(alphas, message):
    schemas = DatabaseSchema([BEER])
    report = lint_script(
        f"update(beer, sel[brewery = 'Grolsch'](beer), {alphas});", schemas.get
    )
    assert report.codes() == ["XRA003"]
    assert message in report.diagnostics[0].message


# -- session gates ------------------------------------------------------


def test_session_warn_mode_records_report():
    db = Database(DatabaseSchema([BEER]))
    session = Session(db, lint="warn")
    session.query(GroupBy((2,), "AVG", 3, Unique(beer())))
    assert session.last_lint is not None
    assert session.last_lint.codes() == ["XRA010"]


def test_session_strict_mode_blocks_error_statements():
    db = Database(DatabaseSchema([BEER]))
    session = Session(db, lint="strict")
    from repro.language.statements import Insert

    with pytest.raises(LintError) as caught:
        session.run([Insert("nosuch", beer())])
    assert "XRA004" in str(caught.value)
    assert caught.value.report.codes() == ["XRA004"]


def test_session_strict_mode_allows_warnings():
    db = Database(DatabaseSchema([BEER]))
    session = Session(db, lint="strict")
    result = session.query(Unique(Unique(beer())))
    assert result is not None
    assert session.last_lint.codes() == ["XRA011"]


def test_session_lint_mode_validation():
    db = Database()
    session = Session(db)
    assert session.lint_mode is None
    assert session.set_lint(True) == "warn"
    assert session.set_lint("strict") == "strict"
    assert session.set_lint("off") is None
    with pytest.raises(ValueError):
        session.set_lint("loud")


def test_interpreter_strict_mode_blocks_whole_script():
    db = Database()
    interpreter = XRAInterpreter(Session(db, lint="strict"))
    interpreter.run("create t (a: int);")
    with pytest.raises(LintError):
        interpreter.run(
            "insert(t, tuples[(1)]);\n? sel[%9 = 1](t);"
        )
    # Strict linting refused *before* executing anything: no insert.
    assert len(db["t"]) == 0


# -- plan consistency ---------------------------------------------------


def test_plan_check_clean_on_real_optimizer():
    expr = Select(
        parse_expression("%1 = %3 and %2 > 1"), Product(nums(), nums())
    )
    from repro.optimizer import optimize

    report = check_plan_consistency(expr, optimize(expr))
    assert report.clean


def test_plan_check_catches_schema_divergence():
    source = Project(AttrList([1, 2]), nums())
    broken = Project(AttrList([1]), nums())
    report = check_plan_consistency(source, broken)
    assert "XRA020" in report.codes()
    assert not report.ok


def test_checked_optimize_raises_on_broken_optimizer():
    def drop_a_column(expr):
        return Project(AttrList([1]), expr)

    with pytest.raises(LintError) as caught:
        checked_optimize(nums(), drop_a_column)
    assert "XRA020" in str(caught.value)


def test_checked_optimize_passes_sound_optimizer():
    expr = Select(parse_expression("%1 > 0"), nums())
    optimized = checked_optimize(expr)
    assert optimized.schema.compatible_with(expr.schema)


def test_strict_session_never_adopts_a_shared_unchecked_plan(monkeypatch):
    """A plan made without the consistency check is not served to a
    strict session sharing the cache: it plans (and checks) its own."""
    import repro.lint
    from repro.cache import QueryCache
    from repro.lint import Diagnostic, LintReport
    from repro.lint import plan_check

    db = Database(DatabaseSchema([BEER]))
    cache = QueryCache()
    expr = Select(parse_expression("%3 > 5.0"), beer())
    Session(db, cache=cache, lint="warn").query(expr)
    failing = LintReport([Diagnostic("XRA020", Severity.ERROR, "forced")])
    for module in (plan_check, repro.lint):
        monkeypatch.setattr(module, "check_plan_consistency", lambda *_: failing)
    with pytest.raises(LintError):
        Session(db, lint="strict").query(expr)
    with pytest.raises(LintError):
        Session(db, cache=cache, lint="strict").query(expr)
    # Analyze mode plans cost-based with its catalog, checked all the same.
    with pytest.raises(LintError):
        Session(db, lint="strict", analyze=True).query(expr)


# -- off is free --------------------------------------------------------


def test_lint_off_adds_no_per_query_work():
    """With lint off, the only cost is one attribute check per query."""
    db = Database(DatabaseSchema([BEER]))
    session = Session(db)
    assert session.lint_mode is None
    # The optimizer plans are made with is the raw pipeline, unwrapped.
    from repro.optimizer import optimize

    assert session.context().optimizer is optimize
    session.query(beer())
    assert session.last_lint is None


def test_lint_metrics_flow_through_obs():
    from repro import obs

    obs.enable()
    try:
        lint_expression(Unique(Unique(nums())))
        registry = obs.metrics()
        assert registry.total("lint.runs") >= 1
        assert registry.value("lint.findings", code="XRA011") >= 1
    finally:
        obs.disable()
