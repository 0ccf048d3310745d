"""Plan-consistency checking: schema inference re-run on optimized trees.

The optimizer promises logical equivalence; this module checks the
cheap, statically decidable half of that promise.  Every algebra node
infers its schema at construction, so re-building each node of an
optimized tree from its own children re-runs the full schema/type
inference pass — any rewrite that produced a node whose stored schema
disagrees with what its constructor would infer (or that cannot be
re-constructed at all) is caught here, as is an optimized tree whose
root schema diverges from the source tree's.

Used two ways:

* :func:`check_plan_consistency` — the raw report, for tools;
* :func:`checked_optimize` — the optimizer pipeline gated on the check,
  raising :class:`~repro.errors.LintError` on error findings; a
  strict-lint :class:`~repro.language.Session` plans with it, so the
  check runs on every plan it builds.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional

from repro.algebra import AlgebraExpr, LiteralRelation, RelationRef
from repro.errors import LintError, ReproError
from repro.lint.analysis import operator_path, walk
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro import obs

__all__ = ["check_plan_consistency", "checked_optimize"]


def check_plan_consistency(
    source: AlgebraExpr, optimized: AlgebraExpr
) -> LintReport:
    """Cross-check an optimized tree against its source tree.

    * **XRA020** (error): the optimized root's schema is not
      domain-compatible with the source root's — the rewriter changed
      what the expression computes.
    * **XRA021** (error): some node inside the optimized tree is
      internally inconsistent — re-running schema inference on its own
      children yields a different schema, or construction fails
      outright.
    """
    diagnostics = []
    if not optimized.schema.compatible_with(source.schema):
        diagnostics.append(
            Diagnostic(
                "XRA020",
                Severity.ERROR,
                "optimized plan schema "
                f"{optimized.schema} diverges from the source plan "
                f"schema {source.schema}",
                hint="an optimizer rule rewrote the tree unsoundly; "
                "run with use_optimizer=False to bypass",
            )
        )
    for node, parents in walk(optimized):
        if isinstance(node, (RelationRef, LiteralRelation)):
            continue
        try:
            rebuilt = node.with_children(list(node.children()))
        except ReproError as error:
            diagnostics.append(
                Diagnostic(
                    "XRA021",
                    Severity.ERROR,
                    f"optimized node {node.operator_name()} does not "
                    f"re-typecheck against its own children: {error}",
                    path=operator_path(node, parents),
                )
            )
            continue
        if not rebuilt.schema.compatible_with(node.schema):
            diagnostics.append(
                Diagnostic(
                    "XRA021",
                    Severity.ERROR,
                    f"optimized node {node.operator_name()} carries "
                    f"schema {node.schema} but inference over its "
                    f"children yields {rebuilt.schema}",
                    path=operator_path(node, parents),
                )
            )
    report = LintReport(diagnostics)
    obs.add("lint.plan_checks")
    for diagnostic in report:
        obs.add("lint.findings", 1, code=diagnostic.code)
    return report


def checked_optimize(
    expr: AlgebraExpr,
    optimizer: Optional[Callable[[AlgebraExpr], AlgebraExpr]] = None,
    catalog: Optional[Any] = None,
    trace: Optional[List[Any]] = None,
) -> AlgebraExpr:
    """Optimize ``expr`` and gate the result on plan consistency.

    Raises :class:`~repro.errors.LintError` when the consistency check
    finds error-severity problems; otherwise returns the optimized tree
    unchanged.  With no ``optimizer`` supplied, the default pipeline
    (:func:`repro.optimizer.optimize`) runs with ``catalog`` and
    ``trace``, so a strict session's cost-based plans are checked too.
    """
    if optimizer is None:
        from repro.optimizer import optimize

        optimizer = partial(optimize, catalog=catalog, trace=trace)
    optimized = optimizer(expr)
    report = check_plan_consistency(expr, optimized)
    if not report.ok:
        raise LintError(report)
    return optimized
