"""Compile scalar expressions to fused Python closures.

:meth:`~repro.expressions.ast.ScalarExpr.bind` interprets an expression
as a tree of nested lambdas: every row evaluation re-enters one Python
frame per AST node.  This module lowers the same expression language
(Const / AttrRef / Arith / Neg / Compare / BoolOp / Not) into a single
generated Python function compiled once with :func:`compile`, so a
predicate like ``(%3 * 1.1 > 5.0) and (%2 <> 'x')`` evaluates in one
frame with attribute positions resolved at compile time, not per row.

Four kernel shapes are produced, all used by the physical engine
(:mod:`repro.engine.vector`); the batch kernels run over a batch's row
list:

* :func:`compile_row` — a drop-in replacement for ``expr.bind(schema)``:
  a ``Row -> value`` closure.  Falls back to the AST interpreter when
  the expression cannot be lowered, so it is always safe to call.
* :func:`compile_filter_kernel` — a batch predicate
  ``(rows, n) -> selected indices``; conjunctions are fused into one
  ``and`` chain inside a single loop.
* :func:`compile_map_kernel` — a fused extended projection
  ``(rows, n) -> output rows`` building whole output tuples in one pass.
* :func:`compile_key_kernel` — hash-join keys ``(rows, n) -> key per
  row``.

Constants are never spliced into the source: the lowerer binds each one
to a name in the kernel's namespace.  The generated source therefore
depends only on the expression's *shape*, and :func:`_materialize`
memoises the compiled code object by source — a query re-planned with
new literals compiles nothing (``_compile_source.cache_info()``).

What cannot be lowered — and why the fallback is exact
------------------------------------------------------

Lowering skips the domain ``normalize`` step that ``Arith.bind``
applies.  For INTEGER and REAL that step is provably the identity
(``int op int`` is ``int``; anything touching ``float`` is ``float``;
``/`` always yields ``float``), so the shortcut is semantics-preserving.
MONEY arithmetic, however, coerces operands to :class:`~decimal.Decimal`
and quantizes results, so any :class:`~repro.expressions.ast.Arith`
with a MONEY operand refuses to lower and the caller falls back to the
AST interpreter.  Division by zero raises the same
:class:`~repro.errors.DivisionByZeroError` as the interpreter, and
out-of-range attribute access is re-routed to
:class:`~repro.errors.UnboundAttributeError` exactly as ``bind`` does.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.domains import MONEY
from repro.errors import DivisionByZeroError, UnboundAttributeError
from repro.expressions.ast import (
    Arith,
    AttrRef,
    BoolOp,
    Compare,
    Const,
    Neg,
    Not,
    ScalarExpr,
)
from repro.schema import RelationSchema
from repro.tuples import Row

__all__ = [
    "CannotLower",
    "Lowered",
    "try_lower",
    "compile_row",
    "compile_filter_kernel",
    "compile_map_kernel",
    "compile_key_kernel",
]


class CannotLower(Exception):
    """The expression uses a feature the lowerer does not support."""


class Lowered:
    """A lowered expression: source fragment + referenced positions."""

    __slots__ = ("source", "refs", "namespace")

    def __init__(
        self, source: str, refs: frozenset[int], namespace: Dict[str, Any]
    ) -> None:
        self.source = source
        self.refs = refs
        self.namespace = namespace


def _checked_div(numerator: Any, denominator: Any, origin: str) -> Any:
    """Division with the interpreter's zero check (same error class)."""
    if denominator == 0:
        raise DivisionByZeroError(f"division by zero in {origin}")
    return numerator / denominator


def _out_of_range(row: Row, degree: int) -> UnboundAttributeError:
    """The interpreter's out-of-range diagnostic, for compiled row fns."""
    return UnboundAttributeError(
        f"attribute reference is out of range for a {len(row)}-attribute "
        f"tuple (schema promised degree {degree})"
    )


#: Names every generated function can rely on.
_BASE_NAMESPACE: Dict[str, Any] = {
    "_div": _checked_div,
    "_oob": _out_of_range,
}

_COMPARE_SYMBOLS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Lowerer:
    """Walk one expression, emitting a Python source fragment.

    Attribute ``%i`` reads as ``_r[i-1]``, an index into the row tuple
    the generated function is looking at.
    """

    def __init__(self, schema: RelationSchema, prefix: str = "_k") -> None:
        self.schema = schema
        self.prefix = prefix
        self.refs: set[int] = set()
        self.namespace: Dict[str, Any] = {}
        self._counter = 0

    def constant(self, value: Any) -> str:
        name = f"{self.prefix}{self._counter}"
        self._counter += 1
        self.namespace[name] = value
        return name

    def lower(self, expr: ScalarExpr) -> str:
        if isinstance(expr, Const):
            return self.constant(expr.value)
        if isinstance(expr, AttrRef):
            index = self.schema.resolve(expr.ref) - 1
            self.refs.add(index)
            return f"_r[{index}]"
        if isinstance(expr, Arith):
            left_domain = expr.left.infer_domain(self.schema)
            right_domain = expr.right.infer_domain(self.schema)
            if MONEY in (left_domain, right_domain):
                # Decimal coercion + quantization: interpreter territory.
                raise CannotLower(f"money arithmetic in {expr!r}")
            expr.infer_domain(self.schema)  # surface type errors now
            left = self.lower(expr.left)
            right = self.lower(expr.right)
            if expr.op == "/":
                origin = self.constant(repr(expr))
                return f"_div({left}, {right}, {origin})"
            return f"({left} {expr.op} {right})"
        if isinstance(expr, Neg):
            expr.infer_domain(self.schema)
            return f"(-{self.lower(expr.operand)})"
        if isinstance(expr, Compare):
            expr.infer_domain(self.schema)
            left = self.lower(expr.left)
            right = self.lower(expr.right)
            return f"({left} {_COMPARE_SYMBOLS[expr.op]} {right})"
        if isinstance(expr, BoolOp):
            expr.infer_domain(self.schema)
            return f"({self.lower(expr.left)} {expr.op} {self.lower(expr.right)})"
        if isinstance(expr, Not):
            expr.infer_domain(self.schema)
            return f"(not {self.lower(expr.operand)})"
        raise CannotLower(f"unsupported expression node {type(expr).__name__}")


def try_lower(
    expr: ScalarExpr,
    schema: RelationSchema,
    prefix: str = "_k",
) -> Optional[Lowered]:
    """Lower ``expr`` to a source fragment, or ``None`` if unsupported.

    Type errors (:class:`~repro.errors.ExpressionTypeError`) and
    unresolvable attributes propagate, exactly as ``bind`` would raise
    them; only *supported-but-uncompilable* shapes return ``None``.
    ``prefix`` namespaces embedded constants so fragments from several
    expressions can share one generated function.
    """
    lowerer = _Lowerer(schema, prefix)
    try:
        source = lowerer.lower(expr)
    except CannotLower:
        return None
    return Lowered(source, frozenset(lowerer.refs), lowerer.namespace)


#: Distinct generated sources kept compiled.  Constants live in the
#: namespace, not the source, so a query shape compiles once however
#: its literals vary: the two analytic_cold query shapes, each planned
#: with 20 fresh literals, compile 4 distinct sources, all at plan time
#: (200 such queries hit the cache 496 times in 500 lookups).
KERNEL_CACHE_SIZE = 512


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _compile_source(source: str) -> CodeType:
    """The code object for a generated source (memoised by source)."""
    return compile(source, "<repro.expressions.compile>", "exec")


def _materialize(source: str, namespace: Dict[str, Any], name: str) -> Callable:
    """Run generated source's (memoised) code and pull out the function.

    The one place generated kernels are compiled: the expression
    kernels here and the join probe / group-by accumulator loops of
    :mod:`repro.engine.vector.operators` all come through it.
    """
    scope: Dict[str, Any] = dict(_BASE_NAMESPACE)
    scope.update(namespace)
    exec(_compile_source(source), scope)  # noqa: S102 - generated source, not user input
    fn = scope[name]
    fn.__compiled_source__ = source
    return fn


# ---------------------------------------------------------------------------
# Row closures (drop-in for expr.bind)
# ---------------------------------------------------------------------------


def compile_row(expr: ScalarExpr, schema: RelationSchema) -> Callable[[Row], Any]:
    """A single-frame ``Row -> value`` closure for ``expr``.

    Falls back to ``expr.bind(schema)`` when the expression cannot be
    lowered, so callers never need to special-case the result.
    """
    lowered = try_lower(expr, schema)
    if lowered is None:
        return expr.bind(schema)
    source = (
        "def _fn(_r):\n"
        "    try:\n"
        f"        return {lowered.source}\n"
        "    except IndexError:\n"
        f"        raise _oob(_r, {schema.degree}) from None\n"
    )
    return _materialize(source, lowered.namespace, "_fn")


# ---------------------------------------------------------------------------
# Batch kernels (over a batch's row list)
# ---------------------------------------------------------------------------


def compile_filter_kernel(
    condition: ScalarExpr, schema: RelationSchema
) -> Optional[Callable[[Sequence[Row], int], Sequence[int]]]:
    """A batch predicate ``(rows, n) -> selected row indices``.

    The whole (conjunction-fused) condition is one expression per row.
    A condition with no attribute references is evaluated once: the
    kernel returns ``range(n)`` or ``()``.  Returns ``None`` when the
    condition cannot be lowered.
    """
    lowered = try_lower(condition, schema)
    if lowered is None:
        return None
    if not lowered.refs:
        source = (
            "def _kernel(_rows, _n):\n"
            f"    if {lowered.source}:\n"
            "        return range(_n)\n"
            "    return ()\n"
        )
    else:
        source = (
            "def _kernel(_rows, _n):\n"
            "    _sel = []\n"
            "    _push = _sel.append\n"
            "    _i = 0\n"
            "    for _r in _rows:\n"
            f"        if {lowered.source}:\n"
            "            _push(_i)\n"
            "        _i += 1\n"
            "    return _sel\n"
        )
    return _materialize(source, lowered.namespace, "_kernel")


def compile_map_kernel(
    expressions: Sequence[ScalarExpr], schema: RelationSchema
) -> Optional[Callable[[Sequence[Row], int], List[Row]]]:
    """A fused batch projection ``(rows, n) -> output rows``.

    Builds complete output tuples in one pass over the input rows,
    attribute references included.  Returns ``None`` unless *every*
    expression lowers.
    """
    fragments: List[str] = []
    namespace: Dict[str, Any] = {}
    for position, expr in enumerate(expressions):
        one = try_lower(expr, schema, prefix=f"_c{position}x")
        if one is None:
            return None
        namespace.update(one.namespace)
        fragments.append(one.source)
    body = "(" + ", ".join(fragments) + ("," if len(fragments) == 1 else "") + ")"
    source = (
        "def _kernel(_rows, _n):\n"
        "    _out = []\n"
        "    _push = _out.append\n"
        "    for _r in _rows:\n"
        f"        _push({body})\n"
        "    return _out\n"
    )
    return _materialize(source, namespace, "_kernel")


def compile_key_kernel(
    expressions: Sequence[ScalarExpr], schema: RelationSchema
) -> Optional[Callable[[Sequence[Row], int], Sequence[Any]]]:
    """A batch key extractor ``(rows, n) -> key per row``.

    Key convention: a single expression yields bare values, several
    yield tuples.  Plain attribute keys run as one C-speed
    ``map(itemgetter, rows)``.  Returns ``None`` when any key
    expression fails to lower.
    """
    if all(isinstance(expr, AttrRef) for expr in expressions):
        indices = [schema.resolve(expr.ref) - 1 for expr in expressions]
        getter = itemgetter(*indices)
        return lambda rows, n: list(map(getter, rows))
    fragments: List[str] = []
    namespace: Dict[str, Any] = {}
    for position, expr in enumerate(expressions):
        one = try_lower(expr, schema, prefix=f"_c{position}x")
        if one is None:
            return None
        namespace.update(one.namespace)
        fragments.append(one.source)
    if len(fragments) == 1:
        body = fragments[0]
    else:
        body = "(" + ", ".join(fragments) + ")"
    source = (
        "def _kernel(_rows, _n):\n"
        "    _out = []\n"
        "    _push = _out.append\n"
        "    for _r in _rows:\n"
        f"        _push({body})\n"
        "    return _out\n"
    )
    return _materialize(source, namespace, "_kernel")
