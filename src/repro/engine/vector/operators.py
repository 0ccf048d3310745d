"""Batch-at-a-time physical operators over :class:`Batch` chunks.

The one physical executor.  Every operator implements the bag semantics
of its algebra operator exactly — the differential corpus
(``tests/test_differential.py``) pins results to the reference
evaluator.  Predicates, projections, and key extraction run as compiled
batch kernels (:mod:`repro.expressions.compile`) over a batch's row
list, falling back to the AST interpreter row path when an expression
cannot be lowered (MONEY arithmetic, extension expressions).

Operators exchange only :class:`Batch` chunks, and every stream is
pulled through :func:`child_batches`, where the profiler's meter counts
it.  Extension nodes (transitive closure) batch the relation the
reference evaluator computes for them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aggregates import AggregateFunction, Count, Sum
from repro.domains import INTEGER
from repro.engine.profiler import Meter, active_meter, record_of
from repro.engine.vector.batch import (
    Batch,
    DEFAULT_BATCH_SIZE,
    batches_from_lists,
)
from repro.errors import UnboundAttributeError, UnknownRelationError
from repro.expressions import ScalarExpr
from repro.expressions.compile import (
    _materialize,
    compile_filter_kernel,
    compile_key_kernel,
    compile_map_kernel,
    compile_row,
)
from repro.multiset import Multiset
from repro.relation import Relation
from repro.schema import RelationSchema
from repro.tuples import Row

__all__ = [
    "VectorOp",
    "VScanOp",
    "VLiteralOp",
    "VFilterOp",
    "VProjectOp",
    "VMapOp",
    "VUnionOp",
    "VDifferenceOp",
    "VIntersectOp",
    "VHashJoinOp",
    "VNestedLoopJoinOp",
    "VDistinctOp",
    "VGroupByOp",
    "VExtensionOp",
    "child_batches",
    "collect_batches",
]


def child_batches(
    op: "VectorOp", env: Dict[str, Relation]
) -> Iterator[Batch]:
    """Pull an operator's batches: the one place operators are counted.

    While a meter is active on the thread
    (:func:`repro.engine.profiler.metered`), the stream is wrapped and
    every batch handed over is added to ``op``'s
    :class:`~repro.engine.profiler.OperatorRecord`; otherwise the stream
    is returned as is, for one thread-local read.
    """
    meter = active_meter()
    if meter is None:
        return op.batches(env)
    return _metered_batches(op, env, meter)


def _metered_batches(
    op: "VectorOp", env: Dict[str, Relation], meter: Meter
) -> Iterator[Batch]:
    """Yield ``op``'s batches unchanged, counting and timing them."""
    record = record_of(meter, op, op.op_class())
    record.invocations += 1
    clock = time.perf_counter
    start = clock()
    for batch in op.batches(env):
        record.seconds += clock() - start
        counts = batch.counts
        record.batches += 1
        record.pairs += len(counts)
        record.rows += sum(counts)
        yield batch
        start = clock()
    record.seconds += clock() - start


def _relation_batches(relation: Relation, batch_size: int) -> Iterator[Batch]:
    """Chunk a materialised relation into batches."""
    return batches_from_lists(
        relation.rows_list(),
        relation.counts_list(),
        relation.schema.degree,
        batch_size,
    )


class VectorOp:
    """Base class: a physical operator producing :class:`Batch` chunks.

    ``batches(env)`` returns a fresh batch stream; operators are
    reusable (each call re-executes the subtree).
    """

    __slots__ = ("schema", "batch_size")

    #: True when the operator's stream is duplicate-free — every row
    #: appears at most once across all batches.  :func:`collect_batches`
    #: then adopts the rows with a C-speed ``dict`` build instead of
    #: counting.  Operators that merely drop or combine rows (filter,
    #: joins) override this with a property delegating to their children.
    consolidated = False

    def __init__(
        self, schema: RelationSchema, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        self.schema = schema
        self.batch_size = batch_size

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        raise NotImplementedError

    def children(self) -> Tuple["VectorOp", ...]:
        return ()

    def label(self) -> str:
        """Operator label for explain output."""
        return self.op_class()

    def op_class(self) -> str:
        """Kebab-case operator class (``VHashJoinOp`` -> ``v-hash-join``).

        The label the profiler and the metrics layer key per-operator
        counters by — class-level, unlike :meth:`label`, which may embed
        instance detail (relation names, predicates).
        """
        name = type(self).__name__.removesuffix("Op")
        parts: List[str] = []
        for char in name:
            if char.isupper() and parts:
                parts.append("-")
            parts.append(char.lower())
        return "".join(parts)

    def explain(self, indent: int = 0) -> str:
        """Indented physical plan rendering."""
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


class VScanOp(VectorOp):
    """Scan a named database relation in batches."""

    __slots__ = ("name",)
    consolidated = True  # relation pairs enumerate distinct rows

    def __init__(
        self, name: str, schema: RelationSchema, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        super().__init__(schema, batch_size)
        self.name = name

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        try:
            relation = env[self.name]
        except KeyError:
            raise UnknownRelationError(self.name) from None
        # Bulk list accessors + slicing: no per-pair iteration at all.
        return _relation_batches(relation, self.batch_size)

    def label(self) -> str:
        return f"v-scan {self.name}"


class VLiteralOp(VectorOp):
    """Stream a constant relation in batches."""

    __slots__ = ("relation",)
    consolidated = True

    def __init__(
        self, relation: Relation, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        super().__init__(relation.schema, batch_size)
        self.relation = relation

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        return _relation_batches(self.relation, self.batch_size)

    def label(self) -> str:
        return f"v-literal[{len(self.relation)}]"


def _compress(batch: Batch, selected: Sequence[int]) -> Batch:
    """A new batch holding only the selected row indices.

    One C-speed ``map`` over the row list and one over the counts.
    """
    return Batch(
        list(map(batch.rows.__getitem__, selected)),
        list(map(batch.counts.__getitem__, selected)),
        batch.degree,
    )


class VFilterOp(VectorOp):
    """Batch selection through a compiled, conjunction-fused kernel."""

    __slots__ = ("condition", "child", "kernel", "fallback")

    def __init__(
        self,
        condition: ScalarExpr,
        child: VectorOp,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(child.schema, batch_size)
        self.condition = condition
        self.child = child
        self.kernel = compile_filter_kernel(condition, child.schema)
        self.fallback = (
            condition.bind(child.schema) if self.kernel is None else None
        )

    @property
    def consolidated(self) -> bool:
        # Selection only drops pairs, so a duplicate-free input stays so.
        return self.child.consolidated

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.child,)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        kernel = self.kernel
        predicate = self.fallback
        for batch in child_batches(self.child, env):
            size = len(batch.counts)
            if not size:
                continue
            if kernel is None:
                selected = [
                    index
                    for index, row in enumerate(batch.rows)
                    if predicate(row)
                ]
            else:
                selected = kernel(batch.rows, size)
            hits = len(selected)
            if not hits:
                continue
            if hits == size:
                yield batch
                continue
            yield _compress(batch, selected)

    def label(self) -> str:
        fallback = " (interpreted)" if self.kernel is None else ""
        return f"v-filter [{self.condition!r}]{fallback}"


class VProjectOp(VectorOp):
    """Positional projection: one C-speed ``itemgetter`` pass per batch."""

    __slots__ = ("positions", "child", "_row_project")

    def __init__(
        self,
        positions: Sequence[int],
        schema: RelationSchema,
        child: VectorOp,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(schema, batch_size)
        self.positions = tuple(position - 1 for position in positions)
        self.child = child
        self._row_project = _row_projector(self.positions)

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.child,)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        project_rows = self._row_project
        degree = len(self.positions)
        for batch in child_batches(self.child, env):
            yield Batch(project_rows(batch.rows), batch.counts, degree)

    def label(self) -> str:
        attrs = ", ".join(f"%{index + 1}" for index in self.positions)
        return f"v-project [{attrs}]"


def _row_projector(
    positions: Sequence[int],
) -> Callable[[Sequence[Row]], List[Row]]:
    """Bulk positional projection over a row list (0-based positions)."""
    if not positions:
        return lambda rows: [()] * len(rows)
    if len(positions) == 1:
        getter = itemgetter(positions[0])
        # zip() re-wraps the bare values as the required 1-tuples.
        return lambda rows: list(zip(map(getter, rows)))
    getter = itemgetter(*positions)
    return lambda rows: list(map(getter, rows))


class VMapOp(VectorOp):
    """Extended projection through a fused batch kernel.

    One kernel pass builds every output tuple of a batch.  Falls back to
    bound row functions when any expression refuses to lower (e.g.
    MONEY arithmetic).
    """

    __slots__ = ("expressions", "child", "kernel", "row_functions")

    def __init__(
        self,
        expressions: Sequence[ScalarExpr],
        schema: RelationSchema,
        child: VectorOp,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(schema, batch_size)
        self.expressions = tuple(expressions)
        self.child = child
        operand_schema = child.schema
        self.kernel = compile_map_kernel(self.expressions, operand_schema)
        self.row_functions = (
            tuple(expression.bind(operand_schema) for expression in self.expressions)
            if self.kernel is None
            else None
        )

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.child,)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        kernel = self.kernel
        functions = self.row_functions
        degree = self.schema.degree
        for batch in child_batches(self.child, env):
            if kernel is None:
                rows = [
                    tuple(function(row) for function in functions)
                    for row in batch.rows
                ]
            else:
                rows = kernel(batch.rows, len(batch.counts))
            yield Batch(rows, batch.counts, degree)

    def label(self) -> str:
        fallback = " (interpreted)" if self.row_functions is not None else ""
        return f"v-xproject [{len(self.expressions)} exprs]{fallback}"


class VUnionOp(VectorOp):
    """Additive union: concatenate the operand batch streams."""

    __slots__ = ("left", "right")

    def __init__(
        self,
        left: VectorOp,
        right: VectorOp,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(left.schema, batch_size)
        self.left = left
        self.right = right

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.left, self.right)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        yield from child_batches(self.left, env)
        yield from child_batches(self.right, env)

    def label(self) -> str:
        return "v-union"


def _consolidated_counts(
    op: VectorOp, env: Dict[str, Relation]
) -> Dict[Row, int]:
    """Total multiplicity per row of an operand's batch stream."""
    if op.consolidated:
        counts: Dict[Row, int] = {}
        for batch in child_batches(op, env):
            counts.update(zip(batch.rows, batch.counts))
        return counts
    totals: Dict[Row, int] = defaultdict(int)
    for batch in child_batches(op, env):
        for row, count in zip(batch.rows, batch.counts):
            totals[row] += count
    return totals


def _survivor_batches(
    survivors: Dict[Row, int], degree: int, batch_size: int
) -> Iterator[Batch]:
    """Batch the rows left with a positive multiplicity."""
    return batches_from_lists(
        list(survivors), list(survivors.values()), degree, batch_size
    )


class VDifferenceOp(VectorOp):
    """Monus difference: consolidate both sides, emit ``max(0, l - r)``."""

    __slots__ = ("left", "right")
    consolidated = True

    def __init__(
        self,
        left: VectorOp,
        right: VectorOp,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(left.schema, batch_size)
        self.left = left
        self.right = right

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.left, self.right)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        left_counts = _consolidated_counts(self.left, env)
        right_counts = _consolidated_counts(self.right, env)
        get = right_counts.get
        survivors = {
            row: count - get(row, 0)
            for row, count in left_counts.items()
            if count > get(row, 0)
        }
        return _survivor_batches(survivors, self.schema.degree, self.batch_size)

    def label(self) -> str:
        return "v-difference"


class VIntersectOp(VectorOp):
    """Min intersection: consolidate both sides, emit ``min(l, r)``."""

    __slots__ = ("left", "right")
    consolidated = True

    def __init__(
        self,
        left: VectorOp,
        right: VectorOp,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(left.schema, batch_size)
        self.left = left
        self.right = right

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.left, self.right)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        left_counts = _consolidated_counts(self.left, env)
        right_counts = _consolidated_counts(self.right, env)
        survivors = {
            row: min(count, right_counts[row])
            for row, count in left_counts.items()
            if row in right_counts
        }
        return _survivor_batches(survivors, self.schema.degree, self.batch_size)

    def label(self) -> str:
        return "v-intersect"


def _compile_probe(
    output_positions: Optional[Sequence[int]],
    left_degree: int,
    residual: bool,
) -> Callable[..., None]:
    """Generate the hash-join probe loop.

    The loop is specialised at plan time: the residual check appears
    only when a residual predicate exists, and when ``output_positions``
    is given (project-into-join fusion) the emit builds the projected
    output tuple directly from the probe and build rows — the full
    concatenated row is never materialised unless the residual needs it.
    """
    if output_positions is None:
        fused_emit = None
    else:
        picks = [
            f"_l[{position}]"
            if position < left_degree
            else f"_r2[{position - left_degree}]"
            for position in output_positions
        ]
        fused_emit = "(" + ", ".join(picks) + ("," if len(picks) == 1 else "") + ")"
    lines = [
        "def _probe(_keys, _lrows, _counts, _get, _res, _pr, _pc):\n",
        "    for _k, _l, _c in zip(_keys, _lrows, _counts):\n",
        "        _m = _get(_k)\n",
        "        if _m is None:\n",
        "            continue\n",
        "        for _r2, _c2 in _m:\n",
    ]
    if residual:
        lines.append("            _cmb = _l + _r2\n")
        lines.append("            if _res(_cmb):\n")
        emit = fused_emit if fused_emit is not None else "_cmb"
        lines.append(f"                _pr({emit})\n")
        lines.append("                _pc(_c * _c2)\n")
    else:
        emit = fused_emit if fused_emit is not None else "_l + _r2"
        lines.append(f"            _pr({emit})\n")
        lines.append("            _pc(_c * _c2)\n")
    return _materialize("".join(lines), {}, "_probe")


class VHashJoinOp(VectorOp):
    """Equi-join with batch key kernels and a compiled probe loop.

    Keys are extracted per batch — plain attribute keys by one C-speed
    ``itemgetter`` pass — then a plan-time-generated build/probe runs
    over the row lists, multiplying multiplicities as the product
    semantics requires.  A key expression that cannot be lowered (MONEY
    arithmetic) is extracted row by row through :func:`_row_key`.  With ``output_positions`` the planner fuses a
    parent projection into the join: the probe emits projected tuples
    directly and the concatenated row is never built (unless a residual
    predicate needs it).
    """

    __slots__ = (
        "left",
        "right",
        "left_exprs",
        "right_exprs",
        "left_kernel",
        "right_kernel",
        "left_fallback",
        "right_fallback",
        "residual_expr",
        "residual",
        "output_positions",
        "_probe",
    )

    def __init__(
        self,
        left: VectorOp,
        right: VectorOp,
        left_exprs: Sequence[ScalarExpr],
        right_exprs: Sequence[ScalarExpr],
        schema: RelationSchema,
        residual_expr: Optional[ScalarExpr] = None,
        combined: Optional[RelationSchema] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        output_positions: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(schema, batch_size)
        self.left = left
        self.right = right
        self.left_exprs = tuple(left_exprs)
        self.right_exprs = tuple(right_exprs)
        self.left_kernel = compile_key_kernel(self.left_exprs, left.schema)
        self.right_kernel = compile_key_kernel(self.right_exprs, right.schema)
        self.left_fallback = (
            _row_key(self.left_exprs, left.schema)
            if self.left_kernel is None
            else None
        )
        self.right_fallback = (
            _row_key(self.right_exprs, right.schema)
            if self.right_kernel is None
            else None
        )
        self.residual_expr = residual_expr
        if residual_expr is not None:
            residual_schema = (
                combined
                if combined is not None
                else left.schema.concat(right.schema)
            )
            self.residual = compile_row(residual_expr, residual_schema)
        else:
            self.residual = None
        self.output_positions = (
            tuple(output_positions) if output_positions is not None else None
        )
        self._probe = _compile_probe(
            self.output_positions, left.schema.degree, self.residual is not None
        )

    @property
    def consolidated(self) -> bool:
        # Each (left row, right row) combination is emitted at most once,
        # and the concatenation is injective, so duplicate-free operands
        # give a duplicate-free output stream.  A fused projection can
        # merge rows, so it forfeits the guarantee.
        if self.output_positions is not None:
            return False
        return self.left.consolidated and self.right.consolidated

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.left, self.right)

    @staticmethod
    def _keys(
        kernel: Optional[Callable],
        fallback: Optional[Callable[[Row], Any]],
        rows: Sequence[Row],
    ) -> Sequence[Any]:
        if kernel is not None:
            return kernel(rows, len(rows))
        return [fallback(row) for row in rows]

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        table: Dict[Any, List[Tuple[Row, int]]] = {}
        setdefault = table.setdefault
        for batch in child_batches(self.right, env):
            rows = batch.rows
            keys = self._keys(self.right_kernel, self.right_fallback, rows)
            for key, row, count in zip(keys, rows, batch.counts):
                setdefault(key, []).append((row, count))
        if not table:
            return
        degree = self.schema.degree
        residual = self.residual
        probe = self._probe
        get = table.get
        for batch in child_batches(self.left, env):
            rows = batch.rows
            keys = self._keys(self.left_kernel, self.left_fallback, rows)
            out_rows: List[Row] = []
            out_counts: List[int] = []
            probe(
                keys,
                rows,
                batch.counts,
                get,
                residual,
                out_rows.append,
                out_counts.append,
            )
            if out_rows:
                yield Batch(out_rows, out_counts, degree)

    def label(self) -> str:
        suffix = " +residual" if self.residual is not None else ""
        fused = " +project" if self.output_positions is not None else ""
        return f"v-hash-join{suffix}{fused}"


def _row_key(
    expressions: Sequence[ScalarExpr], schema: RelationSchema
) -> Callable[[Row], Any]:
    """Row-at-a-time key extraction (fallback for unlowerable keys)."""
    bound = [compile_row(expression, schema) for expression in expressions]
    if len(bound) == 1:
        return bound[0]
    return lambda row: tuple(function(row) for function in bound)


class VNestedLoopJoinOp(VectorOp):
    """Cartesian product, optionally filtered: ``E1 × E2`` and ``E1 ⋈_φ E2``.

    Theorem 3.1 (``E1 ⋈_φ E2 = σ_φ(E1 × E2)``) lets one operator serve
    both.  The right operand is materialised once; each left batch is
    crossed with it in chunks of about ``batch_size`` output rows, and
    the predicate — none for ×, φ for a θ-join — runs over each chunk as
    a compiled filter kernel.  Multiplicities multiply.
    """

    __slots__ = ("left", "right", "predicate", "kernel", "fallback")

    def __init__(
        self,
        left: VectorOp,
        right: VectorOp,
        predicate: Optional[ScalarExpr],
        schema: RelationSchema,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(schema, batch_size)
        self.left = left
        self.right = right
        self.predicate = predicate
        self.kernel = None
        self.fallback = None
        if predicate is not None:
            combined = left.schema.concat(right.schema)
            self.kernel = compile_filter_kernel(predicate, combined)
            if self.kernel is None:
                self.fallback = predicate.bind(combined)

    @property
    def consolidated(self) -> bool:
        # Each (left row, right row) combination is emitted at most once
        # and concatenation is injective at fixed operand degrees.
        return self.left.consolidated and self.right.consolidated

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.left, self.right)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        right_rows: List[Row] = []
        right_counts: List[int] = []
        for batch in child_batches(self.right, env):
            right_rows.extend(batch.rows)
            right_counts.extend(batch.counts)
        if not right_rows:
            return
        kernel = self.kernel
        predicate = self.fallback
        filtered = self.predicate is not None
        degree = self.schema.degree
        step = max(1, self.batch_size // len(right_rows))
        for batch in child_batches(self.left, env):
            left_rows = batch.rows
            left_counts = batch.counts
            for start in range(0, len(left_counts), step):
                stop = start + step
                rows = [
                    left + right
                    for left in left_rows[start:stop]
                    for right in right_rows
                ]
                counts = [
                    count * right_count
                    for count in left_counts[start:stop]
                    for right_count in right_counts
                ]
                chunk = Batch(rows, counts, degree)
                if not filtered:
                    yield chunk
                    continue
                if kernel is not None:
                    selected = kernel(rows, len(rows))
                else:
                    selected = [
                        index
                        for index, row in enumerate(rows)
                        if predicate(row)
                    ]
                if len(selected) == len(rows):
                    yield chunk
                elif selected:
                    yield _compress(chunk, selected)

    def label(self) -> str:
        if self.predicate is None:
            return "v-product"
        fallback = " (interpreted)" if self.kernel is None else ""
        return f"v-nested-loop-join{fallback}"


class VDistinctOp(VectorOp):
    """Duplicate elimination: hash the support, emit each row once."""

    __slots__ = ("child",)
    consolidated = True

    def __init__(
        self, child: VectorOp, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        super().__init__(child.schema, batch_size)
        self.child = child

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.child,)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        seen: set[Row] = set()
        add = seen.add
        degree = self.schema.degree
        for batch in child_batches(self.child, env):
            fresh: List[Row] = []
            push = fresh.append
            for row in batch.rows:
                if row not in seen:
                    add(row)
                    push(row)
            if fresh:
                yield Batch(fresh, [1] * len(fresh), degree)

    def label(self) -> str:
        return "v-distinct"


def _compile_group_accumulator(
    positions: Sequence[int], param_index: Optional[int], fold: str = "bag"
) -> Callable[..., None]:
    """Generate the group-by accumulation loop with literal indices.

    The loop body is pure C byte-code ops (subscripts and in-place adds
    into ``defaultdict`` accumulators) — no per-row extractor calls.
    ``positions`` must be non-empty; the empty grouping is handled by
    the caller.  Keys are bare values for a single grouping attribute.

    ``fold`` picks the accumulator shape:

    * ``"bag"`` — nested value bags (exact for every aggregate):
      ``_acc(rows, counts, groups)``;
    * ``"count"`` — running tuple count: ``_acc(rows, counts, ns)``;
    * ``"sum"`` — running weighted sum: ``_acc(rows, counts, sums)``.

    The decomposed folds skip building per-group bags entirely (one
    dictionary operation per row instead of two); ``VGroupByOp`` only
    selects them where they are *exactly* equal to the bag-based
    compute.  AVG deliberately has no fold: maintaining two running
    accumulators costs more dictionary traffic than the bag loop saves.
    """
    if len(positions) == 1:
        key = f"_r[{positions[0]}]"
    else:
        key = "(" + ", ".join(f"_r[{index}]" for index in positions) + ")"
    if fold == "bag":
        value = f"_r[{param_index}]" if param_index is not None else "_r"
        signature = "_rows, _counts, _groups"
        body = f"        _groups[{key}][{value}] += _c\n"
    elif fold == "count":
        signature = "_rows, _counts, _ns"
        body = f"        _ns[{key}] += _c\n"
    elif fold == "sum":
        signature = "_rows, _counts, _sums"
        body = f"        _sums[{key}] += _r[{param_index}] * _c\n"
    else:  # pragma: no cover - planner bug
        raise ValueError(f"unknown fold {fold!r}")
    source = (
        f"def _acc({signature}):\n"
        "    for _r, _c in zip(_rows, _counts):\n"
        f"{body}"
    )
    return _materialize(source, {}, "_acc")


def _param_overrun(param_index: int, width: int) -> UnboundAttributeError:
    return UnboundAttributeError(
        f"aggregate parameter %{param_index + 1} is out of range for a "
        f"{width}-attribute tuple"
    )


class VGroupByOp(VectorOp):
    """Hash aggregation through a generated accumulation loop.

    The loop reads group keys and the aggregate parameter straight off
    each row by literal index, weighted by multiplicity (see
    :func:`_compile_group_accumulator`).  Per-group bags stay :class:`~repro.multiset.Multiset`
    instances so every aggregate — including the partial ones that raise
    :class:`~repro.errors.EmptyAggregateError` — computes exactly as in
    the reference evaluator.  The empty-grouping form emits exactly one tuple,
    matching Definition 3.4.
    """

    __slots__ = ("positions", "aggregate", "param_position", "child", "fold")
    consolidated = True

    def __init__(
        self,
        positions: Sequence[int],
        aggregate: AggregateFunction,
        param_position: Optional[int],
        schema: RelationSchema,
        child: VectorOp,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(schema, batch_size)
        self.positions = tuple(position - 1 for position in positions)
        self.aggregate = aggregate
        self.param_position = param_position
        self.child = child
        # Decomposed folds (running sums instead of per-group bags) are
        # only selected where they are bit-for-bit equal to the
        # bag-based compute: CNT is pure integer counting, and SUM over
        # an INTEGER parameter stays in exact integer arithmetic, so
        # re-associating the sum over rows instead of over distinct bag
        # values cannot change the result.  REAL and MONEY parameters
        # keep the bag path (float/Decimal addition is order-sensitive),
        # as does every other aggregate.
        fold = "bag"
        if self.positions:
            if isinstance(aggregate, Count):
                fold = "count"
            elif (
                isinstance(aggregate, Sum)
                and param_position is not None
                and child.schema.attribute(param_position).domain == INTEGER
            ):
                fold = "sum"
        self.fold = fold

    def children(self) -> Tuple[VectorOp, ...]:
        return (self.child,)

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        positions = self.positions
        single = len(positions) == 1
        fold = self.fold
        param_index = (
            self.param_position - 1 if self.param_position is not None else None
        )
        # Keys are bare values for a single grouping attribute (hashing
        # an int or string beats allocating and hashing a 1-tuple per
        # row); output rows re-wrap them below.
        groups: Dict[Any, Dict[Any, int]] = defaultdict(lambda: defaultdict(int))
        totals: Dict[Any, int] = defaultdict(int)
        if not positions:
            accumulate = None
        else:
            accumulate = _compile_group_accumulator(positions, param_index, fold)
        accumulator = groups if fold == "bag" else totals
        for batch in child_batches(self.child, env):
            if param_index is not None and param_index >= batch.degree:
                raise _param_overrun(param_index, batch.degree)
            try:
                if accumulate is None:
                    # Empty grouping: one bag for the single () group.
                    bag = groups[()]
                    if param_index is not None:
                        values: Sequence[Any] = map(
                            itemgetter(param_index), batch.rows
                        )
                    else:
                        values = batch.rows
                    for value, count in zip(values, batch.counts):
                        bag[value] += count
                else:
                    accumulate(batch.rows, batch.counts, accumulator)
            except IndexError:
                # A row narrower than its schema promises.
                width = min(map(len, batch.rows))
                if param_index is not None and param_index >= width:
                    raise _param_overrun(param_index, width) from None
                raise UnboundAttributeError(
                    f"a grouping attribute is out of range for a "
                    f"{width}-attribute tuple"
                ) from None
        compute = self.aggregate.compute
        if not positions:
            counts = dict(groups[()]) if groups else {}
            # One output row even on empty input (partial aggregates
            # raise EmptyAggregateError from compute, as the reference
            # evaluator does).
            yield Batch(
                [(compute(Multiset._from_counts(counts)),)], [1], 1
            )
            return
        if fold == "bag":
            results: Sequence[Tuple[Any, Any]] = [
                (key, compute(Multiset._from_counts(dict(bag))))
                for key, bag in groups.items()
            ]
        else:
            # count/sum folds: the running totals are the results.
            results = totals.items()
        if single:
            out_rows = list(results)
        else:
            out_rows = [key + (value,) for key, value in results]
        if out_rows:
            yield Batch(
                out_rows, [1] * len(out_rows), self.schema.degree
            )

    def label(self) -> str:
        attrs = ", ".join(f"%{index + 1}" for index in self.positions)
        return f"v-hash-groupby [({attrs}), {self.aggregate.name}]"


class VExtensionOp(VectorOp):
    """Self-evaluating extension nodes (e.g. transitive closure).

    The node's :meth:`reference_evaluate` computes its relation, which
    then streams into the surrounding plan in batches, like a literal.
    """

    __slots__ = ("expr",)
    consolidated = True  # batches an evaluated relation

    def __init__(self, expr: Any, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        super().__init__(expr.schema, batch_size)
        self.expr = expr

    def batches(self, env: Dict[str, Relation]) -> Iterator[Batch]:
        from repro.engine.evaluator import evaluate

        return _relation_batches(evaluate(self.expr, env), self.batch_size)

    def label(self) -> str:
        return f"v-extension [{self.expr.operator_name()}]"


def collect_batches(op: VectorOp, env: Dict[str, Relation]) -> Relation:
    """Execute a plan and materialise the result relation.

    Consolidated streams adopt their rows with a C-speed ``dict`` build;
    everything else totals multiplicities per row.
    """
    batches = child_batches(op, env)
    if op.consolidated:
        counts: Dict[Row, int] = {}
        for batch in batches:
            counts.update(zip(batch.rows, batch.counts))
    else:
        # defaultdict, not Counter: a distinct-heavy stream misses on
        # almost every row, and defaultdict.__missing__ is C-level.
        totals: Dict[Row, int] = defaultdict(int)
        for batch in batches:
            for row, count in zip(batch.rows, batch.counts):
                totals[row] += count
        counts = dict(totals)
    # Batch streams carry positive counts by invariant; adopt directly.
    return Relation.from_multiset(op.schema, Multiset._from_counts(counts))
