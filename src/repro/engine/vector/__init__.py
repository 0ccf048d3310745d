"""The physical executor: columnar batch operators.

Relations stream as :class:`ColumnBatch` chunks — one value list per
attribute plus a multiplicity column — and predicates, projections, and
join/group keys run as Python closures compiled by
:mod:`repro.expressions.compile` instead of being interpreted per row.

Every physical plan (``Session``, the XRA interpreter, the server,
:func:`repro.engine.execute`) runs on these operators; see
``docs/vectorized.md`` for the batch model, the expression compiler,
and when an expression falls back to the AST interpreter.
"""

from repro.engine.vector.batch import (
    ColumnBatch,
    DEFAULT_BATCH_SIZE,
)
from repro.engine.vector.operators import (
    VDifferenceOp,
    VDistinctOp,
    VExtensionOp,
    VFilterOp,
    VGroupByOp,
    VHashJoinOp,
    VIntersectOp,
    VLiteralOp,
    VMapOp,
    VNestedLoopJoinOp,
    VProjectOp,
    VScanOp,
    VUnionOp,
    VectorOp,
    child_batches,
    collect_batches,
)
from repro.engine.vector.planner import plan_vector

__all__ = [
    "ColumnBatch",
    "DEFAULT_BATCH_SIZE",
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
    "plan_vector",
]
