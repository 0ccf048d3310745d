"""The columnar batch representation for the vectorized engine.

A :class:`ColumnBatch` holds one value list per attribute plus a
parallel multiplicity column — a chunk of the paper's set-of-pairs
relation representation turned on its side.  Operators hand whole
batches to compiled kernels (:mod:`repro.expressions.compile`), so the
per-row Python interpretation tax is paid once per *batch* instead of
once per tuple.

Batches are treated as immutable by convention: operators that do not
touch a column (projection, filter with full selection) alias it into
their output batch instead of copying.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.tuples import Row

__all__ = [
    "ColumnBatch",
    "DEFAULT_BATCH_SIZE",
    "batches_from_lists",
]

#: Rows per batch when a source operator chunks a stream.  Large enough
#: to amortise per-batch Python frames, small enough that a handful of
#: in-flight batches stay cache- and memory-friendly.
DEFAULT_BATCH_SIZE = 4096


class ColumnBatch:
    """A chunk of rows stored column-wise, with a multiplicity column.

    ``columns[i][j]`` is attribute ``i+1`` of row ``j``; ``counts[j]``
    is the multiplicity of row ``j``.  A degree-0 relation has
    ``columns == ()`` and the row count is carried by ``counts`` alone.

    The batch keeps whichever representation it was built from and
    transposes to the other *lazily*, caching the result: a join that
    builds output rows which only ever get collected never pays for a
    column transpose, and a scan feeding a compiled filter kernel never
    materialises rows it does not need.  Batches are immutable by
    convention — operators alias untouched columns instead of copying.
    """

    __slots__ = ("counts", "_columns", "_rows", "_degree")

    def __init__(
        self, columns: Sequence[Sequence[Any]], counts: Sequence[int]
    ) -> None:
        self._columns: Optional[Tuple[Sequence[Any], ...]] = tuple(columns)
        self._degree = len(self._columns)
        self._rows: Optional[Sequence[Row]] = None
        self.counts = counts

    @classmethod
    def from_rows(
        cls, rows: Sequence[Row], counts: Sequence[int], degree: int
    ) -> "ColumnBatch":
        """Adopt a row-wise chunk (columns are transposed on demand).

        ``degree`` disambiguates the empty chunk (no rows to infer the
        width from).
        """
        batch = cls.__new__(cls)
        batch._columns = None
        batch._rows = rows
        batch._degree = degree
        batch.counts = counts
        return batch

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def width(self) -> int:
        """The degree (number of attribute columns)."""
        return self._degree

    @property
    def has_columns(self) -> bool:
        """Whether the column-wise view is already materialised.

        Operators consult this (and :attr:`has_rows`) to pick the kernel
        layout matching what the batch already holds, so a pipeline that
        stays row-backed end to end never pays a transpose.
        """
        return self._columns is not None

    @property
    def has_rows(self) -> bool:
        """Whether the row-wise view is already materialised."""
        return self._rows is not None

    @property
    def columns(self) -> Tuple[Sequence[Any], ...]:
        """The column-wise view (one cached C-speed transpose)."""
        columns = self._columns
        if columns is None:
            rows = self._rows
            if rows:
                columns = tuple(zip(*rows))
            else:
                columns = ((),) * self._degree
            self._columns = columns
        return columns

    def rows(self) -> Sequence[Row]:
        """The row-wise view (one cached C-speed transpose)."""
        rows = self._rows
        if rows is None:
            columns = self._columns
            if columns:
                rows = list(zip(*columns))
            else:
                rows = [()] * len(self.counts)
            self._rows = rows
        return rows


def batches_from_lists(
    rows: Sequence[Row],
    counts: Sequence[int],
    degree: int,
    batch_size: int,
) -> Iterator[ColumnBatch]:
    """Chunk parallel row/count lists into row-backed batches.

    The scan fast path: slicing two lists is a memcpy-level operation,
    far cheaper than re-pairing and unzipping a ``(row, count)`` stream.
    A source that fits in one batch is adopted without copying at all.
    """
    total = len(counts)
    if total <= batch_size:
        if total:
            yield ColumnBatch.from_rows(rows, counts, degree)
        return
    for start in range(0, total, batch_size):
        stop = start + batch_size
        yield ColumnBatch.from_rows(rows[start:stop], counts[start:stop], degree)
