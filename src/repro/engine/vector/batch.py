"""The batch representation for the physical engine.

A :class:`Batch` is a chunk of the paper's set-of-pairs relation
representation: a list of rows and a parallel list of multiplicities.
Operators hand whole batches to compiled kernels
(:mod:`repro.expressions.compile`), so the per-row Python
interpretation tax is paid once per *batch* instead of once per tuple.

Batches are treated as immutable by convention: an operator that keeps
every row (a filter that selects all of them) hands its input batch on
instead of copying it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.tuples import Row

__all__ = [
    "Batch",
    "DEFAULT_BATCH_SIZE",
    "batches_from_lists",
]

#: Rows per batch when a source operator chunks a stream.  Large enough
#: to amortise per-batch Python frames, small enough that a handful of
#: in-flight batches stay cache- and memory-friendly.
DEFAULT_BATCH_SIZE = 4096


class Batch:
    """A chunk of rows with a parallel multiplicity list.

    ``counts[j]`` is the multiplicity of ``rows[j]``.  ``degree`` is the
    number of attributes per row; it is carried explicitly because an
    empty chunk has no row to infer it from, and a degree-0 relation's
    rows are all ``()``.
    """

    __slots__ = ("rows", "counts", "degree")

    def __init__(
        self, rows: Sequence[Row], counts: Sequence[int], degree: int
    ) -> None:
        self.rows = rows
        self.counts = counts
        self.degree = degree

    def __len__(self) -> int:
        return len(self.counts)


def batches_from_lists(
    rows: Sequence[Row],
    counts: Sequence[int],
    degree: int,
    batch_size: int,
) -> Iterator[Batch]:
    """Chunk parallel row/count lists into batches.

    The scan fast path: slicing two lists is a memcpy-level operation,
    far cheaper than re-pairing and unzipping a ``(row, count)`` stream.
    A source that fits in one batch is adopted without copying at all.
    """
    total = len(counts)
    if total <= batch_size:
        if total:
            yield Batch(rows, counts, degree)
        return
    for start in range(0, total, batch_size):
        stop = start + batch_size
        yield Batch(rows[start:stop], counts[start:stop], degree)
