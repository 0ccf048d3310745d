"""Generic multi-set (bag) container and bag operations.

This package implements the multiplicity arithmetic of the paper
(Definitions 2.2-2.4 and the container-level halves of Definitions
3.1/3.2/3.4): additive union, monus difference, min-intersection,
multiplicity-summing map (projection), multiplicity-multiplying product,
duplicate elimination, and the multi-subset / equality comparisons.
"""

from repro.multiset.multiset import Delta, Multiset
from repro.multiset.ops import (
    difference,
    distinct,
    intersection,
    intersection_all,
    is_submultiset,
    max_union,
    multiset_equal,
    scale,
    union,
    union_all,
)

__all__ = [
    "Multiset",
    "Delta",
    "union",
    "difference",
    "intersection",
    "max_union",
    "distinct",
    "scale",
    "is_submultiset",
    "multiset_equal",
    "union_all",
    "intersection_all",
]
