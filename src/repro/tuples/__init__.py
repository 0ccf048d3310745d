"""Tuple representation and the tuple-level operators of Definition 2.4."""

from repro.tuples.tuple_ops import (
    Row,
    attr_value,
    concat_tuples,
    degree,
    make_row,
    project_tuple,
    validate_tuple,
)

__all__ = [
    "Row",
    "attr_value",
    "concat_tuples",
    "degree",
    "make_row",
    "project_tuple",
    "validate_tuple",
]
