"""Tuple operations (Definition 2.4).

Tuples are represented as plain Python tuples of atomic values: hashable,
immutable, and cheap — exactly what the multiplicity map needs for keys.
This module supplies the paper's tuple-level operators:

* ``r.i``               -> :func:`attr_value` (1-based access);
* ``#r``                -> :func:`degree`;
* ``α_a(r)``            -> :func:`project_tuple` (concatenate the listed
  attributes into a new tuple; repetition allowed);
* ``r1 ⊕ r2``           -> :func:`concat_tuples`;
* ``r1 = r2``           -> plain tuple equality (same-schema assumption is
  checked one level up, in the algebra).

Validation against a schema (:func:`validate_tuple`) normalises each
value through its attribute's domain, so a relation only ever stores
canonical values — which is what makes tuple equality meaningful.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Tuple

from repro.errors import AttributeResolutionError, DomainValueError
from repro.schema import RelationSchema

__all__ = [
    "Row",
    "attr_value",
    "degree",
    "project_tuple",
    "concat_tuples",
    "validate_tuple",
    "make_row",
]

#: Type alias for a relation tuple.
Row = Tuple[Any, ...]


def attr_value(row: Row, position: int) -> Any:
    """``r.i`` — the value of the ``position``-th attribute (1-based)."""
    if not 1 <= position <= len(row):
        raise AttributeResolutionError(
            f"attribute index %{position} out of range 1..{len(row)} for tuple {row!r}"
        )
    return row[position - 1]


def degree(row: Row) -> int:
    """``#r`` — the number of attributes of the tuple."""
    return len(row)


def project_tuple(row: Row, positions: Sequence[int]) -> Row:
    """``α_a(r)`` — concatenate the listed attributes into a new tuple.

    ``positions`` are 1-based and may repeat; ``α_(%1,%1)`` duplicates a
    column, which the paper's definition permits (it only requires
    ``1 <= i_j <= #r``).
    """
    return tuple(attr_value(row, position) for position in positions)


def concat_tuples(left: Row, right: Row) -> Row:
    """``r1 ⊕ r2`` — attribute lists concatenate in the given order."""
    return left + right


def make_row(values: Iterable[Any]) -> Row:
    """Coerce an iterable of values into the canonical tuple form."""
    return tuple(values)


def validate_tuple(row: Iterable[Any], schema: RelationSchema) -> Row:
    """Check ``row`` against ``schema`` and return the canonical tuple.

    Every value is normalised through its attribute's domain, so e.g. an
    ``int`` fed to a ``real`` column is stored as ``float`` — equality of
    stored tuples then coincides with value equality per attribute, as
    Definition 2.4 requires.
    """
    values = tuple(row)
    if len(values) != schema.degree:
        raise DomainValueError(
            schema,
            values,
        )
    normalised = []
    for value, attribute in zip(values, schema.attributes):
        normalised.append(attribute.domain.normalize(value))
    return tuple(normalised)
