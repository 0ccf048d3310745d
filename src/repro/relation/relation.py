"""Typed multi-set relations (Definitions 2.2-2.4).

A :class:`Relation` couples a :class:`~repro.schema.RelationSchema` with a
:class:`~repro.multiset.Multiset` of tuples.  Every tuple is validated
(and its values normalised) against the schema on the way in, so stored
tuples are canonical and tuple equality is value equality per attribute.

The operator methods on this class are the *reference implementations* of
the paper's algebra: each is a direct transliteration of the multiplicity
equation in Definitions 3.1, 3.2, and 3.4.  The physical engine
(:mod:`repro.engine`) computes the same results with hash-based
algorithms; the test suite checks the two agree on random inputs.
"""

from __future__ import annotations

import weakref
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.aggregates import AggregateFunction
from repro.errors import SchemaMismatchError, UnboundAttributeError
from repro.multiset import Delta, Multiset
from repro.schema import AttrRefLike, RelationSchema
from repro.tuples import Row, concat_tuples, project_tuple, validate_tuple

__all__ = ["Relation"]


def _param_value(row: Row, param_position: int) -> Any:
    """``row[param_position - 1]`` with the failure named on overrun."""
    try:
        return row[param_position - 1]
    except IndexError:
        raise UnboundAttributeError(
            f"aggregate parameter %{param_position} is out of range "
            f"for a {len(row)}-attribute tuple"
        ) from None


class Relation:
    """A multi-set of tuples over a fixed relation schema."""

    __slots__ = (
        "_schema", "_tuples", "_lineage", "_image", "_wire", "__weakref__"
    )

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Iterable[Any]] | Mapping[Row, int] = (),
        *,
        validate: bool = True,
    ) -> None:
        self._schema = schema
        #: ``(base, net delta since base)`` when built by :meth:`apply_delta`;
        #: a base keeps a weak link to its latest such descendant.
        self._lineage: Optional[Tuple["Relation", Delta[Row]]] = None
        self._image: Optional["weakref.ref[Relation]"] = None
        #: The encoded wire document, kept by
        #: :func:`repro.server.protocol.relation_wire_bytes` (the value is
        #: immutable, so its encoding is too).
        self._wire: Optional[bytes] = None
        if isinstance(rows, Mapping):
            if validate:
                pairs = [
                    (validate_tuple(row, schema), count) for row, count in rows.items()
                ]
                self._tuples: Multiset[Row] = Multiset.from_pairs(pairs)
            else:
                self._tuples = Multiset(rows)
        else:
            if validate:
                self._tuples = Multiset(validate_tuple(row, schema) for row in rows)
            else:
                self._tuples = Multiset(tuple(row) for row in rows)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_multiset(cls, schema: RelationSchema, tuples: Multiset[Row]) -> "Relation":
        """Adopt an already-canonical multiset of tuples (no validation)."""
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._tuples = tuples
        relation._lineage = relation._image = relation._wire = None
        return relation

    def __reduce__(self) -> Tuple[Any, ...]:
        # Lineage is install bookkeeping, not part of the value.
        return (Relation.from_multiset, (self._schema, self._tuples))

    @classmethod
    def from_pairs(
        cls, schema: RelationSchema, pairs: Iterable[Tuple[Iterable[Any], int]]
    ) -> "Relation":
        """Build from ``(tuple, multiplicity)`` pairs — the paper's pair notation."""
        validated = [
            (validate_tuple(row, schema), count) for row, count in pairs
        ]
        return cls.from_multiset(schema, Multiset.from_pairs(validated))

    @classmethod
    def empty(cls, schema: RelationSchema) -> "Relation":
        """The empty relation of ``schema``."""
        return cls.from_multiset(schema, Multiset.empty())

    # -- basic accessors -----------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def tuples(self) -> Multiset[Row]:
        """The underlying multiset (treat as read-only)."""
        return self._tuples

    def multiplicity(self, row: Iterable[Any]) -> int:
        """``R(x)`` — the multiplicity of a tuple (0 when absent)."""
        return self._tuples.multiplicity(validate_tuple(row, self._schema))

    def __contains__(self, row: object) -> bool:
        """Definition 2.4 membership: ``r ∈ R ⇔ R(r) > 0``."""
        try:
            canonical = validate_tuple(row, self._schema)  # type: ignore[arg-type]
        except Exception:
            return False
        return canonical in self._tuples

    def __len__(self) -> int:
        """Bag cardinality (duplicates counted)."""
        return len(self._tuples)

    @property
    def distinct_count(self) -> int:
        """Number of distinct tuples."""
        return self._tuples.support_size

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __iter__(self) -> Iterator[Row]:
        """Iterate every tuple, repeated per multiplicity."""
        return self._tuples.elements()

    def pairs(self) -> Iterator[Tuple[Row, int]]:
        """Iterate ``(tuple, multiplicity)`` pairs."""
        return self._tuples.pairs()

    def support(self) -> frozenset[Row]:
        """The set of distinct tuples."""
        return self._tuples.support()

    def rows_list(self) -> List[Row]:
        """Distinct tuples as a list, parallel to :meth:`counts_list`.

        Bulk accessors used by the vectorized engine to chunk a stored
        relation with list slices instead of per-pair iteration.
        """
        return self._tuples.support_list()

    def counts_list(self) -> List[int]:
        """Multiplicities as a list parallel to :meth:`rows_list`."""
        return self._tuples.counts_list()

    def rows_sorted(self) -> List[Row]:
        """All tuples (with duplicates), sorted — presentation only.

        The algebra itself is orderless (the paper excludes sort/cursor
        operators from the formalism); this helper exists purely so that
        printed output and test expectations are deterministic.
        """
        return sorted(self._tuples.elements())

    # -- comparisons (Definition 2.3) -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return (
                self._schema.compatible_with(other._schema)
                and self._tuples == other._tuples
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._schema.domains(), self._tuples))

    def issubmultiset(self, other: "Relation") -> bool:
        """``R1 ⊆ₘ R2`` — requires compatible schemas."""
        self._require_compatible(other, "multi-subset comparison")
        return self._tuples.issubmultiset(other._tuples)

    def __le__(self, other: "Relation") -> bool:
        return self.issubmultiset(other)

    def _require_compatible(self, other: "Relation", operation: str) -> None:
        if not self._schema.compatible_with(other._schema):
            raise SchemaMismatchError(self._schema, other._schema, operation)

    # -- Definition 3.1: the basic algebra ------------------------------------------

    def union(self, other: "Relation") -> "Relation":
        """``E1 ⊎ E2`` — multiplicities add; schema of the left operand."""
        self._require_compatible(other, "union")
        return Relation.from_multiset(self._schema, self._tuples.union(other._tuples))

    def difference(self, other: "Relation") -> "Relation":
        """``E1 − E2`` — multiplicities subtract, floored at zero."""
        self._require_compatible(other, "difference")
        return Relation.from_multiset(
            self._schema, self._tuples.difference(other._tuples)
        )

    def apply_delta(self, delta: Delta[Row]) -> "Relation":
        """``(R − Δ⁻) ⊎ Δ⁺`` — a write's effect, O(|Δ|) past a dict copy.

        ``delta.minus`` must be a sub-multiset of this relation (the
        statements of Definition 4.1 guarantee it, ``Δ⁻ = R ∩ E``), so
        no multiplicity floors or goes negative; :class:`ValueError`
        otherwise.  The result remembers its base and the delta composed
        since, so :meth:`delta_from` reads the net change without
        comparing bags.  Applying the very delta :meth:`delta_from` read
        off a live descendant returns that descendant instead of a copy.
        """
        image = self._image() if self._image is not None else None
        lineage = image._lineage if image is not None else None  # read once
        if lineage is not None and lineage[0] is self and lineage[1] is delta:
            return image
        result = Relation.from_multiset(
            self._schema, self._tuples.apply_delta(delta.minus, delta.plus)
        )
        if self._lineage is None:
            result._lineage = (self, delta)
        else:
            base, earlier = self._lineage
            result._lineage = (base, earlier.then(delta))
        result._lineage[0]._image = weakref.ref(result)
        return result

    def delta_from(self, base: "Relation") -> Delta[Row]:
        """The normalized net change that turns ``base`` into this relation.

        Read off the remembered deltas when this relation descends from
        ``base`` through :meth:`apply_delta` — O(Σ|Δ|); otherwise (a
        hand-built relation) a full diff of the two bags.
        """
        if self is base:
            return Delta()
        if self._lineage is not None and self._lineage[0] is base:
            return self._lineage[1].normalized()
        return Delta.between(base._tuples, self._tuples)

    def forget_lineage(self) -> None:
        """Drop the link to the base relation, so the base can be freed."""
        self._lineage = None

    def product(self, other: "Relation") -> "Relation":
        """``E1 × E2`` — tuples concatenate, multiplicities multiply."""
        schema = self._schema.concat(other._schema)
        tuples = self._tuples.product(other._tuples, concat_tuples)
        return Relation.from_multiset(schema, tuples)

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """``σφ E`` — keep tuples where ``predicate`` holds, multiplicities intact."""
        return Relation.from_multiset(self._schema, self._tuples.filter(predicate))

    def project(self, refs: Sequence[AttrRefLike]) -> "Relation":
        """``πα E`` — basic projection; multiplicities of merged tuples add."""
        positions = self._schema.resolve_all(refs)
        schema = self._schema.project(positions)
        tuples = self._tuples.map(lambda row: project_tuple(row, positions))
        return Relation.from_multiset(schema, tuples)

    # -- Definition 3.2: the standard algebra ----------------------------------------

    def intersection(self, other: "Relation") -> "Relation":
        """``E1 ∩ E2`` — multiplicity is the minimum of the operands'."""
        self._require_compatible(other, "intersection")
        return Relation.from_multiset(
            self._schema, self._tuples.intersection(other._tuples)
        )

    def join(self, other: "Relation", predicate: Callable[[Row], bool]) -> "Relation":
        """``E1 ⋈φ E2 = σφ(E1 × E2)`` — literally, per Theorem 3.1."""
        return self.product(other).select(predicate)

    # -- Definition 3.4: the extended algebra -----------------------------------------

    def extended_project(
        self,
        functions: Sequence[Callable[[Row], Any]],
        result_schema: RelationSchema,
    ) -> "Relation":
        """``π̂α E`` — projection through arithmetic expressions.

        ``functions`` maps each input tuple to one output attribute value;
        multiplicities of colliding output tuples add, exactly as in the
        basic projection.
        """
        if len(functions) != result_schema.degree:
            raise ValueError(
                f"{len(functions)} expressions vs {result_schema.degree} "
                f"result attributes"
            )

        def image(row: Row) -> Row:
            return tuple(function(row) for function in functions)

        return Relation.from_multiset(result_schema, self._tuples.map(image))

    def distinct(self) -> "Relation":
        """``δE`` — duplicate elimination; every present tuple keeps one copy."""
        return Relation.from_multiset(self._schema, self._tuples.distinct())

    def group_by(
        self,
        refs: Sequence[AttrRefLike],
        aggregate: AggregateFunction,
        param: Optional[AttrRefLike],
    ) -> "Relation":
        """``Γ_{α,f,p} E`` — grouped aggregation (Definition 3.4).

        Groups are classes of tuples equal on the (duplicate-free)
        grouping attributes ``refs``; ``aggregate`` is computed per group
        on attribute ``param``.  With an empty ``refs`` the aggregate runs
        over the whole relation and yields a single one-attribute tuple
        (which, per Definition 3.3, may raise
        :class:`~repro.errors.EmptyAggregateError` for the partial
        aggregates on an empty input).
        """
        param_position = (
            self._schema.resolve(param) if param is not None else None
        )
        aggregate.check_input(self._schema, param_position)

        if not refs:
            value = aggregate.compute(self._group_values(None, param_position))
            schema = RelationSchema(None, [(aggregate.output_name(param_position, self._schema), aggregate.output_domain(self._schema, param_position))])
            return Relation.from_multiset(schema, Multiset([(value,)]))

        positions = self._schema.resolve_all(refs)
        if len(set(positions)) != len(positions):
            raise ValueError(
                f"group-by attribute list resolves to duplicate positions {positions}"
            )
        groups: dict[Row, Multiset[Any]] = {}
        for row, count in self._tuples.pairs():
            key = project_tuple(row, positions)
            bag = groups.get(key)
            if bag is None:
                bag = Multiset()
                groups[key] = bag
            value = (
                _param_value(row, param_position)
                if param_position is not None
                else row
            )
            bag.add(value, count)

        out_rows = Multiset(
            key + (aggregate.compute(bag),) for key, bag in groups.items()
        )
        group_schema = self._schema.project(positions)
        result_schema = group_schema.concat(
            RelationSchema(
                None,
                [(
                    aggregate.output_name(param_position, self._schema),
                    aggregate.output_domain(self._schema, param_position),
                )],
            )
        )
        return Relation.from_multiset(result_schema, out_rows)

    def _group_values(
        self, key: Optional[Row], param_position: Optional[int]
    ) -> Multiset[Any]:
        """The bag of aggregate inputs for the whole relation."""
        values: Multiset[Any] = Multiset()
        for row, count in self._tuples.pairs():
            value = (
                _param_value(row, param_position)
                if param_position is not None
                else row
            )
            values.add(value, count)
        return values

    def aggregate(
        self, aggregate: AggregateFunction, param: Optional[AttrRefLike]
    ) -> Any:
        """Whole-relation aggregate ``f_p(E)`` as a scalar (Definition 3.3)."""
        param_position = (
            self._schema.resolve(param) if param is not None else None
        )
        aggregate.check_input(self._schema, param_position)
        return aggregate.compute(self._group_values(None, param_position))

    # -- convenience -------------------------------------------------------------------

    def rename(self, name: Optional[str]) -> "Relation":
        """The same contents under a different relation name."""
        return Relation.from_multiset(self._schema.renamed(name), self._tuples)

    def with_attribute_names(self, names: Sequence[Optional[str]]) -> "Relation":
        """The same contents with attributes renamed positionally."""
        return Relation.from_multiset(
            self._schema.with_attribute_names(names), self._tuples
        )

    def __repr__(self) -> str:
        label = self._schema.name or "relation"
        return (
            f"<Relation {label} degree={self._schema.degree} "
            f"tuples={len(self)} distinct={self.distinct_count}>"
        )
