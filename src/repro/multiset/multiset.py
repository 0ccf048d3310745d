"""The generic multi-set (bag) container underlying relations.

Definition 2.2 models a relation instance as a function
``R : dom(R) -> N`` giving each element its *multiplicity*.  This module
implements that function as a hash map from element to positive count:
elements with multiplicity zero are never stored, matching the paper's
convention that ``(x, 0)`` rows are implicit.

The container is deliberately generic — it holds any hashable elements —
so the algebra layer, the engine, and the tests can all reuse the same
multiplicity arithmetic.  :class:`~repro.relation.Relation` composes a
:class:`Multiset` with a schema.

The mutating API (``add`` / ``discard`` / ``+=``-style in-place union) is
kept separate from the algebraic API (``union`` / ``difference`` / ...),
which always returns *new* multisets; the algebra layer only ever uses
the latter, so evaluation is purely functional.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Tuple,
    TypeVar,
)

__all__ = ["Multiset", "Delta"]

T = TypeVar("T", bound=Hashable)


class Multiset(Generic[T]):
    """A multi-set of hashable elements with non-negative multiplicities.

    Construction accepts any iterable of elements (duplicates counted) or
    a mapping from element to count::

        Multiset(["a", "b", "a"])            # {a: 2, b: 1}
        Multiset({"a": 2, "b": 1})           # same
        Multiset.from_pairs([("a", 2)])      # same as the paper's (x, R(x))

    The paper's two notations — a collection of individual tuples possibly
    containing duplicates, and a set of ``(x, R(x))`` pairs — correspond
    to :meth:`elements` and :meth:`pairs` respectively.
    """

    __slots__ = ("_counts", "_size")

    def __init__(self, items: Iterable[T] | Mapping[T, int] = ()) -> None:
        counts: Dict[T, int] = {}
        if isinstance(items, Mapping):
            for element, count in items.items():
                _check_count(count)
                if count > 0:
                    counts[element] = counts.get(element, 0) + count
        elif isinstance(items, Multiset):
            counts.update(items._counts)
        else:
            for element in items:
                counts[element] = counts.get(element, 0) + 1
        self._counts = counts
        self._size = sum(counts.values())

    # -- alternative constructors ---------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[T, int]]) -> "Multiset[T]":
        """Build from ``(element, multiplicity)`` pairs; zero counts are dropped."""
        counts: Dict[T, int] = {}
        for element, count in pairs:
            _check_count(count)
            if count > 0:
                counts[element] = counts.get(element, 0) + count
        return cls._from_counts(counts)

    @classmethod
    def _from_counts(cls, counts: Dict[T, int]) -> "Multiset[T]":
        """Internal: adopt ``counts`` (all values positive) without copying."""
        instance = cls.__new__(cls)
        instance._counts = counts
        instance._size = sum(counts.values())
        return instance

    @classmethod
    def empty(cls) -> "Multiset[T]":
        """The empty multi-set."""
        return cls._from_counts({})

    # -- multiplicity access (the function R(x) of Definition 2.2) -------

    def multiplicity(self, element: T) -> int:
        """``R(x)`` — how many times ``element`` occurs (0 if absent)."""
        return self._counts.get(element, 0)

    def __call__(self, element: T) -> int:
        """Allow ``R(x)`` syntax, mirroring the paper's notation."""
        return self.multiplicity(element)

    def __contains__(self, element: object) -> bool:
        """Definition 2.4: ``r in R  <=>  R(r) > 0``."""
        return element in self._counts

    # -- sizes ------------------------------------------------------------

    def __len__(self) -> int:
        """Total number of elements *including* duplicates (bag cardinality)."""
        return self._size

    @property
    def support_size(self) -> int:
        """Number of *distinct* elements."""
        return len(self._counts)

    def __bool__(self) -> bool:
        return self._size > 0

    # -- iteration ----------------------------------------------------------

    def __iter__(self) -> Iterator[T]:
        """Iterate distinct elements (the support)."""
        return iter(self._counts)

    def elements(self) -> Iterator[T]:
        """Iterate every element, repeated per its multiplicity."""
        for element, count in self._counts.items():
            for _ in range(count):
                yield element

    def pairs(self) -> Iterator[Tuple[T, int]]:
        """Iterate ``(element, multiplicity)`` pairs — the paper's set-of-pairs form."""
        return iter(self._counts.items())

    def support(self) -> frozenset[T]:
        """The set of distinct elements."""
        return frozenset(self._counts)

    def support_list(self) -> List[T]:
        """Distinct elements as a list, parallel to :meth:`counts_list`.

        Bulk accessors for engines that chunk a relation: both lists
        come off the same dictionary in one C-speed pass and share the
        iteration order, so ``support_list()[i]`` has multiplicity
        ``counts_list()[i]``.
        """
        return list(self._counts.keys())

    def counts_list(self) -> List[int]:
        """Multiplicities as a list, parallel to :meth:`support_list`."""
        return list(self._counts.values())

    # -- comparisons (Definition 2.3) ----------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality: identical multiplicity for every element."""
        if isinstance(other, Multiset):
            return self._counts == other._counts
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def issubmultiset(self, other: "Multiset[T]") -> bool:
        """Multi-subset ``self ⊆ₘ other``: every multiplicity is dominated."""
        if self._size > other._size:
            return False
        other_counts = other._counts
        for element, count in self._counts.items():
            if count > other_counts.get(element, 0):
                return False
        return True

    def __le__(self, other: "Multiset[T]") -> bool:
        return self.issubmultiset(other)

    def __lt__(self, other: "Multiset[T]") -> bool:
        return self.issubmultiset(other) and self._counts != other._counts

    def __ge__(self, other: "Multiset[T]") -> bool:
        return other.issubmultiset(self)

    def __gt__(self, other: "Multiset[T]") -> bool:
        return other.issubmultiset(self) and self._counts != other._counts

    # -- the basic algebra on bags (Definition 3.1) ----------------------------

    def union(self, other: "Multiset[T]") -> "Multiset[T]":
        """Additive union ``⊎``: multiplicities add.

        ``(E1 ⊎ E2)(x) = E1(x) + E2(x)``.
        """
        counts = dict(self._counts)
        for element, count in other._counts.items():
            counts[element] = counts.get(element, 0) + count
        return Multiset._from_counts(counts)

    def difference(self, other: "Multiset[T]") -> "Multiset[T]":
        """Monus difference ``−``: ``(E1 − E2)(x) = max(0, E1(x) − E2(x))``.

        When ``other`` is the smaller side this is the :meth:`apply_delta`
        kernel with the monus floor: copy ``self``, then adjust only
        ``other``'s entries, instead of looping over ``self``.
        """
        if other.support_size < self.support_size:
            return self._adjusted(other._counts, {}, exact=False)
        counts: Dict[T, int] = {}
        other_counts = other._counts
        for element, count in self._counts.items():
            remaining = count - other_counts.get(element, 0)
            if remaining > 0:
                counts[element] = remaining
        return Multiset._from_counts(counts)

    def apply_delta(
        self, minus: "Multiset[T]", plus: "Multiset[T]"
    ) -> "Multiset[T]":
        """``(self − minus) ⊎ plus`` for ``minus ⊆ₘ self``: apply a Z-delta.

        The counts are copied at C speed and only the ``|minus| + |plus|``
        changed entries are touched in Python.  Because ``minus`` is a
        sub-multiset the monus never floors and the update is exact; a
        ``minus`` that would drive a multiplicity negative raises
        :class:`ValueError`.
        """
        return self._adjusted(minus._counts, plus._counts, exact=True)

    def _adjusted(
        self, minus: Mapping[T, int], plus: Mapping[T, int], exact: bool
    ) -> "Multiset[T]":
        """Copy, subtract ``minus``, add ``plus`` — the shared write kernel.

        With ``exact`` an over-subtraction raises; without it the count
        floors at zero (the monus).
        """
        counts = dict(self._counts)
        size = self._size
        for element, count in minus.items():
            present = counts.get(element, 0)
            remaining = present - count
            if remaining > 0:
                counts[element] = remaining
                size -= count
            elif remaining < 0 and exact:
                raise ValueError(
                    f"delta removes {count} of {element!r}, "
                    f"which occurs {present} time(s)"
                )
            elif present:
                del counts[element]
                size -= present
        for element, count in plus.items():
            counts[element] = counts.get(element, 0) + count
            size += count
        instance = Multiset.__new__(Multiset)
        instance._counts = counts
        instance._size = size
        return instance

    def intersection(self, other: "Multiset[T]") -> "Multiset[T]":
        """Intersection ``∩``: ``(E1 ∩ E2)(x) = min(E1(x), E2(x))``."""
        if other.support_size < self.support_size:
            small, large = other, self
        else:
            small, large = self, other
        counts: Dict[T, int] = {}
        large_counts = large._counts
        for element, count in small._counts.items():
            shared = min(count, large_counts.get(element, 0))
            if shared > 0:
                counts[element] = shared
        return Multiset._from_counts(counts)

    def __add__(self, other: "Multiset[T]") -> "Multiset[T]":
        return self.union(other)

    def __sub__(self, other: "Multiset[T]") -> "Multiset[T]":
        return self.difference(other)

    def __and__(self, other: "Multiset[T]") -> "Multiset[T]":
        return self.intersection(other)

    # -- set-style union (max) — used to state the delta/union relationship -----

    def max_union(self, other: "Multiset[T]") -> "Multiset[T]":
        """Max-union: ``max(E1(x), E2(x))`` per element.

        This is the *set-style* union on bags (sometimes written ``∪``);
        the paper uses ``⊎`` (additive) as *the* union and avoids operator
        proliferation, but max-union is needed to state what ``δ`` does
        over a union, so we provide it on the container.
        """
        counts = dict(self._counts)
        for element, count in other._counts.items():
            if count > counts.get(element, 0):
                counts[element] = count
        return Multiset._from_counts(counts)

    def __or__(self, other: "Multiset[T]") -> "Multiset[T]":
        return self.max_union(other)

    # -- duplicate elimination (Definition 3.4's delta) --------------------------

    def distinct(self) -> "Multiset[T]":
        """``δE``: every present element gets multiplicity exactly 1."""
        return Multiset._from_counts(dict.fromkeys(self._counts, 1))

    # -- scalar multiplication (used by product / nested-loop reasoning) ----------

    def scale(self, factor: int) -> "Multiset[T]":
        """Multiply every multiplicity by a non-negative ``factor``."""
        _check_count(factor)
        if factor == 0:
            return Multiset.empty()
        return Multiset._from_counts(
            {element: count * factor for element, count in self._counts.items()}
        )

    def __mul__(self, factor: int) -> "Multiset[T]":
        return self.scale(factor)

    __rmul__ = __mul__

    # -- higher-order helpers (used by the reference evaluator) -------------------

    def filter(self, predicate: Callable[[T], bool]) -> "Multiset[T]":
        """Keep elements satisfying ``predicate``, multiplicities intact.

        This is exactly the paper's selection on the container level:
        ``(σφ E)(x) = E(x)`` if ``φ(x)`` else ``0``.
        """
        counts = {
            element: count
            for element, count in self._counts.items()
            if predicate(element)
        }
        return Multiset._from_counts(counts)

    def map(self, function: Callable[[T], Any]) -> "Multiset[Any]":
        """Apply ``function`` to each element, *summing* multiplicities.

        This is the paper's projection on the container level:
        ``(πα E)(y) = Σ_{αx = y} E(x)`` — a non-injective ``function``
        merges elements by adding their multiplicities (no duplicate
        elimination, the crux of bag semantics).
        """
        counts: Dict[Any, int] = {}
        for element, count in self._counts.items():
            image = function(element)
            counts[image] = counts.get(image, 0) + count
        return Multiset._from_counts(counts)

    def product(
        self,
        other: "Multiset[Any]",
        combine: Callable[[T, Any], Any],
    ) -> "Multiset[Any]":
        """Cartesian product with ``combine`` building the result element.

        ``(E1 × E2)(combine(x, y)) = E1(x) · E2(y)`` — multiplicities
        multiply, as in Definition 3.1.
        """
        counts: Dict[Any, int] = {}
        for left, left_count in self._counts.items():
            for right, right_count in other._counts.items():
                image = combine(left, right)
                counts[image] = counts.get(image, 0) + left_count * right_count
        return Multiset._from_counts(counts)

    # -- mutation (container building only; the algebra never mutates) ------------

    def add(self, element: T, count: int = 1) -> None:
        """Add ``count`` occurrences of ``element`` in place."""
        _check_count(count)
        if count == 0:
            return
        self._counts[element] = self._counts.get(element, 0) + count
        self._size += count

    def discard(self, element: T, count: int = 1) -> int:
        """Remove up to ``count`` occurrences in place; return how many were removed."""
        _check_count(count)
        present = self._counts.get(element, 0)
        removed = min(present, count)
        if removed:
            remaining = present - removed
            if remaining:
                self._counts[element] = remaining
            else:
                del self._counts[element]
            self._size -= removed
        return removed

    def copy(self) -> "Multiset[T]":
        """A shallow copy (elements are shared, counts are not)."""
        return Multiset._from_counts(dict(self._counts))

    # -- presentation ---------------------------------------------------------------

    def to_dict(self) -> Dict[T, int]:
        """A fresh ``element -> multiplicity`` dict."""
        return dict(self._counts)

    def __repr__(self) -> str:
        if not self._counts:
            return "Multiset()"
        preview = ", ".join(
            f"{element!r}: {count}" for element, count in list(self._counts.items())[:8]
        )
        suffix = ", ..." if self.support_size > 8 else ""
        return f"Multiset({{{preview}{suffix}}})"


class Delta(Generic[T]):
    """A change to a bag, ``(Δ⁻, Δ⁺)``: one multiset over Z split by sign.

    Applying it to ``R`` gives ``(R − Δ⁻) ⊎ Δ⁺``
    (:meth:`Multiset.apply_delta`).  Deleting one instance of ``x`` is
    ``(x, −1)``, not "the tuple ``x``".  A *normalized* delta has
    disjoint supports, so it states the net change of every element;
    :meth:`normalized` cancels what both sides share.
    """

    __slots__ = ("minus", "plus")

    def __init__(
        self,
        minus: "Multiset[T] | None" = None,
        plus: "Multiset[T] | None" = None,
    ) -> None:
        self.minus: Multiset[T] = minus if minus is not None else Multiset.empty()
        self.plus: Multiset[T] = plus if plus is not None else Multiset.empty()

    @classmethod
    def between(cls, before: Multiset[T], after: Multiset[T]) -> "Delta[T]":
        """The normalized delta turning ``before`` into ``after`` (a full diff)."""
        return cls(before.difference(after), after.difference(before))

    def normalized(self) -> "Delta[T]":
        """The same net change with the shared part cancelled."""
        shared = self.minus.intersection(self.plus)
        if not shared:
            return self
        return Delta(self.minus.difference(shared), self.plus.difference(shared))

    def then(self, later: "Delta[T]") -> "Delta[T]":
        """This change followed by ``later``, as one normalized delta."""
        return Delta(
            self.minus.union(later.minus), self.plus.union(later.plus)
        ).normalized()

    def inverse(self) -> "Delta[T]":
        """The change that undoes this one: ``(Δ⁺, Δ⁻)``."""
        return Delta(self.plus, self.minus)

    @property
    def support_size(self) -> int:
        """Distinct elements stored on both sides — the delta's footprint."""
        return self.minus.support_size + self.plus.support_size

    def __bool__(self) -> bool:
        return bool(self.minus) or bool(self.plus)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Delta):
            return self.minus == other.minus and self.plus == other.plus
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Delta(minus={self.minus!r}, plus={self.plus!r})"


def _check_count(count: int) -> None:
    if not isinstance(count, int) or isinstance(count, bool):
        raise TypeError(f"multiplicity must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"multiplicity must be non-negative, got {count}")
