"""Database transitions (Definition 2.6).

A transition is an ordered pair of database states ``(D^{t1}, D^{t2})``
with ``t1 < t2``; the common case — and what committed transactions
produce — is the single-step transition ``t2 = t1 + 1``.

The pair is stored as per-relation deltas ``(Δ⁻, Δ⁺)`` with
``D^{t2} = (D^{t1} − Δ⁻) ⊎ Δ⁺``, so a recorded history costs O(Σ|Δ|)
rather than two full states per commit.  Either state is rebuilt from
the other with :meth:`DatabaseTransition.apply` /
:meth:`DatabaseTransition.revert`.
"""

from __future__ import annotations

from typing import Dict, Mapping, TYPE_CHECKING

from repro.multiset import Delta, Multiset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relation import Relation

__all__ = ["DatabaseTransition"]


def _bag(relation: "Relation | None") -> Multiset:
    return relation.tuples if relation is not None else Multiset.empty()


class DatabaseTransition:
    """An ordered pair of database states, kept as per-relation deltas."""

    __slots__ = ("deltas", "time_before", "time_after")

    def __init__(
        self,
        before: Mapping[str, "Relation"],
        after: Mapping[str, "Relation"],
        time_before: int,
        time_after: int,
    ) -> None:
        """The transition between two given states (a full diff)."""
        deltas = {}
        for name in before.keys() | after.keys():
            delta = Delta.between(_bag(before.get(name)), _bag(after.get(name)))
            if delta:
                deltas[name] = delta
        self._setup(deltas, time_before, time_after)

    @classmethod
    def from_deltas(
        cls, deltas: Mapping[str, Delta], time_before: int, time_after: int
    ) -> "DatabaseTransition":
        """The transition whose non-empty per-relation deltas are given."""
        transition = cls.__new__(cls)
        transition._setup(deltas, time_before, time_after)
        return transition

    def _setup(
        self, deltas: Mapping[str, Delta], time_before: int, time_after: int
    ) -> None:
        if time_before >= time_after:
            raise ValueError(
                f"transition requires t1 < t2, got {time_before} >= {time_after}"
            )
        self.deltas: Dict[str, Delta] = dict(deltas)
        self.time_before = time_before
        self.time_after = time_after

    @property
    def is_single_step(self) -> bool:
        """True for the usual ``t2 = t1 + 1`` transition."""
        return self.time_after == self.time_before + 1

    @property
    def delta_size(self) -> int:
        """Distinct tuples stored across every delta (the history cost)."""
        return sum(delta.support_size for delta in self.deltas.values())

    def changed_relations(self) -> list[str]:
        """Names whose instance differs between the two states."""
        return sorted(name for name, delta in self.deltas.items() if delta)

    def apply(self, before: Mapping[str, "Relation"]) -> Dict[str, "Relation"]:
        """``D^{t2}`` rebuilt from ``D^{t1}``: ``(D^{t1} − Δ⁻) ⊎ Δ⁺``."""
        return self._shift(before, invert=False)

    def revert(self, after: Mapping[str, "Relation"]) -> Dict[str, "Relation"]:
        """``D^{t1}`` rebuilt from ``D^{t2}``: ``(D^{t2} − Δ⁺) ⊎ Δ⁻``."""
        return self._shift(after, invert=True)

    def _shift(
        self, state: Mapping[str, "Relation"], invert: bool
    ) -> Dict[str, "Relation"]:
        shifted = dict(state)
        for name, delta in self.deltas.items():
            if name in shifted:
                step = delta.inverse() if invert else delta
                shifted[name] = shifted[name].apply_delta(step)
        return shifted

    def __repr__(self) -> str:
        changed = ", ".join(self.changed_relations()) or "nothing"
        return (
            f"<Transition t{self.time_before}->t{self.time_after} "
            f"changed: {changed}>"
        )
