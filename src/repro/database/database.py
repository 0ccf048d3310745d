"""Database instances (Definition 2.5) with logical time (Definition 2.6).

A :class:`Database` holds one relation instance per schema in its
database schema, plus a *logical time* counter.  Every committed
transaction produces a single-step transition ``D^t -> D^{t+1}``; the
database records these transitions so tests and examples can inspect the
exact state sequence the paper's transaction semantics prescribes.

Relations are immutable values, so a snapshot is cheap: a state is
just a name->relation dict copy.  Nothing but :meth:`commit` (and the
direct DDL-style setters) changes the installed state, so rolling a
transaction back means discarding its working state — never writing an
old state over newer commits.  Because :meth:`commit` checks that
nothing a transaction read has changed since its snapshot, committed
transactions are serializable in logical-time order.

Besides the global logical time, the database keeps one *epoch* per
relation name: a counter bumped exactly when a committed transition (or
a direct ``set``/``create_relation``/``drop_relation``) changes that
relation's contents.  Epochs are both the commit-time validation clock
and the invalidation clock of :mod:`repro.cache` — a cached result is
valid while the epochs of the relations it read are unchanged.  An
aborted transaction never reaches :meth:`commit`, so it leaves every
epoch untouched by construction.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Mapping, Optional

from repro.database.transitions import DatabaseTransition
from repro.errors import (
    SchemaMismatchError,
    TransactionConflictError,
    UnknownRelationError,
)
from repro.multiset import Delta
from repro.relation import Relation
from repro.schema import DatabaseSchema, RelationSchema

__all__ = ["Database", "DatabaseState"]

#: A database state: an immutable name -> relation mapping.
DatabaseState = Mapping[str, Relation]


class Database:
    """A mutable database instance over a fixed database schema."""

    def __init__(self, schema: Optional[DatabaseSchema] = None) -> None:
        self.schema = schema or DatabaseSchema()
        self._relations: Dict[str, Relation] = {
            relation_schema.name: Relation.empty(relation_schema)
            for relation_schema in self.schema
            if relation_schema.name is not None
        }
        self._logical_time = 0
        self._transitions: list[DatabaseTransition] = []
        #: Per-relation change counters (see :meth:`epoch`).  Names are
        #: never removed: re-creating a dropped relation must not reuse
        #: an epoch a stale cache entry was tagged with.
        self._epochs: Dict[str, int] = {name: 0 for name in self._relations}
        #: The epoch each relation was (re-)created at (see :meth:`validate`).
        self._created: Dict[str, int] = dict(self._epochs)

    # -- schema evolution ------------------------------------------------

    def create_relation(
        self, schema: RelationSchema, relation: Optional[Relation] = None
    ) -> Relation:
        """Declare a new base relation (empty unless ``relation`` given)."""
        self.schema.add(schema)
        assert schema.name is not None
        if relation is None:
            relation = Relation.empty(schema)
        elif not relation.schema.compatible_with(schema):
            raise SchemaMismatchError(schema, relation.schema, "create_relation")
        self._relations[schema.name] = relation.rename(schema.name)
        self._bump_epoch(schema.name)
        self._created[schema.name] = self._epochs[schema.name]
        return self._relations[schema.name]

    def drop_relation(self, name: str) -> None:
        """Remove a base relation and its schema."""
        self.schema.remove(name)
        del self._relations[name]
        self._bump_epoch(name)

    # -- state access ----------------------------------------------------------

    @property
    def logical_time(self) -> int:
        """The logical time ``t`` of the current state ``D^t``."""
        return self._logical_time

    def epoch(self, name: str) -> int:
        """The change counter for relation ``name``.

        Starts at 0 when the relation is first known and increases
        monotonically on every content change.  Unknown names report 0
        (they gain a real epoch the moment they are created).
        """
        return self._epochs.get(name, 0)

    def epochs(self) -> Dict[str, int]:
        """A snapshot of every relation's epoch (copy, safe to keep)."""
        return dict(self._epochs)

    def _bump_epoch(self, name: str) -> None:
        self._epochs[name] = self._epochs.get(name, 0) + 1

    def get(self, name: str) -> Relation:
        """The current instance of relation ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __getitem__(self, name: str) -> Relation:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> list[str]:
        return sorted(self._relations)

    def set(self, name: str, relation: Relation) -> None:
        """Replace relation ``name`` (schema-checked).

        This is the ``←`` of Definition 4.1; statements use it, user code
        normally goes through statements or transactions instead.
        """
        declared = self.schema.get(name)
        if not relation.schema.compatible_with(declared):
            raise SchemaMismatchError(declared, relation.schema, f"set {name!r}")
        self._relations[name] = relation.rename(name)
        self._bump_epoch(name)

    def as_env(self) -> Mapping[str, Relation]:
        """A read-only view usable as an evaluation environment."""
        return MappingProxyType(self._relations)

    # -- states and transitions ----------------------------------------------------

    def snapshot(self) -> DatabaseState:
        """The current state ``D^t`` as an immutable value."""
        return dict(self._relations)

    def commit(
        self,
        pinned: Mapping[str, int],
        reads: Iterable[str],
        deltas: Mapping[str, Delta],
    ) -> DatabaseTransition:
        """Commit a transaction's net deltas as ``D^{t+1}``, or refuse it.

        ``pinned`` is the epoch vector taken with its snapshot, ``reads``
        every base relation it read, ``deltas`` each written relation's net
        ``(Δ⁻, Δ⁺)``.  After :meth:`validate` each delta is applied to the
        *head*: a blind insert lands on a version newer than its snapshot,
        the serial result as ⊎ commutes (Theorem 3.3).
        """
        self.validate(pinned, reads, deltas)
        return self._advance(deltas)

    def validate(
        self,
        pinned: Mapping[str, int],
        reads: Iterable[str],
        deltas: Mapping[str, Delta],
    ) -> None:
        """Backward validation at relation granularity (Kung & Robinson).

        Raises :class:`~repro.errors.TransactionConflictError` if a relation
        in ``reads`` left its pinned epoch or a delta's target was dropped
        or re-created since; a transaction without a delta serializes at
        its pin and is never refused.
        """
        written = [name for name, delta in deltas.items() if delta]
        stale = {name for name in reads if self.epoch(name) != pinned.get(name, 0)}
        stale.update(
            name for name in written
            if name not in self._relations or self._created[name] > pinned.get(name, 0)
        )
        if written and stale:
            raise TransactionConflictError(sorted(stale))

    def post_state(self, deltas: Mapping[str, Delta]) -> Dict[str, Relation]:
        """The head with ``deltas`` applied, not installed."""
        state = dict(self._relations)
        for name, delta in deltas.items():
            if delta:
                state[name] = state[name].apply_delta(delta)
        return state

    def install(self, state: DatabaseState) -> DatabaseTransition:
        """Install a hand-built state as ``D^{t+1}``, unvalidated."""
        head = self._relations
        changed = {name: new for name, new in state.items() if new is not head[name]}
        return self._advance({name: new.delta_from(head[name]) for name, new in changed.items()})

    def _advance(self, deltas: Mapping[str, Delta]) -> DatabaseTransition:
        """Apply ``deltas`` to the head and record one transition.

        Only relations with a non-empty delta get a new object and epoch;
        the transition keeps only the deltas (Definition 2.6), and no
        superseded version stays reachable from the database.
        """
        deltas = {name: delta for name, delta in deltas.items() if delta}
        after = self.post_state(deltas)
        for name in deltas:
            after[name].forget_lineage()
            self._bump_epoch(name)
        transition = DatabaseTransition.from_deltas(
            deltas, self._logical_time, self._logical_time + 1
        )
        self._relations = after
        self._logical_time += 1
        self._transitions.append(transition)
        return transition

    @property
    def transitions(self) -> list[DatabaseTransition]:
        """All committed transitions, oldest first."""
        return list(self._transitions)

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}[{len(relation)}]" for name, relation in sorted(self._relations.items())
        )
        return f"<Database t={self._logical_time} {inner}>"
