"""Database instances (Definition 2.5) with logical time (Definition 2.6).

A :class:`Database` holds one relation instance per schema in its
database schema, plus a *logical time* counter.  Every committed
transaction produces a single-step transition ``D^t -> D^{t+1}``; the
database records these transitions so tests and examples can inspect the
exact state sequence the paper's transaction semantics prescribes.

Relations are immutable values, so a snapshot is cheap: a state is
just a name->relation dict copy.  Nothing but :meth:`install` (and the
direct DDL-style setters) changes the installed state, so rolling a
transaction back means discarding its working state — never writing an
old state over newer commits.

Besides the global logical time, the database keeps one *epoch* per
relation name: a counter bumped exactly when a committed transition (or
a direct ``set``/``create_relation``/``drop_relation``) changes that
relation's contents.  Epochs are the invalidation clock of
:mod:`repro.cache` — a cached result is valid while the epochs of the
relations it read are unchanged.  An aborted transaction never reaches
:meth:`install`, so it leaves every epoch untouched by construction.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Optional

from repro.database.transitions import DatabaseTransition
from repro.errors import SchemaMismatchError, UnknownRelationError
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

    def install(self, state: DatabaseState) -> DatabaseTransition:
        """Commit ``state`` as ``D^{t+1}`` and advance logical time.

        Per relation the net change ``(Δ⁻, Δ⁺)`` is read off the deltas
        the statements chained onto the new relation
        (:meth:`~repro.relation.Relation.delta_from`; a diff only for
        hand-built states).  A relation whose net delta is empty keeps
        its installed object and its epoch; every other one bumps its
        epoch.  The recorded single-step transition (Definition 2.6)
        holds only the deltas, and the installed relations drop their
        link to the versions they replace, so no superseded state stays
        reachable from the database.
        """
        before = self._relations
        after = dict(state)
        deltas: Dict[str, Delta] = {}
        for name in before.keys() | after.keys():
            old = before.get(name)
            new = after.get(name)
            if old is new:
                continue
            if new is None:
                delta = Delta(minus=old.tuples)
            else:
                delta = new.delta_from(old) if old is not None else Delta(plus=new.tuples)
                new.forget_lineage()
                if old is not None and not delta:
                    after[name] = old
                    continue
            deltas[name] = delta
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
