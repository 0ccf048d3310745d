"""A thread-safe :class:`~repro.cache.QueryCache` for concurrent readers.

:class:`QueryCache` assumes single-threaded use: both levels are
``OrderedDict``\\ s mutated on every lookup (LRU movement, eviction), so
sharing one between the server's executor threads would corrupt them.
:class:`ConcurrentQueryCache` keeps the exact same semantics — same
fingerprints, same epoch validity rule, same eviction budget — but takes
an internal lock around every *bookkeeping* step while leaving query
**execution** outside the lock.  Concurrent misses of the same query may
therefore both execute (the second store wins harmlessly: relations are
immutable values and both were computed at the same epochs or the later
store carries the later epochs); what can never happen is a torn LRU
structure or a result served under the wrong epoch tag.

This is the cache :mod:`repro.server` attaches to its sessions, one
instance shared by every connection over the shared database.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Tuple

from repro.cache.cache import PlanKey, QueryCache
from repro.cache.plan import Plan
from repro.relation import Relation

__all__ = ["ConcurrentQueryCache"]


class ConcurrentQueryCache(QueryCache):
    """Epoch-invalidated query cache safe to share across threads."""

    def __init__(
        self,
        max_bytes: int = 64 * 1024 * 1024,
        max_entries: int = 1024,
    ) -> None:
        super().__init__(max_bytes=max_bytes, max_entries=max_entries)
        self._lock = threading.RLock()

    # -- bookkeeping under the lock --------------------------------------

    @property
    def synchronized(self) -> threading.RLock:
        """The cache's internal lock.

        Writers that *install* new database states (bumping epochs) while
        readers are mid-lookup should hold this lock around the install:
        the cache snapshots its epoch vector under the same lock, so an
        install can never interleave a half-bumped vector into a lookup
        (which could mistag or misserve an entry).  :mod:`repro.server`
        does exactly this on its commit path.
        """
        return self._lock

    def _lookup(self, plan: Plan, context: Any) -> Tuple[Optional[Relation], Any]:
        # Applicability + the epoch snapshot are one atomic read:
        # installs hold the same lock (see :attr:`synchronized`).
        with self._lock:
            return super()._lookup(plan, context)

    def _store(self, key: str, relation: Relation, deps: frozenset, epochs: Any) -> None:
        with self._lock:
            super()._store(key, relation, deps, epochs)

    def _cached_plan(self, key: PlanKey) -> Optional[Plan]:
        with self._lock:
            return super()._cached_plan(key)

    def _keep_plan(self, key: PlanKey, plan: Plan) -> Plan:
        # Two threads missing one key may both build (outside the lock);
        # the first keep wins and the loser adopts it.
        with self._lock:
            return super()._keep_plan(key, plan)

    # -- maintenance -----------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            super().clear()
