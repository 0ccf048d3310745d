"""The two-level query cache: plans and epoch-tagged results.

An :class:`~repro.language.context.ExecutionContext` wired with a
cache plans every expression through :meth:`QueryCache.plan` and runs
it through :meth:`QueryCache.run` (``evaluate`` chains the two):

1. **Plan level** — keyed on the raw expression tree (structural
   equality, so re-building the same fluent query hits), the optimizer
   and the engine.  An entry is the :class:`~repro.cache.plan.Plan`
   :func:`build_plan` made.  A hit skips the optimizer and the planner.
2. **Result level** — keyed on the fingerprint of the *normal form*,
   so syntactically different but equivalent queries (Theorems
   3.1–3.3) share one entry.  Each entry carries the per-relation
   epochs it was computed at; it is served only while the database's
   epochs for every relation in the read set are unchanged — i.e. no
   committed transition has touched anything the query read.

Correctness guards (bypass, never wrong answers):

* expressions reading a *temporary* relation (``R := E`` bindings) are
  never cached — temporary contents are transaction-local;
* inside a transaction, once a statement has modified a base relation,
  reads over it no longer match the installed database state and
  bypass the cache (identity check against the database's relation);
* relations are immutable values, so serving the same
  :class:`~repro.relation.Relation` object to every hit is safe;
* a strict-lint session's plans (made by the checked optimizer) are
  never served to other sessions, nor theirs to it.

Eviction is LRU over a max-bytes + max-entries budget; a result larger
than the whole budget is simply not cached.  All cache traffic is
counted twice: always in :class:`CacheStats` (the CLI's ``.cache
stats``), and into the :mod:`repro.obs` metrics registry (``cache.*``
counters) while observability is enabled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.algebra import AlgebraExpr
from repro.cache.plan import Plan, build_plan
from repro import obs
from repro.obs.telemetry import account as _active_account
from repro.relation import Relation

__all__ = ["QueryCache", "CacheStats", "CachedResult"]

#: A plan-level key: the raw tree, the optimizer, and whether physical.
PlanKey = Tuple[AlgebraExpr, Optional[Callable[..., AlgebraExpr]], bool]

def estimate_bytes(relation: Relation) -> int:
    """A cheap size estimate of a materialised relation.

    Counts distinct tuples (the multiset stores pairs), not total
    multiplicity: ``96`` bytes of dict/entry overhead per pair plus
    ``32`` per attribute slot.  The point is a stable eviction budget,
    not accounting-grade numbers.
    """
    return 96 + relation.distinct_count * (56 + 32 * relation.schema.degree)


class CacheStats:
    """Counters for every way a lookup can go (monotonic, per cache)."""

    __slots__ = (
        "result_hits", "result_misses", "plan_hits", "plan_misses",
        "bypasses", "invalidations", "evictions",
    )

    def __init__(self) -> None:
        self.result_hits = 0
        self.result_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        #: Lookups that never consulted the result level (temporaries,
        #: diverged working state, no database attached).
        self.bypasses = 0
        #: Entries dropped because a dependency's epoch moved on.
        self.invalidations = 0
        #: Entries dropped to stay inside the size budget.
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Result-level hits over result-level lookups (0.0 when idle)."""
        lookups = self.result_hits + self.result_misses
        return self.result_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        record = {name: getattr(self, name) for name in self.__slots__}
        record["hit_rate"] = round(self.hit_rate, 4)
        return record

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.result_hits} misses={self.result_misses}"
            f" rate={self.hit_rate:.2f} evictions={self.evictions}>"
        )


class CachedResult:
    """One materialised result and the epochs it is valid at."""

    __slots__ = ("relation", "deps", "epochs", "nbytes")

    def __init__(
        self,
        relation: Relation,
        deps: frozenset,
        epochs: Dict[str, int],
        nbytes: int,
    ) -> None:
        self.relation = relation
        self.deps = deps
        self.epochs = epochs
        self.nbytes = nbytes


class QueryCache:
    """A shared, two-level, epoch-invalidated query cache."""

    def __init__(
        self,
        max_bytes: int = 64 * 1024 * 1024,
        max_entries: int = 1024,
    ) -> None:
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._plans: "OrderedDict[PlanKey, Plan]" = OrderedDict()
        self._results: "OrderedDict[str, CachedResult]" = OrderedDict()
        self._bytes = 0

    # -- inspection ------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Estimated bytes held by the result level."""
        return self._bytes

    def __len__(self) -> int:
        """Number of cached results."""
        return len(self._results)

    @property
    def plan_entries(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        """Drop both levels (stats are kept — they are monotonic)."""
        self._plans.clear()
        self._results.clear()
        self._bytes = 0

    def result_cached(self, result_fingerprint: str) -> bool:
        """Is a result materialised under this normal-form fingerprint?

        Provenance only — does not check epoch validity, touch LRU
        order, or count as a lookup.
        """
        return result_fingerprint in self._results

    # -- the plan level --------------------------------------------------

    def plan(
        self,
        expr: AlgebraExpr,
        optimizer: Optional[Callable[..., AlgebraExpr]],
        physical: bool,
    ) -> Plan:
        """``expr``'s plan as ``optimizer`` and ``physical`` make it, kept."""
        key = (expr, optimizer, physical)
        plan = self._cached_plan(key)
        if plan is None:
            plan = self._keep_plan(key, build_plan(expr, optimizer, physical))
        return plan

    def _cached_plan(self, key: PlanKey) -> Optional[Plan]:
        plan = self._plans.get(key)
        if plan is None:
            self.stats.plan_misses += 1
            obs.add("cache.misses", level="plan")
            return None
        self._plans.move_to_end(key)
        self.stats.plan_hits += 1
        obs.add("cache.hits", level="plan")
        return plan

    def _keep_plan(self, key: PlanKey, plan: Plan) -> Plan:
        """Keep ``plan``, or the one already kept under ``key``; return it."""
        kept = self._plans.setdefault(key, plan)
        while len(self._plans) > self.max_entries:
            self._plans.popitem(last=False)
        return kept

    # -- the result level --------------------------------------------------

    def evaluate(self, expr: AlgebraExpr, context: Any) -> Relation:
        """Plan ``expr`` as ``context`` does, then :meth:`run` it."""
        plan = self.plan(expr, context.optimizer, context.use_physical_engine)
        return self.run(plan, context)

    def run(self, plan: Plan, context: Any) -> Relation:
        """Run ``plan`` for ``context``, serving its result if still valid."""
        served, epochs = self._lookup(plan, context)
        if served is not None:
            return served
        relation = plan.run(context.environment())
        if epochs is not None:
            self._store(plan.fingerprint, relation, plan.deps, epochs)
        return relation

    def _lookup(
        self, plan: Plan, context: Any
    ) -> Tuple[Optional[Relation], Optional[Dict[str, int]]]:
        """A still-valid result for ``plan``, else the epochs to keep one at.

        Both are None when the result level does not apply.
        """
        database = getattr(context, "database", None)
        if not self._result_level_applies(plan.deps, context, database):
            self.stats.bypasses += 1
            obs.add("cache.bypasses")
            return None, None
        epochs = {name: database.epoch(name) for name in plan.deps}
        cached = self._results.get(plan.fingerprint)
        if cached is not None:
            if cached.epochs == epochs:
                self._results.move_to_end(plan.fingerprint)
                self.stats.result_hits += 1
                obs.add("cache.hits", level="result")
                if (acct := _active_account()) is not None:
                    acct.cache_hits += 1
                return cached.relation, epochs
            # A transition bumped an epoch this entry depends on.
            self._drop(plan.fingerprint)
            self.stats.invalidations += 1
            obs.add("cache.invalidations")
        self.stats.result_misses += 1
        obs.add("cache.misses", level="result")
        if (acct := _active_account()) is not None:
            acct.cache_misses += 1
        return None, epochs

    def _result_level_applies(
        self, deps: frozenset, context: Any, database: Optional[Any]
    ) -> bool:
        """Can a materialised result be keyed purely on database epochs?

        Only when every relation the expression reads resolves to the
        database's *currently installed* instance: no temporaries, no
        in-transaction modifications, no detached environments.
        """
        if database is None:
            return False
        temporaries = context.temporaries
        for name in deps:
            if name in temporaries:
                return False
            if name not in database:
                return False
            if context.get_relation(name) is not database.get(name):
                return False
        return True

    # -- result storage ---------------------------------------------------

    def _store(
        self,
        key: str,
        relation: Relation,
        deps: frozenset,
        epochs: Dict[str, int],
    ) -> None:
        nbytes = estimate_bytes(relation)
        if nbytes > self.max_bytes:
            return
        previous = self._results.pop(key, None)
        if previous is not None:
            self._bytes -= previous.nbytes
        self._results[key] = CachedResult(relation, deps, epochs, nbytes)
        self._bytes += nbytes
        while self._results and (
            self._bytes > self.max_bytes or len(self._results) > self.max_entries
        ):
            evicted_key, evicted = self._results.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1
            obs.add("cache.evictions")
            if evicted_key == key:
                break
        obs.gauge("cache.bytes", self._bytes)
        obs.gauge("cache.entries", len(self._results))

    def _drop(self, key: str) -> None:
        entry = self._results.pop(key, None)
        if entry is not None:
            self._bytes -= entry.nbytes

    def __repr__(self) -> str:
        return (
            f"<QueryCache {len(self._results)} result(s), "
            f"{len(self._plans)} plan(s), ~{self._bytes} bytes, "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )
