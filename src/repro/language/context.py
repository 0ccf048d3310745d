"""Execution contexts for statements, programs, and transactions.

A context is a *working state*: a copy of the database's relations plus
the temporary relations created by assignment statements, plus the
outputs produced by query statements.  Statements mutate the context;
the transaction machinery decides whether the working state ever becomes
the next database state ``D^{t+1}`` (Definition 4.3).

The context also records what commit validates (the epochs pinned with
the snapshot, the base relations read) and yields the net deltas.  It
owns the evaluation strategy: the reference evaluator
by default, optionally the physical engine and/or the optimizer — and,
when a :class:`~repro.cache.QueryCache` is attached, every expression
evaluation is routed through it.  The cache decides per lookup whether
the result level applies (it bypasses itself for temporaries and for
working states that have diverged from the installed database state,
which is why attaching a cache to transactional contexts is safe).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set

from repro.algebra import AlgebraExpr
from repro.cache.fingerprint import base_relations
from repro.engine import StatisticsCatalog, evaluate, execute
from repro.errors import DuplicateRelationError, UnknownRelationError
from repro.multiset import Delta
from repro.relation import Relation

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """Working state for statement execution."""

    def __init__(
        self,
        relations: Mapping[str, Relation],
        use_physical_engine: bool = False,
        optimizer: Optional[Callable[[AlgebraExpr], AlgebraExpr]] = None,
        cache: Optional[object] = None,
        database: Optional[object] = None,
        engine: str = "vector",
        account: Optional[object] = None,
    ) -> None:
        # ``engine`` is kept for ``benchmarks/e2e/``, which passes
        # "vector"; there is only one physical engine.
        if engine != "vector":
            raise ValueError(f"engine must be 'vector', not {engine!r}")
        #: Working copies of the base relations.
        self.relations: Dict[str, Relation] = dict(relations)
        #: The base relations as pinned, for :meth:`deltas`.
        self._pinned_relations: Dict[str, Relation] = dict(relations)
        #: Temporary relations created by assignment statements.
        self.temporaries: Dict[str, Relation] = {}
        #: Results of query statements, in execution order.
        self.outputs: List[Relation] = []
        self._use_physical_engine = use_physical_engine
        self._optimizer = optimizer
        #: Optional :class:`~repro.cache.QueryCache` consulted by
        #: :meth:`evaluate`; None evaluates directly.
        self.cache = cache
        #: The database this working state was snapshotted from — the
        #: cache needs it to check epochs and working-state divergence.
        self.database = database
        #: The database's epoch vector and logical time at the snapshot.
        self.pinned: Dict[str, int] = database.epochs() if database is not None else {}
        self.pinned_time = database.logical_time if database is not None else 0
        #: Relations read: named by an evaluated expression, or a delete/update target.
        self.reads: Set[str] = set()
        #: Optional :class:`~repro.obs.telemetry.ResourceAccount` metering
        #: this context's evaluations (the server attaches one per
        #: request).  Mutable: a pinned transaction context outlives a
        #: single request, so each request swaps its own account in.
        self.account = account

    # -- name resolution -------------------------------------------------

    def environment(self) -> Dict[str, Relation]:
        """Base relations and temporaries together (names are disjoint)."""
        env = dict(self.relations)
        env.update(self.temporaries)
        return env

    def get_relation(self, name: str) -> Relation:
        if name in self.temporaries:
            return self.temporaries[name]
        if name in self.relations:
            return self.relations[name]
        raise UnknownRelationError(name)

    def set_relation(self, name: str, relation: Relation) -> None:
        """Replace an existing base or temporary relation."""
        if name in self.temporaries:
            self.temporaries[name] = relation
        elif name in self.relations:
            self.relations[name] = relation
        else:
            raise UnknownRelationError(name)

    def bind_temporary(self, name: str, relation: Relation) -> None:
        """Create (or rebind) a temporary relation.

        Shadowing a base relation is rejected: the paper's assignment
        defines a *new* variable, and silently hiding a stored relation
        would make programs treacherous to read.
        """
        if name in self.relations:
            raise DuplicateRelationError(name)
        self.temporaries[name] = relation.rename(name)

    def deltas(self) -> Dict[str, Delta]:
        """Each written base relation's net delta against its pinned version."""
        pinned = self._pinned_relations
        return {
            name: relation.delta_from(pinned[name])
            for name, relation in self.relations.items()
            if relation is not pinned[name]
        }

    # -- evaluation strategy (read by the cache) --------------------------

    @property
    def use_physical_engine(self) -> bool:
        return self._use_physical_engine

    @property
    def optimizer(self) -> Optional[Callable[[AlgebraExpr], AlgebraExpr]]:
        return self._optimizer

    # -- expression evaluation --------------------------------------------------

    def evaluate(self, expr: AlgebraExpr) -> Relation:
        """Evaluate ``expr`` against the working state.

        When an :attr:`account` is attached, it is activated for the
        calling thread around the evaluation so the engine's scan /
        duplicate-elimination / cache call sites can credit it, and the
        result cardinalities are tallied here.
        """
        self.reads.update(base_relations(expr) & self.relations.keys())
        if self.account is None:
            return self._evaluate_direct(expr)
        from repro.obs.telemetry import activate

        with activate(self.account) as acct:
            result = self._evaluate_direct(expr)
            acct.evaluations += 1
            acct.rows_emitted += len(result)  # bag cardinality
            acct.pairs_emitted += result.distinct_count
        return result

    def _evaluate_direct(self, expr: AlgebraExpr) -> Relation:
        if self.cache is not None:
            return self.cache.evaluate(expr, self)
        if self._optimizer is not None:
            expr = self._optimizer(expr)
        env = self.environment()
        if self._use_physical_engine:
            return execute(expr, env)
        return evaluate(expr, env)

    def statistics(self) -> StatisticsCatalog:
        """Exact statistics of the working state (for cost-based choices)."""
        return StatisticsCatalog.from_env(self.environment())
