"""Execution contexts for statements, programs, and transactions.

A context is a *working state*: a copy of the database's relations plus
the temporary relations created by assignment statements, plus the
outputs produced by query statements.  Statements mutate the context;
the transaction machinery decides whether the working state ever becomes
the next database state ``D^{t+1}`` (Definition 4.3).

The context also records what commit validates (the epochs pinned with
the snapshot, the base relations read) and yields the net deltas.  It
owns the evaluation strategy: the reference evaluator
by default, optionally the physical engine and/or the optimizer.  Each
evaluation takes its :class:`~repro.cache.Plan` from :meth:`plan` and
runs it, through an attached :class:`~repro.cache.QueryCache`'s two
levels.  The cache decides per lookup whether
the result level applies (it bypasses itself for temporaries and for
working states that have diverged from the installed database state,
which is why attaching a cache to transactional contexts is safe).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set

from repro.algebra import AlgebraExpr
from repro.cache.plan import Plan, build_plan
from repro.engine import StatisticsCatalog
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
        #: The evaluation strategy, read by :meth:`plan` and the cache.
        self.use_physical_engine = use_physical_engine
        self.optimizer = optimizer
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

    # -- expression evaluation --------------------------------------------------

    def plan(self, expr: AlgebraExpr) -> Plan:
        """The plan this working state runs ``expr`` with (cached if it can be)."""
        if self.cache is not None:
            return self.cache.plan(expr, self.optimizer, self.use_physical_engine)
        return build_plan(expr, self.optimizer, self.use_physical_engine)

    def evaluate(self, expr: AlgebraExpr) -> Relation:
        """Evaluate ``expr`` against the working state: plan it, run it."""
        return self.run(self.plan(expr))

    def run(self, plan: Plan) -> Relation:
        """Run ``plan`` against the working state (via the cache if attached).

        The plan's read set joins :attr:`reads`.  An attached
        :attr:`account` is active around the run: it meters the
        operators, takes the cache's hits and misses, and tallies the
        result cardinalities.
        """
        self.reads.update(plan.deps & self.relations.keys())
        if self.account is None:
            return self._run(plan)
        from repro.obs.telemetry import activate

        with activate(self.account) as acct:
            result = self._run(plan)
            acct.evaluations += 1
            acct.rows_emitted += len(result)  # bag cardinality
            acct.pairs_emitted += result.distinct_count
        return result

    def _run(self, plan: Plan) -> Relation:
        if self.cache is not None:
            return self.cache.run(plan, self)
        return plan.run(self.environment())

    def statistics(self) -> StatisticsCatalog:
        """Exact statistics of the working state (for cost-based choices)."""
        return StatisticsCatalog.from_env(self.environment())
