"""Tests for :mod:`repro.cache`: fingerprints, epochs, the two-level
cache, its CLI surface, and the cached-vs-uncached differential matrix.

The load-bearing test is the differential matrix at the bottom: random
query/transition interleavings (from :mod:`repro.testing.exprgen`) run
against two identical databases, one session cached and one not, and
every query result and every post-transition database state must be
bag-equal.  That is the operational form of the cache's correctness
claim — a cache you cannot distinguish from no cache, except by speed.
"""

from __future__ import annotations

import io

import pytest

from repro.algebra import GroupBy, LiteralRelation, RelationRef
from repro.cache import QueryCache, base_relations, canonical_text, fingerprint
from repro.cli import Shell
from repro.database import Database
from repro.errors import EmptyAggregateError
from repro.language import Session
from repro.optimizer import optimize
from repro.testing import ExpressionGenerator, random_environment
from repro.workloads import random_int_relation, tiny_beer_database
from repro.xra import XRAInterpreter


def make_database(env) -> Database:
    """A database holding (copies of) the given named relations."""
    database = Database()
    for name in sorted(env):
        relation = env[name]
        database.create_relation(relation.schema, relation)
    return database


@pytest.fixture
def env():
    return random_environment(tables=3, size=40, degree=2, value_space=5, seed=3)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_structurally_equal_trees_share_a_fingerprint(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        a = t1.select("%1 > 2").project(["%2"])
        b = RelationRef("t1", env["t1"].schema).select("%1 > 2").project(["%2"])
        assert fingerprint(a) == fingerprint(b)

    def test_different_conditions_differ(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        assert fingerprint(t1.select("%1 > 2")) != fingerprint(t1.select("%1 > 3"))

    def test_equivalent_shapes_converge_under_normalization(self, env):
        """σ_φ(E1 ⊎ E2) and σ_φE1 ⊎ σ_φE2 — Theorem 3.2 as a cache key."""
        t1 = RelationRef("t1", env["t1"].schema)
        t2 = RelationRef("t2", env["t2"].schema)
        pushed = t1.select("%1 = 1").union(t2.select("%1 = 1"))
        unpushed = t1.union(t2).select("%1 = 1")
        assert fingerprint(optimize(pushed)) == fingerprint(optimize(unpushed))

    def test_literal_contents_are_part_of_the_key(self, env):
        lit_a = LiteralRelation(random_int_relation(5, seed=1))
        lit_b = LiteralRelation(random_int_relation(5, seed=2))
        lit_a2 = LiteralRelation(random_int_relation(5, seed=1))
        assert fingerprint(lit_a) != fingerprint(lit_b)
        assert fingerprint(lit_a) == fingerprint(lit_a2)

    def test_base_relations_is_the_read_set(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        t2 = RelationRef("t2", env["t2"].schema)
        expr = t1.join(t2, "%1 = %3").select("%2 > 0")
        assert base_relations(expr) == {"t1", "t2"}

    def test_canonical_text_is_deterministic(self, env):
        t1 = RelationRef("t1", env["t1"].schema)
        expr = t1.select("%1 > 2")
        assert canonical_text(expr) == canonical_text(expr)


# ---------------------------------------------------------------------------
# Epochs on the database
# ---------------------------------------------------------------------------


class TestEpochs:
    def test_fresh_relations_start_together(self, env):
        database = make_database(env)
        assert database.epoch("t1") == database.epoch("t2")

    def test_committed_insert_bumps_only_the_target(self, env):
        database = make_database(env)
        session = Session(database)
        before_t1 = database.epoch("t1")
        before_t2 = database.epoch("t2")
        session.insert("t1", LiteralRelation(random_int_relation(3, seed=9)))
        assert database.epoch("t1") == before_t1 + 1
        assert database.epoch("t2") == before_t2

    def test_no_op_transition_does_not_bump(self, env):
        database = make_database(env)
        session = Session(database)
        before = database.epoch("t1")
        # Deleting nothing commits a transition but leaves t1's value
        # unchanged, so its epoch must not move.
        session.delete("t1", session.relation("t1").select("%1 > 999"))
        assert database.epoch("t1") == before

    def test_abort_restores_the_pre_transition_epoch(self, env):
        database = make_database(env)
        session = Session(database)
        before = database.epochs()
        with session.transaction() as txn:
            txn.insert("t1", LiteralRelation(random_int_relation(3, seed=9)))
            txn.abort()
        assert database.epochs() == before

    def test_drop_and_recreate_never_reuses_an_epoch(self, env):
        database = make_database(env)
        created_at = database.epoch("t1")
        schema = database.schema.get("t1")
        database.drop_relation("t1")
        database.create_relation(schema)
        assert database.epoch("t1") > created_at

    def test_direct_set_bumps(self, env):
        database = make_database(env)
        before = database.epoch("t1")
        database.set("t1", random_int_relation(3, seed=5, name="t1"))
        assert database.epoch("t1") == before + 1


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


class TestQueryCache:
    def test_repeat_query_is_a_hit_and_returns_the_same_object(self, env):
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        expr = session.relation("t1").select("%1 > 1").project(["%2"])
        first = session.query(expr)
        second = session.query(expr)
        assert second is first
        assert cache.stats.result_hits == 1
        assert cache.stats.result_misses == 1
        assert cache.stats.plan_hits == 1

    def test_equivalent_shapes_share_one_result_entry(self, env):
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        t1, t2 = session.relation("t1"), session.relation("t2")
        session.query(t1.union(t2).select("%1 = 1"))
        session.query(t1.select("%1 = 1").union(t2.select("%1 = 1")))
        assert cache.stats.result_hits == 1
        assert len(cache) == 1

    def test_write_invalidates_exactly_the_dependents(self, env):
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        on_t1 = session.relation("t1").select("%1 > 0")
        on_t2 = session.relation("t2").select("%1 > 0")
        session.query(on_t1)
        session.query(on_t2)
        session.insert("t1", LiteralRelation(random_int_relation(2, seed=4)))
        session.query(on_t2)  # untouched dependency: still a hit
        assert cache.stats.result_hits == 1
        session.query(on_t1)  # t1 moved on: recomputed
        assert cache.stats.invalidations == 1
        # Four misses: the two first-time queries, the insert's literal
        # source expression, and the recomputation of on_t1.
        assert cache.stats.result_misses == 4

    def test_temporaries_bypass_the_result_cache(self, env):
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        with session.transaction() as txn:
            txn.assign("tmp", txn.relation("t1").select("%1 > 1"))
            first = txn.query(txn.relation("tmp").project(["%1"]))
            second = txn.query(txn.relation("tmp").project(["%1"]))
        assert first == second
        assert cache.stats.result_hits == 0
        assert cache.stats.bypasses >= 2

    def test_temporary_assignment_results_never_go_stale(self, env):
        """Two transactions binding the same temp name to different
        contents must not see each other's results through the cache."""
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        probe = None
        with session.transaction() as txn:
            txn.assign("tmp", txn.relation("t1").select("%1 > 1"))
            probe = txn.query(txn.relation("tmp"))
        with session.transaction() as txn:
            txn.assign("tmp", txn.relation("t1").select("%1 <= 1"))
            other = txn.query(txn.relation("tmp"))
        assert len(probe) + len(other) == len(database.get("t1"))

    def test_in_transaction_modified_relations_bypass(self, env):
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        expr = session.relation("t1").project(["%1"])
        committed = session.query(expr)
        with session.transaction() as txn:
            txn.insert("t1", LiteralRelation(random_int_relation(4, seed=8)))
            inside = txn.query(txn.relation("t1").project(["%1"]))
            # The working state diverged: the cached pre-write result
            # must not be served.
            assert len(inside) == len(committed) + 4
            txn.abort()

    def test_abort_preserves_cached_results(self, env):
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        expr = session.relation("t1").select("%1 > 0")
        session.query(expr)
        with session.transaction() as txn:
            txn.insert("t1", LiteralRelation(random_int_relation(4, seed=8)))
            txn.abort()
        session.query(expr)
        assert cache.stats.result_hits == 1  # still valid after rollback
        assert cache.stats.invalidations == 0

    def test_empty_alpha_group_by_is_cacheable(self, env):
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        whole = GroupBy(None, "CNT", None, session.relation("t1"))
        first = session.query(whole)
        second = session.query(whole)
        assert first == second
        assert first.multiplicity((len(database.get("t1")),)) == 1
        assert cache.stats.result_hits == 1

    def test_empty_alpha_group_by_over_empty_relation(self):
        database = Database()
        empty = random_int_relation(0, seed=1, name="empty")
        database.create_relation(empty.schema, empty)
        cached = Session(database, cache=True)
        plain = Session(database)
        whole = GroupBy(None, "CNT", None, cached.relation("empty"))
        assert cached.query(whole) == plain.query(whole)
        assert cached.query(whole) == plain.query(whole)

    def test_reference_engine_sessions_share_results_with_physical(self, env):
        database = make_database(env)
        cache = QueryCache()
        physical = Session(database, cache=cache)
        reference = Session(database, use_physical_engine=False, cache=cache)
        expr = RelationRef("t1", env["t1"].schema).select("%1 > 1")
        a = physical.query(expr)
        b = reference.query(expr)
        assert a == b
        assert cache.stats.result_hits == 1

    def test_eviction_respects_the_byte_budget(self, env):
        database = make_database(env)
        cache = QueryCache(max_bytes=2000)
        session = Session(database, cache=cache)
        t1 = session.relation("t1")
        for bound in range(12):
            session.query(t1.select(f"%1 > {bound}"))
        assert cache.nbytes <= 2000
        assert cache.stats.evictions > 0
        assert len(cache) < 12

    def test_oversized_results_are_not_cached(self, env):
        database = make_database(env)
        cache = QueryCache(max_bytes=8)
        session = Session(database, cache=cache)
        session.query(session.relation("t1"))
        assert len(cache) == 0

    def test_max_entries_bounds_the_result_count(self, env):
        database = make_database(env)
        cache = QueryCache(max_entries=3)
        session = Session(database, cache=cache)
        t1 = session.relation("t1")
        for bound in range(8):
            session.query(t1.select(f"%1 > {bound}"))
        assert len(cache) <= 3

    def test_clear_empties_both_levels(self, env):
        database = make_database(env)
        cache = QueryCache()
        session = Session(database, cache=cache)
        session.query(session.relation("t1"))
        cache.clear()
        assert len(cache) == 0
        assert cache.plan_entries == 0
        assert cache.nbytes == 0

    def test_session_cache_argument_forms(self, env):
        database = make_database(env)
        assert Session(database).cache is None
        assert isinstance(Session(database, cache=True).cache, QueryCache)
        shared = QueryCache()
        assert Session(database, cache=shared).cache is shared
        session = Session(database, cache=shared)
        session.set_cache(None)
        assert session.cache is None
        with pytest.raises(TypeError):
            session.set_cache(42)

    def test_slow_log_marks_cache_hits(self, env):
        database = make_database(env)
        session = Session(database, cache=True, slow_query_threshold=10.0)
        expr = session.relation("t1").select("%1 > 1")
        session.query(expr)
        session.query(expr)
        records = list(session.query_log.records)
        assert "(served from cache)" not in (records[0].plan or "")
        assert (records[1].plan or "").endswith("(served from cache)")

    def test_xra_interpreter_shares_the_cache(self, env):
        database = make_database(env)
        cache = QueryCache()
        interpreter = XRAInterpreter(Session(database, cache=cache))
        session = Session(database, cache=cache)
        interpreter.run("? sel[%1 > 1](t1);")
        session.query(session.relation("t1").select("%1 > 1"))
        assert cache.stats.result_hits == 1


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCacheCLI:
    def run_shell(self, text: str):
        out, err = io.StringIO(), io.StringIO()
        shell = Shell(tiny_beer_database(), out=out, err=err)
        shell.run(io.StringIO(text))
        return out.getvalue(), err.getvalue()

    def test_cache_lifecycle(self):
        out, err = self.run_shell(
            ".cache\n"
            ".cache on 8\n"
            "? proj[name](beer);\n"
            "? proj[name](beer);\n"
            ".cache stats\n"
            ".cache clear\n"
            ".cache off\n"
        )
        assert "query cache is off" in out
        assert "query cache on (8 MiB budget)" in out
        assert "result_hits" in out and "result_misses" in out
        assert "plans: 1" in out
        assert "query cache cleared" in out
        assert "query cache off" in out
        assert not err

    def test_cache_hit_counted_through_xra(self):
        out, _err = self.run_shell(
            ".cache on\n"
            "? proj[name](beer);\n"
            "? proj[name](beer);\n"
            ".cache\n"
        )
        assert "hit rate 50%" in out

    def test_bad_arguments_report_usage(self):
        _out, err = self.run_shell(".cache on lots\n.cache bogus\n")
        assert err.count("usage: .cache") == 2

    def test_sql_statements_use_the_shell_cache(self):
        out, _err = self.run_shell(
            ".cache on\n"
            ".sql SELECT name FROM beer\n"
            ".sql SELECT name FROM beer\n"
            ".cache\n"
        )
        assert "hit rate 50%" in out


# ---------------------------------------------------------------------------
# The differential matrix: cached == uncached, always
# ---------------------------------------------------------------------------


def clone_env(env):
    return {name: relation for name, relation in env.items()}


class Driver:
    """Runs one random interleaving against cached and plain twins."""

    def __init__(self, env, seed: int):
        import random

        self.rng = random.Random(seed)
        self.generator = ExpressionGenerator(env, seed=seed, max_depth=4)
        self.cached_db = make_database(clone_env(env))
        self.plain_db = make_database(clone_env(env))
        self.cache = QueryCache()
        self.cached = Session(self.cached_db, cache=self.cache)
        self.plain = Session(self.plain_db)
        self.names = sorted(env)

    def check_query(self):
        expr = self.generator.expression()
        try:
            expected = self.plain.query(expr)
        except EmptyAggregateError:
            with pytest.raises(EmptyAggregateError):
                self.cached.query(expr)
            return
        got = self.cached.query(expr)
        assert got == expected, f"cache diverged on {expr!r}"

    def transition(self):
        name = self.rng.choice(self.names)
        roll = self.rng.random()
        if roll < 0.4:
            addition = LiteralRelation(
                random_int_relation(
                    self.rng.randint(1, 6), seed=self.rng.randint(0, 999)
                )
            )
            self.cached.insert(name, addition)
            self.plain.insert(name, addition)
        elif roll < 0.7:
            bound = self.rng.randint(0, 5)
            self.cached.delete(
                name, self.cached.relation(name).select(f"%1 > {bound}")
            )
            self.plain.delete(
                name, self.plain.relation(name).select(f"%1 > {bound}")
            )
        elif roll < 0.85:
            bound = self.rng.randint(0, 5)
            assignments = ["%1 + 1", "%2"]
            self.cached.update(
                name,
                self.cached.relation(name).select(f"%2 = {bound}"),
                assignments,
            )
            self.plain.update(
                name,
                self.plain.relation(name).select(f"%2 = {bound}"),
                assignments,
            )
        else:
            # A transaction that assigns a temporary, reads it, then
            # aborts — nothing may leak into state or cache.
            for session in (self.cached, self.plain):
                with session.transaction() as txn:
                    txn.assign(
                        "scratch", txn.relation(name).select("%1 > 2")
                    )
                    txn.insert(name, txn.relation("scratch"))
                    txn.query(txn.relation(name))
                    txn.abort()

    def states_agree(self):
        assert self.cached_db.snapshot() == self.plain_db.snapshot()
        assert self.cached_db.logical_time == self.plain_db.logical_time


@pytest.mark.parametrize("seed", range(12))
def test_differential_cached_vs_uncached(env, seed):
    driver = Driver(env, seed=seed)
    for step in range(14):
        if driver.rng.random() < 0.6:
            driver.check_query()
        else:
            driver.transition()
        driver.states_agree()
    # The workload must actually have exercised the cache.
    assert driver.cache.stats.result_misses > 0


def test_update_leaves_no_epochless_entries(env):
    """π̂_α over the matched literal bypasses the query cache."""
    database = make_database(env)
    cache = QueryCache()
    session = Session(database, cache=cache)
    for step in range(20):
        session.update(
            "t1", session.relation("t1").select(f"%1 = {step % 4}"), ["%1", "%2"]
        )
    assert cache.plan_entries == 4  # one per distinct selector
    assert all(entry.deps for entry in cache._results.values())
