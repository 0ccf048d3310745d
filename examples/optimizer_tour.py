"""Watching the equivalence theorems optimize a query.

Section 3.3's claim — the set-algebra rewrite toolkit survives bag
semantics — drives a real optimizer here.  The example shows:

1. a naive σ-over-product query over a scaled-up beer database;
2. the heuristic rewrite trace (split, push-down, join formation);
3. cost-based join re-association on a three-relation chain;
4. estimated cost and measured runtime, before and after.

Run with::

    python examples/optimizer_tour.py
"""

import time

from repro import RelationRef, render, render_tree
from repro.algebra import Product, Select
from repro.engine import (
    StatisticsCatalog,
    estimate_cost,
    evaluate,
    execute,
    plan_physical,
)
from repro.optimizer import optimize
from repro.workloads import BeerWorkload, join_chain_relations


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = (time.perf_counter() - start) * 1000
    print(f"  {label:<28} {elapsed:8.2f} ms   ({len(result)} tuples)")
    return result


def main() -> None:
    workload = BeerWorkload(beers=4000, breweries=150)
    beer, brewery = workload.relations()
    env = {"beer": beer, "brewery": brewery}
    catalog = StatisticsCatalog.from_env(env)

    beer_ref = RelationRef("beer", beer.schema)
    brewery_ref = RelationRef("brewery", brewery.schema)

    naive = Select(
        "%2 = %4 and %6 = 'Netherlands' and %3 > 6.0",
        Product(beer_ref, brewery_ref),
    ).project(["%1"])

    print("=== Heuristic pipeline ===")
    print("Before:", render(naive))
    trace = []
    optimized = optimize(naive, catalog, trace)
    print("After: ", render(optimized))
    print("\nRewrites applied:")
    for rule, _before, _after in trace:
        print(f"  - {rule}")

    print("\nEstimated cost:")
    print(f"  naive:     {estimate_cost(naive, catalog):14,.0f} work units")
    print(f"  optimized: {estimate_cost(optimized, catalog):14,.0f} work units")

    print("\nMeasured (physical engine):")
    baseline = timed("naive plan", lambda: execute(naive, env))
    improved = timed("optimized plan", lambda: execute(optimized, env))
    assert baseline == improved, "optimization must preserve the multiset!"

    print("\nPhysical plan of the optimized query:")
    print(plan_physical(optimized).explain())

    # ----- join re-association (Theorem 3.3) ---------------------------
    print("\n=== Cost-based join re-association ===")
    chain = join_chain_relations(
        3, [4000, 2000, 20], [50, 40, 800, 10], seed=42
    )
    chain_env = {relation.schema.name: relation for relation in chain}
    refs = [
        RelationRef(relation.schema.name, relation.schema)
        for relation in chain
    ]
    left_deep = refs[0].join(refs[1], "%2 = %3").join(refs[2], "%4 = %5")
    chain_catalog = StatisticsCatalog.from_env(chain_env)
    reordered = optimize(left_deep, chain_catalog)

    print("Before:", render(left_deep))
    print("After: ", render(reordered))
    before = timed("left-deep order", lambda: evaluate(left_deep, chain_env))
    after = timed("re-associated order", lambda: evaluate(reordered, chain_env))
    assert before == after


if __name__ == "__main__":
    main()
