"""Transition-epoch query & plan caching (the read-path layer).

The paper's equivalence theorems (Section 3.3) guarantee that the *same*
query can appear in many syntactic shapes — ``σ_φ(E1 ⊎ E2)`` and
``σ_φE1 ⊎ σ_φE2`` denote one bag.  That is exactly the property a
semantic result cache needs: key entries on a canonical fingerprint of
the optimizer-normalized algebra tree and all equivalent shapes share
one entry.  Section 4's database transitions supply the invalidation
clock for free: every committed transition ``D^t → D^{t+1}`` bumps a
per-relation *epoch*, and a cached result is valid precisely while the
epochs of the base relations it read are unchanged.

Two levels:

* the **plan cache** maps raw expression trees (structural equality),
  with the optimizer and engine that plan them, to the
  :class:`~repro.cache.plan.Plan` :func:`build_plan` made — normal
  form, fingerprint, read set and physical plan — so repeated queries
  skip the optimizer and planner entirely;
* the **result cache** maps fingerprints to materialised relations
  tagged with the epochs they were computed at, with LRU + max-bytes
  eviction.

See :mod:`repro.cache.cache` for the validity rules (temporaries and
in-transaction working states bypass the cache) and ``docs/caching.md``
for the full story.
"""

from repro.cache.cache import CachedResult, CacheStats, QueryCache
from repro.cache.concurrent import ConcurrentQueryCache
from repro.cache.fingerprint import base_relations, canonical_text, fingerprint
from repro.cache.plan import Plan, build_plan

__all__ = [
    "QueryCache",
    "ConcurrentQueryCache",
    "CacheStats",
    "CachedResult",
    "Plan",
    "build_plan",
    "fingerprint",
    "canonical_text",
    "base_relations",
]
