"""Extensions the paper's Section 5 explicitly invites.

* :mod:`~repro.extensions.closure` — a transitive-closure operator
  (recursion), per the reference to integrity-control thesis work [11];
* :mod:`~repro.extensions.constraints` — integrity constraints checked
  at the transaction commit bracket.
"""

from repro.extensions.closure import (
    TransitiveClosure,
    closure_by_iteration,
    transitive_closure_pairs,
)
from repro.extensions.constraints import (
    Constraint,
    DomainConstraint,
    KeyConstraint,
    ReferentialConstraint,
)

__all__ = [
    "TransitiveClosure",
    "transitive_closure_pairs",
    "closure_by_iteration",
    "Constraint",
    "KeyConstraint",
    "ReferentialConstraint",
    "DomainConstraint",
]
