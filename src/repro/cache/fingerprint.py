"""Canonical fingerprints of algebra expression trees.

A fingerprint is a deterministic digest of an expression's *semantic*
shape: operator kinds, operator parameters (conditions, attribute
lists, aggregate names), referenced base relations, and — for literal
relations — their full contents.  Two structurally equal trees always
share a fingerprint; two trees brought to the same optimizer normal
form share one too, which is what lets the result cache recognise
``σ_φ(E1 ⊎ E2)`` and ``σ_φE1 ⊎ σ_φE2`` as the same query.

The fingerprint deliberately excludes anything with no bearing on the
result value: engine choice, schema attribute *names*
(positional semantics), and the identity of the session that built the
tree.
"""

from __future__ import annotations

import hashlib
from typing import List, Set

from repro.algebra import AlgebraExpr, LiteralRelation, RelationRef
from repro.relation import Relation

__all__ = ["fingerprint", "canonical_text", "base_relations"]


def _relation_digest(relation: Relation) -> str:
    """A content digest of a literal relation (order-independent)."""
    lines = sorted(
        f"{row!r}*{count}" for row, count in relation.pairs()
    )
    digest = hashlib.sha1("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()[:16]


def _tokens(expr: AlgebraExpr, out: List[str]) -> None:
    if isinstance(expr, RelationRef):
        out.append(f"@{expr.name}")
        return
    if isinstance(expr, LiteralRelation):
        out.append(f"lit{{{_relation_digest(expr.relation)}}}")
        return
    # Every other node: operator kind + its non-child parameters.  The
    # signature tuples hold parsed scalar ASTs, position tuples, and
    # aggregate objects, all with deterministic (parseable) reprs.
    out.append(type(expr).__name__)
    signature = expr._signature()
    if signature:
        out.append(repr(signature))
    out.append("(")
    for child in expr.children():
        _tokens(child, out)
        out.append(",")
    out.append(")")


def canonical_text(expr: AlgebraExpr) -> str:
    """The canonical token string a fingerprint digests (debug aid)."""
    out: List[str] = []
    _tokens(expr, out)
    return "".join(out)


def fingerprint(expr: AlgebraExpr) -> str:
    """A stable hex digest of the expression's semantic shape."""
    return hashlib.sha1(canonical_text(expr).encode("utf-8")).hexdigest()


def base_relations(expr: AlgebraExpr) -> frozenset:
    """The names of every relation reference in ``expr`` (its read set)."""
    names: Set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, RelationRef):
            names.add(node.name)
        else:
            stack.extend(node.children())
    return frozenset(names)
