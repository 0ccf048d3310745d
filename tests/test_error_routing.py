"""Eval-time failures surface as ReproError subclasses, not bare builtins.

A mismatch between a tuple's width and what its schema promises (or a
plan referencing a relation the environment lacks) used to escape as a
bare ``IndexError`` / ``KeyError`` from deep inside the evaluator.
These tests pin the routed versions: the error type lives in
:mod:`repro.errors` and the message names the offending attribute
index or relation.
"""

from __future__ import annotations

import pytest

from repro.domains import INTEGER, STRING
from repro.engine import plan_physical
from repro.errors import (
    ReproError,
    UnboundAttributeError,
    UnknownRelationError,
)
from repro.aggregates import resolve_aggregate
from repro.expressions import AttrRef
from repro.relation import Relation
from repro.schema import RelationSchema

SCHEMA = RelationSchema.of("t", a=STRING, b=INTEGER, c=INTEGER)


def short_row_relation() -> Relation:
    """A relation whose rows are *narrower* than its schema promises."""
    return Relation(SCHEMA, {("x",): 2}, validate=False)


def test_attr_ref_overrun_names_the_position() -> None:
    extract = AttrRef(3).bind(SCHEMA)
    with pytest.raises(UnboundAttributeError) as caught:
        extract(("only",))
    assert "%3" in str(caught.value)
    assert "1-attribute tuple" in str(caught.value)


def test_attr_ref_overrun_is_a_repro_error() -> None:
    with pytest.raises(ReproError):
        AttrRef(2).bind(SCHEMA)(())


def test_scan_of_missing_relation() -> None:
    from repro.algebra import RelationRef

    physical = plan_physical(RelationRef("ghost", SCHEMA))
    with pytest.raises(UnknownRelationError) as caught:
        list(physical.batches({}))
    assert "ghost" in str(caught.value)


def test_group_by_param_overrun_reference_evaluator() -> None:
    relation = short_row_relation()
    with pytest.raises(UnboundAttributeError) as caught:
        relation.group_by([1], resolve_aggregate("SUM"), 3)
    assert "%3" in str(caught.value)


def test_whole_relation_aggregate_param_overrun() -> None:
    relation = short_row_relation()
    with pytest.raises(UnboundAttributeError) as caught:
        relation.group_by([], resolve_aggregate("SUM"), 2)
    assert "%2" in str(caught.value)


def test_group_by_param_overrun_physical_engine() -> None:
    from repro.algebra import GroupBy, RelationRef

    expr = GroupBy((1,), "SUM", 3, RelationRef("t", SCHEMA))
    physical = plan_physical(expr)
    with pytest.raises(UnboundAttributeError) as caught:
        list(physical.batches({"t": short_row_relation()}))
    assert "%3" in str(caught.value)


def test_global_aggregate_overrun_physical_engine() -> None:
    from repro.algebra import GroupBy, RelationRef

    expr = GroupBy(None, "SUM", 2, RelationRef("t", SCHEMA))
    physical = plan_physical(expr)
    with pytest.raises(UnboundAttributeError) as caught:
        list(physical.batches({"t": short_row_relation()}))
    assert "%2" in str(caught.value)


def test_valid_rows_still_work() -> None:
    relation = Relation(SCHEMA, [("x", 1, 10), ("y", 2, 20), ("x", 1, 30)])
    result = relation.group_by([1], resolve_aggregate("SUM"), 3)
    assert sorted(result.pairs()) == [(("x", 40), 1), (("y", 20), 1)]


# ---------------------------------------------------------------------------
# Stable wire codes (repro.server)
# ---------------------------------------------------------------------------
#
# Client-visible failures route through repro.errors and travel as stable
# machine-readable codes.  These tests freeze the codes (renaming a class
# must not change its code) and exercise the three client-triggerable
# refusals end-to-end: per-query timeout, malformed request, and the
# strict-lint gate.


def _iter_error_classes():
    import repro.errors as errors_module

    for name in errors_module.__all__:
        obj = getattr(errors_module, name)
        if isinstance(obj, type) and issubclass(obj, errors_module.ReproError):
            yield obj


def test_every_error_class_has_a_stable_wire_code() -> None:
    from repro.errors import wire_code

    codes = {}
    for cls in _iter_error_classes():
        code = cls.wire_code
        assert isinstance(code, str) and code.startswith("REPRO-"), cls
        codes[cls.__name__] = code
    # The full frozen map: adding classes extends this, renaming or
    # recoding an existing class is a wire-protocol break.
    assert codes == {
        "ReproError": "REPRO-ERROR",
        "DomainError": "REPRO-DOMAIN",
        "DomainValueError": "REPRO-DOMAIN-VALUE",
        "UnknownDomainError": "REPRO-DOMAIN-UNKNOWN",
        "SchemaError": "REPRO-SCHEMA",
        "SchemaMismatchError": "REPRO-SCHEMA-MISMATCH",
        "AttributeResolutionError": "REPRO-ATTRIBUTE",
        "DuplicateAttributeError": "REPRO-ATTRIBUTE-DUPLICATE",
        "ExpressionError": "REPRO-EXPRESSION",
        "ExpressionTypeError": "REPRO-EXPRESSION-TYPE",
        "ExpressionParseError": "REPRO-EXPRESSION-PARSE",
        "UnboundAttributeError": "REPRO-ATTRIBUTE-UNBOUND",
        "AlgebraError": "REPRO-ALGEBRA",
        "ArityError": "REPRO-ARITY",
        "AggregateError": "REPRO-AGGREGATE",
        "EmptyAggregateError": "REPRO-AGGREGATE-EMPTY",
        "EvaluationError": "REPRO-EVAL",
        "DivisionByZeroError": "REPRO-DIV-ZERO",
        "LanguageError": "REPRO-LANGUAGE",
        "UnknownRelationError": "REPRO-UNKNOWN-RELATION",
        "DuplicateRelationError": "REPRO-DUPLICATE-RELATION",
        "TransactionError": "REPRO-TRANSACTION",
        "TransactionAbort": "REPRO-ABORT",
        "ConstraintViolationError": "REPRO-CONSTRAINT",
        "FrontendError": "REPRO-FRONTEND",
        "SQLParseError": "REPRO-SQL-PARSE",
        "SQLTranslationError": "REPRO-SQL-TRANSLATE",
        "XRAParseError": "REPRO-XRA-PARSE",
        "XRARuntimeError": "REPRO-XRA-RUNTIME",
        "LintError": "REPRO-LINT",
        "ServerError": "REPRO-SERVER",
        "ProtocolError": "REPRO-PROTOCOL",
        "QueryTimeoutError": "REPRO-TIMEOUT",
        "ServerBusyError": "REPRO-BUSY",
        "ServerShutdownError": "REPRO-SHUTDOWN",
        "TransactionConflictError": "REPRO-CONFLICT",
    }


def test_wire_code_maps_foreign_exceptions_to_internal() -> None:
    from repro.errors import UnknownRelationError, wire_code

    assert wire_code(UnknownRelationError("x")) == "REPRO-UNKNOWN-RELATION"
    assert wire_code(KeyError("x")) == "REPRO-INTERNAL"
    assert wire_code(RuntimeError("boom")) == "REPRO-INTERNAL"


def test_error_to_wire_carries_code_type_and_message() -> None:
    from repro.errors import TransactionConflictError
    from repro.server.protocol import error_to_wire

    payload = error_to_wire(TransactionConflictError(["acct", "beer"]))
    assert payload["code"] == "REPRO-CONFLICT"
    assert payload["type"] == "TransactionConflictError"
    assert payload["relations"] == ["acct", "beer"]
    assert "acct" in payload["message"]


def _background_server(**config_kwargs):
    from repro.server import ServerConfig, serve_in_background

    return serve_in_background(None, ServerConfig(**config_kwargs))


def test_wire_timeout_code(monkeypatch) -> None:
    import threading
    import time as time_module

    from repro.server.client import RemoteError, ServerClient
    from repro.server.sessions import ServerSession

    release = threading.Event()
    original = ServerSession.run_statements

    def stalling(statements, context):
        release.wait(5.0)
        return original(statements, context)

    handle = _background_server(query_timeout=0.2)
    try:
        with ServerClient(*handle.address) as client:
            client.xra("create t(x: integer);")
            monkeypatch.setattr(
                ServerSession, "run_statements", staticmethod(stalling)
            )
            started = time_module.perf_counter()
            with pytest.raises(RemoteError) as caught:
                client.xra("? t;")
            assert caught.value.code == "REPRO-TIMEOUT"
            assert time_module.perf_counter() - started < 2.0
    finally:
        release.set()
        handle.stop()


def test_wire_malformed_request_code() -> None:
    from repro.server.client import RemoteError, ServerClient

    handle = _background_server()
    try:
        with ServerClient(*handle.address) as client:
            # Structurally valid JSON, semantically malformed requests.
            with pytest.raises(RemoteError) as caught:
                client.request("no-such-op")
            assert caught.value.code == "REPRO-PROTOCOL"
            with pytest.raises(RemoteError) as caught:
                client.request("xra")  # missing the required 'q'
            assert caught.value.code == "REPRO-PROTOCOL"
            with pytest.raises(RemoteError) as caught:
                client.request("xra", q="")  # empty statement body
            assert caught.value.code == "REPRO-PROTOCOL"
    finally:
        handle.stop()


def test_wire_lint_strict_refusal_code() -> None:
    from repro.server.client import RemoteError, ServerClient

    handle = _background_server(lint="strict")
    try:
        with ServerClient(*handle.address) as client:
            client.xra("create t(x: integer);")
            with pytest.raises(RemoteError) as caught:
                client.xra("? sel[%1 = 'x'](ghost);")
            assert caught.value.code == "REPRO-LINT"
            assert caught.value.remote_type == "LintError"
            # A clean statement still executes under the strict gate.
            client.xra("insert(t, tuples[(1)]);")
            (result,) = client.xra("? t;")
            assert len(result) == 1
    finally:
        handle.stop()
