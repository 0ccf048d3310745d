"""The wire protocol: newline-delimited JSON, one message per line.

Both directions speak the same framing: a message is one JSON object
serialized without embedded newlines, terminated by ``\\n``.  Requests
carry an ``op`` (and usually a client-chosen ``id`` echoed back);
responses carry ``ok`` plus either the operation's payload or an
``error`` object with a stable code from :mod:`repro.errors`.

Requests::

    {"id": 1, "op": "xra", "q": "? proj[%1](beer);"}
    {"id": 2, "op": "sql", "q": "SELECT name FROM beer"}
    {"id": 3, "op": "begin"}        {"op": "commit"}   {"op": "rollback"}
    {"id": 4, "op": "ping"}         {"op": "tables"}   {"op": "stats"}

Every request may carry a ``trace`` object with client-minted hex ids::

    {"id": 5, "op": "xra", "q": "...",
     "trace": {"trace_id": "4bf9...32 hex...", "span_id": "a1b2c3d4e5f60718"}}

The server opens its request span with that ``trace_id`` and records the
client's ``span_id`` as its parent, so a stitched export
(:func:`repro.obs.export_stitched_trace`) shows both processes on one
timeline.  Responses to ``xra``/``sql`` additionally carry a
``resources`` object — the request's
:class:`~repro.obs.telemetry.ResourceAccount` tallies.

Responses::

    {"id": 1, "ok": true, "results": [<relation>], "committed": true,
     "logical_time": 7, "seconds": 0.0012}
    {"id": 1, "ok": false,
     "error": {"code": "REPRO-TIMEOUT", "type": "QueryTimeoutError",
               "message": "query exceeded the 30s time budget"}}

A relation travels in the paper's (tuple, multiplicity) pair notation —
compact for highly duplicated bags and explicitly *unordered*, matching
the algebra's semantics::

    {"schema": {"name": "beer", "attributes": [
         {"name": "name", "domain": "string"}, ...]},
     "pairs": [[["Pils", "Grolsch", 4.5], 2], ...],
     "rows": 3, "distinct": 2}

The pairs come in storage order, unordered: a relation is a function
``dom(R) → N`` (Definition 2.2), so no order is part of its value and
none is spent on the wire.  A relation is immutable, so its encoding is
too: :func:`relation_wire_bytes` encodes it once and keeps the bytes on
the :class:`~repro.relation.Relation` itself, and :func:`encode_message`
splices those bytes into every reply that carries the relation.  A
result-cache hit serves the same relation object, hence the same bytes,
and the bytes are freed with the relation.

Values of non-JSON domains (DATE, TIME, TIMESTAMP, MONEY) travel as
strings; decoding routes them back through the domain's normalization
(one pass per column), so a round-tripped relation is bag-equal to the
original.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.domains import DomainRegistry, default_registry
from repro.errors import DomainValueError, ProtocolError, ReproError, wire_code
from repro.multiset import Multiset
from repro.relation import Relation
from repro.schema import RelationSchema

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "encode_message",
    "decode_request",
    "relation_to_wire",
    "relation_wire_bytes",
    "relation_from_wire",
    "error_to_wire",
]

#: Bumped on incompatible wire changes; the hello message carries it.
PROTOCOL_VERSION = 1

#: Hard cap on one request line — a runaway client cannot balloon the
#: server's read buffer.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Every operation the server understands.
OPS = frozenset(
    {
        "xra", "sql", "begin", "commit", "rollback", "ping", "tables",
        "stats", "close",
    }
)


def _dumps(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":"), default=str).encode("utf-8")


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as a newline-terminated JSON line.

    Each :class:`~repro.relation.Relation` in ``message["results"]`` is
    spliced in as its stored :func:`relation_wire_bytes`; everything
    else (wire documents included) is JSON-encoded here.
    """
    results = message.get("results")
    if not isinstance(results, list):
        return _dumps(message) + b"\n"
    envelope = {key: value for key, value in message.items() if key != "results"}
    head = _dumps(envelope)[:-1]  # the envelope object, still open
    return b"".join(
        (
            head,
            b"," if envelope else b"",
            b'"results":[',
            b",".join(
                relation_wire_bytes(result)
                if isinstance(result, Relation)
                else _dumps(result)
                for result in results
            ),
            b"]}\n",
        )
    )


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse one request line; malformed input raises :class:`ProtocolError`.

    Checks framing only (valid JSON object, known ``op``, ``q`` a string
    where required) — semantic validation belongs to the operation
    handlers.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    op = message.get("op")
    if op is None:
        raise ProtocolError("request lacks an 'op' field")
    if op not in OPS:
        known = ", ".join(sorted(OPS))
        raise ProtocolError(f"unknown op {op!r} (known: {known})")
    if op in ("xra", "sql"):
        statement = message.get("q")
        if not isinstance(statement, str) or not statement.strip():
            raise ProtocolError(f"op {op!r} requires a non-empty 'q' string")
    return message


# -- relations over the wire -------------------------------------------------


def _wire_value(value: Any) -> Any:
    """A JSON-representable rendering of one attribute value."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def relation_to_wire(relation: Relation) -> Dict[str, Any]:
    """Encode a relation as its wire document.

    Pair notation in storage order, unordered: the pairs are listed as
    :meth:`~repro.relation.Relation.pairs` yields them, with no sort.
    """
    return {
        "schema": {
            "name": relation.schema.name,
            "attributes": [
                {"name": attribute.name, "domain": attribute.domain.name}
                for attribute in relation.schema.attributes
            ],
        },
        "pairs": [
            [[_wire_value(value) for value in row], count]
            for row, count in relation.pairs()
        ],
        "rows": len(relation),
        "distinct": relation.distinct_count,
    }


def relation_wire_bytes(relation: Relation) -> bytes:
    """The JSON encoding of :func:`relation_to_wire`'s document.

    Computed on the first call and kept on the relation, so every later
    call — every reply that carries this relation — returns the same
    ``bytes`` object.  Safe because a relation is immutable.
    """
    encoded = relation._wire
    if encoded is None:
        encoded = relation._wire = _dumps(relation_to_wire(relation))
    return encoded


def relation_from_wire(
    document: Dict[str, Any], registry: Optional[DomainRegistry] = None
) -> Relation:
    """Decode a wire document back into a typed relation.

    Every row's degree is checked, then each column passes once through
    its declared domain's normalization — the checks and coercions of
    :func:`~repro.tuples.validate_tuple`, a column at a time — so
    stringly-encoded dates and money come back as their native types.
    A value outside its domain raises
    :class:`~repro.errors.DomainValueError`; any other malformation,
    bad multiplicities included, raises :class:`ProtocolError`.
    """
    registry = registry or default_registry
    try:
        schema_doc = document["schema"]
        attributes = [
            (column["name"], registry.resolve(column["domain"]))
            for column in schema_doc["attributes"]
        ]
        schema = RelationSchema(schema_doc.get("name"), attributes)
        pairs = document["pairs"]
        rows = [row for row, _count in pairs]
        counts = [count for _row, count in pairs]
        degree = schema.degree
        for row in rows:
            if len(row) != degree:
                raise DomainValueError(schema, tuple(row))
        # RelationSchema refuses degree 0, so zip(*rows) comes up empty
        # only when there are no rows — no tuple is lost to it.
        columns = [
            list(map(attribute.domain.normalize, column))
            for attribute, column in zip(schema.attributes, zip(*rows))
        ]
        bag = Multiset.from_pairs(zip(zip(*columns), counts))
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(
            f"malformed relation document: {error}"
        ) from None
    return Relation.from_multiset(schema, bag)


def error_to_wire(error: BaseException) -> Dict[str, Any]:
    """The error object attached to a failed response."""
    payload: Dict[str, Any] = {
        "code": wire_code(error),
        "type": type(error).__name__,
        "message": str(error),
    }
    conflicts = getattr(error, "relations", None)
    if conflicts:
        payload["relations"] = list(conflicts)
    return payload


def hello_message(
    server_name: str, relations: List[str], logical_time: int
) -> Dict[str, Any]:
    """The banner the server sends on connect (before any request)."""
    return {
        "server": server_name,
        "protocol": PROTOCOL_VERSION,
        "relations": relations,
        "logical_time": logical_time,
    }
