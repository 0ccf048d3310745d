"""The relation wire codec: encode once, splice the bytes, decode by column.

A relation is immutable and unordered (Definition 2.2), so the server
encodes each one once, in storage order, and a result-cache hit resends
the stored bytes.  Decoding normalizes a column at a time and must
accept and refuse exactly what the per-row ``validate_tuple`` path does.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.domains import (
    BOOLEAN,
    DATE,
    INTEGER,
    MONEY,
    REAL,
    STRING,
    TIME,
    TIMESTAMP,
)
from repro.errors import DomainValueError, ProtocolError
from repro.relation import Relation
from repro.schema import RelationSchema
from repro.server import (
    ServerConfig,
    encode_message,
    relation_from_wire,
    relation_to_wire,
    relation_wire_bytes,
    serve_in_background,
)
from repro.server.client import ServerClient

#: Every standard domain with a strategy for its members.
DOMAIN_VALUES = {
    INTEGER: st.integers(min_value=-(10**12), max_value=10**12),
    REAL: st.floats(allow_nan=False, allow_infinity=False),
    STRING: st.text(max_size=6),
    BOOLEAN: st.booleans(),
    DATE: st.dates(),
    TIME: st.times(),
    TIMESTAMP: st.datetimes(),
    MONEY: st.decimals(
        min_value=-(10**6), max_value=10**6, places=2,
        allow_nan=False, allow_infinity=False,
    ),
}

schemas = st.lists(
    st.sampled_from(sorted(DOMAIN_VALUES, key=lambda domain: domain.name)),
    min_size=1, max_size=4,
).map(
    lambda domains: RelationSchema(
        "r", [(f"a{index}", domain) for index, domain in enumerate(domains)]
    )
)


@st.composite
def relations(draw) -> Relation:
    """Relations over any mix of standard domains, empty ones included."""
    schema = draw(schemas)
    row = st.tuples(
        *[DOMAIN_VALUES[attribute.domain] for attribute in schema.attributes]
    )
    pairs = draw(
        st.lists(st.tuples(row, st.integers(min_value=1, max_value=3)), max_size=8)
    )
    return Relation.from_pairs(schema, pairs)


#: Values as JSON can carry them, in and out of any domain.
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.dates().map(str),
    st.times().map(str),
    st.datetimes().map(str),
    st.lists(st.integers(), max_size=2),
)


def _as_json(value):
    return value if isinstance(value, (bool, int, float, str)) else str(value)


@st.composite
def wire_documents(draw):
    """Documents of members, then maybe one bad cell or one bad degree."""
    schema = draw(schemas)
    row = st.tuples(
        *[
            DOMAIN_VALUES[attribute.domain].map(_as_json)
            for attribute in schema.attributes
        ]
    ).map(list)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    corruption = draw(st.sampled_from(["none", "cell", "degree"]))
    if corruption == "cell":
        target = draw(st.sampled_from(rows))
        target[draw(st.integers(0, len(target) - 1))] = draw(json_values)
    elif corruption == "degree":
        target = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(draw(json_values))
    counts = draw(
        st.lists(
            st.sampled_from([1, 2, 3, 0]), min_size=len(rows), max_size=len(rows)
        )
    )
    document = json.loads(relation_wire_bytes(Relation.empty(schema)))
    document["pairs"] = [[row, count] for row, count in zip(rows, counts)]
    return document


def _decode_per_row(document):
    """The row-at-a-time decode the column pass replaces."""
    schema = relation_from_wire({**document, "pairs": []}).schema
    return Relation.from_pairs(
        schema, [(tuple(row), count) for row, count in document["pairs"]]
    )


def _outcome(decode, document):
    try:
        return decode(document)
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return type(error)


def _is_document(value) -> bool:
    return isinstance(value, dict) and "pairs" in value


def _wire(relation: Relation):
    return json.loads(relation_wire_bytes(relation))


# ---------------------------------------------------------------------------
# Encode once
# ---------------------------------------------------------------------------


def test_wire_bytes_are_computed_once_per_relation() -> None:
    relation = Relation.from_pairs(
        RelationSchema.of("t", n=INTEGER), [((1,), 2), ((2,), 1)]
    )
    assert relation_wire_bytes(relation) is relation_wire_bytes(relation)
    assert _wire(relation) == relation_to_wire(relation)


def test_relations_in_results_are_spliced_as_their_bytes() -> None:
    relation = Relation.from_pairs(
        RelationSchema.of("t", day=DATE), [(("2024-03-01",), 2)]
    )
    document = relation_to_wire(relation)
    spliced = encode_message({"ok": True, "results": [relation, relation]})
    dumped = encode_message({"ok": True, "results": [document, document]})
    assert json.loads(spliced) == json.loads(dumped)
    assert spliced.endswith(b"\n") and spliced.count(b"\n") == 1
    assert json.loads(encode_message({"results": []})) == {"results": []}


def test_a_repeated_query_encodes_nothing_on_its_second_hit(monkeypatch) -> None:
    schema = RelationSchema.of("t", n=INTEGER, s=STRING)
    database = Database()
    database.create_relation(
        schema, Relation(schema, [(i, f"v{i % 7}") for i in range(50)])
    )
    dumped = []
    real_dumps = json.dumps

    def counting_dumps(value, *args, **kwargs):
        dumped.append(value)
        return real_dumps(value, *args, **kwargs)

    with serve_in_background(database, ServerConfig(query_timeout=15.0)) as handle:
        with ServerClient(*handle.address) as client:
            monkeypatch.setattr(json, "dumps", counting_dumps)
            (first,) = client.xra("? proj[%2](t);")
            assert any(_is_document(value) for value in dumped)
            hits = handle.server.session.cache.stats.result_hits
            dumped.clear()
            (second,) = client.xra("? proj[%2](t);")
            monkeypatch.undo()
            assert handle.server.session.cache.stats.result_hits == hits + 1
    # Only the request and the reply envelope were encoded, no relation.
    assert dumped and not any(_is_document(value) for value in dumped), dumped
    assert not any("results" in value for value in dumped), dumped
    assert first == second and len(second) == 50


# ---------------------------------------------------------------------------
# Decode by column
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(relation=relations(), seed=st.integers(0, 2**32 - 1))
def test_round_trip_in_any_pair_order_is_bag_equal(relation, seed) -> None:
    document = _wire(relation)
    assert sum(count for _row, count in document["pairs"]) == document["rows"]
    assert document["rows"] == len(relation)
    assert document["distinct"] == relation.distinct_count
    random.Random(seed).shuffle(document["pairs"])
    back = relation_from_wire(document)
    assert back == relation
    assert back.schema.attributes == relation.schema.attributes


@settings(max_examples=200, deadline=None)
@given(document=wire_documents())
def test_column_decode_refuses_what_row_validation_refuses(document) -> None:
    expected = _outcome(_decode_per_row, document)
    observed = _outcome(relation_from_wire, document)
    if isinstance(expected, Relation):
        assert observed == expected
    else:
        assert observed is expected is DomainValueError


def test_degree_zero_and_empty_documents() -> None:
    document = _wire(Relation.empty(RelationSchema.of("t", n=INTEGER)))
    assert document["pairs"] == [] and document["rows"] == 0
    assert len(relation_from_wire(document)) == 0
    document["schema"]["attributes"] = []
    with pytest.raises(ProtocolError):
        relation_from_wire(document)


@pytest.mark.parametrize("count", [-1, "2", True, 2.0, None, [1]])
def test_bad_multiplicities_are_protocol_errors(count) -> None:
    document = _wire(
        Relation.from_pairs(RelationSchema.of("t", n=INTEGER), [((1,), 1)])
    )
    document["pairs"][0][1] = count
    with pytest.raises(ProtocolError, match="multiplicity"):
        relation_from_wire(document)


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([[[1, 2], 1]], DomainValueError),  # wrong degree, as validate_tuple
        ([[[], 1]], DomainValueError),
        ([[5, 1]], ProtocolError),  # a row that is no sequence
        ([[[1], 1, 1]], ProtocolError),  # not a (row, count) pair
        ([[[1]]], ProtocolError),
        (7, ProtocolError),
        (None, ProtocolError),
    ],
)
def test_malformed_pairs_keep_their_error_types(pairs, error) -> None:
    document = _wire(Relation.empty(RelationSchema.of("t", n=INTEGER)))
    document["pairs"] = pairs
    with pytest.raises(error):
        relation_from_wire(document)
