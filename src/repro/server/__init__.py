"""repro.server — a concurrent TCP query server over one shared database.

The paper's transaction semantics (Section 4) define a database as a
sequence of states ``D^0, D^1, …`` advanced one committed transition at
a time.  This package turns that sequence into a *service*: many clients
connect concurrently, each gets a session, and the server guarantees
that every committed write is a single-step transition while every read
observes exactly one state ``D^t`` — never a mixture.

Isolation is **serializable, validated on epochs**: ``begin`` pins the
current state and the per-relation epoch vector; reads inside the
bracket see the pinned state plus the transaction's own writes; commit
succeeds only if no concurrently committed transition touched a relation
this transaction *read* (otherwise ``REPRO-CONFLICT``), and then applies
the transaction's net delta to the current state.  A blind insert reads
nothing, so it never conflicts.

The pieces:

* :mod:`repro.server.protocol` — the newline-delimited JSON wire format;
* :mod:`repro.server.sessions` — per-connection state and pinning logic;
* :mod:`repro.server.core` — the asyncio server: admission control,
  per-query timeouts, the global write lock, graceful shutdown;
* :mod:`repro.server.client` — a small blocking client.

Quick start (in-process, for tests and notebooks)::

    from repro.server import ServerConfig, serve_in_background
    from repro.server.client import ServerClient

    with serve_in_background(database) as handle:
        with ServerClient(*handle.address) as client:
            client.xra("? proj[%1](beer);")

From a shell: ``python -m repro serve --port 7474`` and
``python -m repro --connect 127.0.0.1:7474``.  Full protocol reference
and tuning guide: ``docs/server.md``.
"""

from repro.server.client import RemoteError, ServerClient
from repro.server.core import (
    QueryServer,
    ServerConfig,
    ServerHandle,
    serve_in_background,
)
from repro.server.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    decode_request,
    encode_message,
    error_to_wire,
    relation_from_wire,
    relation_to_wire,
    relation_wire_bytes,
)
from repro.server.sessions import ServerSession

__all__ = [
    "QueryServer",
    "ServerConfig",
    "ServerHandle",
    "serve_in_background",
    "ServerClient",
    "RemoteError",
    "ServerSession",
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
