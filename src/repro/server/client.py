"""A small blocking client for the repro query server.

:class:`ServerClient` wraps one TCP connection: it sends one request
line, reads one response line, and turns wire relations back into
:class:`~repro.relation.Relation` values (so a round-tripped result is
bag-equal to the server-side one).  Failed responses raise
:class:`RemoteError`, which carries the server's stable wire ``code``
(``REPRO-TIMEOUT``, ``REPRO-CONFLICT``, …) — dispatch on the code, not
the message text.

The client is deliberately synchronous: the server multiplexes
concurrency, clients just speak the protocol.  One client instance is
one session — share a server between threads by giving each thread its
own client.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional

from repro import obs
from repro.errors import ProtocolError, ServerError
from repro.obs.trace import new_span_id, new_trace_id
from repro.relation import Relation
from repro.server.protocol import (
    MAX_LINE_BYTES,
    encode_message,
    relation_from_wire,
)

__all__ = ["ServerClient", "RemoteError"]


class RemoteError(ServerError):
    """The server answered with an error response.

    ``code`` is the stable wire code; ``remote_type`` the server-side
    exception class name; ``payload`` the full error object.
    """

    wire_code = "REPRO-REMOTE"

    def __init__(self, payload: Dict[str, Any]) -> None:
        code = payload.get("code", "REPRO-INTERNAL")
        message = payload.get("message", "server error")
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.remote_type = payload.get("type", "")
        self.payload = payload


class ServerClient:
    """One blocking connection to a :class:`~repro.server.QueryServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7474,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        #: This connection's trace id — every request envelope carries it
        #: (with a fresh per-request span id), so the server's spans link
        #: back to this client's and a stitched export joins 1:1.
        self.trace_id = new_trace_id()
        #: The server's hello banner: name, protocol version, relation
        #: names, logical time, and this connection's ``client_id``.
        self.hello = self._read_message()
        if "error" in self.hello:
            payload = self.hello["error"]
            self.close()
            raise RemoteError(payload)

    # -- plumbing ----------------------------------------------------------

    def _read_message(self) -> Dict[str, Any]:
        line = self._file.readline(MAX_LINE_BYTES + 1024)
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            # Truncated at the cap, or cut off by the server: the rest of
            # this line is still in flight, and the next read would parse
            # it as a reply.  The framing is lost, so is the connection.
            self._file.close()
            self._sock.close()
            raise ProtocolError(
                f"server message not newline-terminated after {len(line)} "
                f"bytes (frame cap {MAX_LINE_BYTES} bytes); connection closed"
            )
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ProtocolError(
                f"undecodable server message: {error}"
            ) from None
        if not isinstance(message, dict):
            raise ProtocolError("server message is not a JSON object")
        return message

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one raw request and return the raw (ok) response.

        Error responses raise :class:`RemoteError`.  Use the typed
        helpers (:meth:`xra`, :meth:`sql`, …) unless you need the wire
        document itself.
        """
        self._next_id += 1
        span_id = new_span_id()
        payload = {
            "id": self._next_id,
            "op": op,
            "trace": {"trace_id": self.trace_id, "span_id": span_id},
            **fields,
        }
        with obs.span(
            "client.request", op=op, trace_id=self.trace_id, span_id=span_id
        ):
            self._sock.sendall(encode_message(payload))
            response = self._read_message()
        if not response.get("ok", False):
            raise RemoteError(response.get("error", {}))
        return response

    @staticmethod
    def _decode_results(response: Dict[str, Any]) -> List[Relation]:
        return [
            relation_from_wire(document)
            for document in response.get("results", [])
        ]

    # -- operations --------------------------------------------------------

    def xra(self, text: str) -> List[Relation]:
        """Run an XRA script; returns its query outputs as relations."""
        return self._decode_results(self.request("xra", q=text))

    def xra_response(self, text: str) -> Dict[str, Any]:
        """Like :meth:`xra` but returns the full response document
        (``logical_time``, ``committed``, timings, lint findings)."""
        return self.request("xra", q=text)

    def sql(self, text: str) -> List[Relation]:
        """Run one SQL statement; returns its outputs as relations."""
        return self._decode_results(self.request("sql", q=text))

    def begin(self) -> int:
        """Open a snapshot transaction; returns the pinned logical time."""
        return int(self.request("begin")["logical_time"])

    def commit(self) -> Dict[str, Any]:
        """Commit the open transaction.

        Raises :class:`RemoteError` with code ``REPRO-CONFLICT`` when a
        concurrent commit changed a relation this transaction read; the
        transaction is rolled back.  Commits that succeed are
        serializable in logical-time order.
        """
        return self.request("commit")

    def rollback(self) -> None:
        self.request("rollback")

    def ping(self) -> int:
        """Round-trip; returns the server's current logical time."""
        return int(self.request("ping")["logical_time"])

    def tables(self) -> List[Dict[str, Any]]:
        """Name, row count, and epoch of every base relation."""
        return list(self.request("tables")["relations"])

    def stats(self) -> Dict[str, Any]:
        """The server's aggregated statistics document.

        Same shape as the admin plane's ``/stats`` endpoint: health,
        headline totals, per-connection resource accounts, the metrics
        snapshot, and query-log tallies.  Feed it to
        :func:`repro.obs.render_top` for the shell's ``.top`` screen.
        """
        return dict(self.request("stats")["stats"])

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the connection (rolls back any open transaction)."""
        try:
            self._sock.sendall(encode_message({"op": "close"}))
            self._file.readline(MAX_LINE_BYTES)
        except OSError:
            pass
        finally:
            try:
                self._file.close()
            finally:
                self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
