"""The system under test: one real ``QueryServer`` in a child process.

``run.py`` launches this file with ``PYTHONHASHSEED=0`` and ``src`` on
``PYTHONPATH``.  The first line on stdin is one JSON document with the
server configuration and the generated relations in wire notation — the
workload seed never reaches this process, only generated data and, later,
requests over TCP.  The child answers with one JSON line naming its port
and then serves until stdin reaches end-of-file: the parent holds the only
write end of that pipe, so the child drains and exits when the parent closes
it *or dies*, even on ``SIGKILL``.
"""

from __future__ import annotations

import asyncio
import json
import sys

from repro.database import Database
from repro.server import QueryServer, ServerConfig, relation_from_wire


async def serve(server: QueryServer) -> None:
    _host, port = await server.start()
    sys.stdout.write(json.dumps({"port": port}) + "\n")
    sys.stdout.flush()
    # Blocks a helper thread, not the loop, until the parent lets go.
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
    await server.shutdown()


def main() -> int:
    header = json.loads(sys.stdin.buffer.readline())
    database = Database()
    for document in header["relations"]:
        relation = relation_from_wire(document)
        database.create_relation(relation.schema, relation)
    asyncio.run(serve(QueryServer(database, ServerConfig(**header["config"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
