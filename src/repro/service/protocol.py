"""Wire protocol of the scheduling service.

One place for everything both ends of the socket must agree on: the
minimal HTTP/1.1 framing (stdlib-only — the server reads requests off
an ``asyncio`` stream, so no external HTTP framework), the request
payload schema, the error shape, and the picklable worker function the
batch loop runs on the :class:`~repro.bench.parallel.WorkerPool` over
jobs the server has already parsed, built and keyed.

Request payloads (``POST /schedule``)::

    {"graph": {...} | "<STG text>", "machine": ..., "spec": "mcp"}

with ``graph``/``machine`` in any form :func:`repro.api.as_graph` /
:func:`repro.api.as_machine` accepts; a non-JSON body is treated as
bare STG text scheduled with the default spec.  Malformed input never
produces a traceback: it comes back as HTTP 400 carrying the model's
own :class:`~repro.core.schedule.Violation` rows plus their rendered
table — the same shape ``repro-bench check`` prints.
"""

from __future__ import annotations

import asyncio
import json
import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.exceptions import GraphError, MachineError
from ..core.schedule import Violation, render_violations

__all__ = [
    "Request",
    "read_request",
    "response_bytes",
    "parse_schedule_request",
    "violations_payload",
    "schedule_cell",
]

#: Largest request body the server will read (64 MiB guards the loop
#: against a runaway Content-Length, not a real workload limit).
MAX_BODY = 64 * 1024 * 1024

#: Most header lines one request may carry (more answer 400).
MAX_HEADERS = 100

#: Seconds a client has to deliver its whole request (later: 408).
READ_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    #: ``Content-Length`` exceeded :data:`MAX_BODY`; the body was not read.
    oversized: bool = False


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one HTTP/1.1 request off ``reader``; ``None`` on EOF/garbage.

    Deliberately minimal: request line, headers, ``Content-Length``
    body.  No chunked encoding, no keep-alive pipelining — every
    response closes the connection, which keeps the server loop simple
    and is plenty for a scheduling RPC.
    """
    try:
        line = await reader.readline()
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            return None
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY:
            return Request(method, path, headers, b"", oversized=True)
        if length < 0:
            return Request(method, path, headers, b"")
        body = await reader.readexactly(length) if length else b""
        return Request(method, path, headers, body)
    except (asyncio.IncompleteReadError, ValueError,
            ConnectionError, UnicodeDecodeError):
        return None


def response_bytes(status: int, payload: Dict) -> bytes:
    """A complete HTTP/1.1 response carrying ``payload`` as JSON."""
    body = json.dumps(payload, sort_keys=True).encode()
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def parse_schedule_request(body: bytes,
                           content_type: str = "") -> Tuple[object, object,
                                                            str]:
    """Split a request body into ``(graph, machine, spec)`` sources.

    JSON bodies use the payload schema above; anything else is bare
    STG text.  Raises :class:`GraphError` (bad/missing graph or
    undecodable JSON) or :class:`MachineError` — the errors
    :func:`violations_payload` knows how to render.
    """
    text = body.decode("utf-8", errors="replace")
    stripped = text.lstrip()
    if "json" in content_type or stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"request body is not valid JSON ({exc})")
        if not isinstance(doc, dict):
            raise GraphError("request JSON must be an object")
        if "graph" not in doc:
            raise GraphError("request is missing the 'graph' field")
        spec = doc.get("spec", "mcp")
        if not isinstance(spec, str) or not spec:
            raise GraphError("'spec' must be a non-empty string")
        return doc["graph"], doc.get("machine"), spec
    if not stripped:
        raise GraphError("empty request body")
    return text, None, "mcp"


def violations_payload(exc: Exception) -> Dict:
    """The 400-response payload for a malformed request.

    The exception becomes a :class:`Violation` row (code ``graph``,
    ``machine`` or ``spec`` by origin — the checker's lowercase code
    convention) rendered with the same :func:`render_violations` table
    the checker CLI prints, so service clients and batch users read
    one error format.
    """
    code = ("machine" if isinstance(exc, MachineError) else
            "spec" if isinstance(exc, (KeyError, ValueError)) else "graph")
    message = str(exc).strip("'\"") or type(exc).__name__
    rows: List[Violation] = [Violation(code=code, message=message)]
    return {
        "error": message,
        "violations": [{"code": v.code, "message": v.message,
                        "node": v.node, "proc": v.proc} for v in rows],
        "table": render_violations(rows),
    }


def schedule_cell(job: bytes) -> Dict:
    """Worker side of one scheduling job (module-level: it pickles).

    ``job`` is the built ``(graph, machine, canonical spec)`` as a
    worker's :func:`~repro.service.server.parse_job` pickled it; it is
    unpickled here, in the worker that schedules it.  Returns the
    result payload the cache stores, less the ``key`` the server adds;
    never raises (an unexpected failure comes back as an ``{"error":
    ...}`` payload so one bad job cannot poison its whole batch).
    """
    from .. import api

    try:
        graph, machine, spec = pickle.loads(job)
        sched = api.schedule(graph, machine, spec)
        return {
            "spec": spec,
            "length": sched.length,
            "schedule": {str(node): [int(proc), float(start), float(end)]
                         for node, (proc, start, end)
                         in sorted(sched.to_dict().items())},
        }
    except Exception as exc:  # ships home; the handler maps it to 4xx/5xx
        return {"error": str(exc) or type(exc).__name__,
                "error_payload": violations_payload(exc)}
