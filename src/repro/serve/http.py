"""Minimal stdlib HTTP/1.1 plumbing of the one repro service.

The server side (:func:`read_http_request`, :func:`respond`) is what
:class:`repro.serve.server.ReproService` speaks; the client side
(:func:`http_request`) is what ``repro submit`` and the sweep coordinator's
:class:`repro.harness.distributed.WorkerClient` speak to it.  The contract
is deliberately tiny: one request per connection, ``Content-Length``
bodies only, canonical JSON responses.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.harness.integrity import canonical_json

#: Upper bound on accepted request bodies (a wire-form request is a few KB;
#: a full request *batch* a few hundred).
MAX_BODY_BYTES = 8 * 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    """One parsed (minimal) HTTP/1.1 request."""

    method: str
    path: str
    query: str
    headers: Mapping[str, str]
    body: bytes


async def read_http_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request from ``reader`` (``None`` on immediate EOF)."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line: {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ValueError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 100:
            raise ValueError("too many headers")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ValueError("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError(f"unacceptable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    return HttpRequest(method.upper(), path, query, headers, body)


async def respond(writer, status: int, payload, *, extra_headers=()) -> None:
    """Write one JSON (or pre-encoded bytes) response and flush it."""
    body = payload if isinstance(payload, bytes) else canonical_json(payload)
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
    )
    for name, value in extra_headers:
        head += f"{name}: {value}\r\n"
    head += "\r\n"
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


@dataclass
class HttpResponse:
    """One response as the client saw it."""

    status: int
    headers: Mapping[str, str]
    body: bytes


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    *,
    timeout: float,
) -> HttpResponse:
    """Send one request and read the whole response (blocking).

    Transport failures raise ``OSError`` (``TimeoutError`` for a server
    that accepted but never answered); a garbled response raises
    ``ConnectionError``, so callers handle one exception family.
    """
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        return HttpResponse(
            response.status,
            {name.lower(): value for name, value in response.getheaders()},
            response.read(),
        )
    except http.client.HTTPException as exc:
        raise ConnectionError(f"malformed HTTP response: {exc!r}") from exc
    finally:
        conn.close()
