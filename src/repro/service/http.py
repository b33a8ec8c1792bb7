"""Minimal HTTP/1.1 on ``asyncio`` streams — no framework, no new deps.

The campaign service speaks a deliberately small slice of HTTP: JSON
request bodies sized by ``Content-Length``, JSON responses, and chunked
transfer encoding for the NDJSON event streams.  Connections are
one-request-per-connection (``Connection: close``), which keeps the
parser honest and the daemon's per-connection state trivial; the event
stream holds its connection open for the life of the campaign instead.

Limits are hard: oversized request lines, header blocks, or bodies are
rejected before they are buffered, so a misbehaving client cannot balloon
the daemon's memory.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qs, urlsplit

MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request the parser (or a handler) rejects with a status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request: method, split path, query, headers, raw body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The body as JSON (``{}`` when empty); 400 on a garbled body."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off ``reader``; None on a cleanly closed socket."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed without sending a request
        raise HttpError(400, "truncated request line")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long")
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "truncated header block")
        if line in (b"\r\n", b"\n"):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(400, "header block too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if n < 0 or n > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if n:
            try:
                body = await reader.readexactly(n)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated request body")

    split = urlsplit(target)
    query = {
        key: values[-1] for key, values in parse_qs(split.query).items()
    }
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """A complete ``Connection: close`` response, ready to write."""
    lines = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_response(
    status: int,
    payload: object,
    *,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """A JSON response (trailing newline: curl-friendly)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return response_bytes(status, body, extra_headers=extra_headers)


def text_response(
    status: int,
    text: str,
    *,
    content_type: str = "text/plain; charset=utf-8",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """A plain-text response (the run table's CSV download)."""
    return response_bytes(
        status, text.encode("utf-8"),
        content_type=content_type, extra_headers=extra_headers,
    )


class ChunkedNdjsonWriter:
    """Stream NDJSON lines over chunked transfer encoding.

    One JSON document per chunk per line, flushed immediately — this is
    what lets ``cli submit`` (or plain ``curl``) render live progress
    while the campaign runs.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self._head_sent = False

    async def send_head(self) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head)
        await self.writer.drain()
        self._head_sent = True

    async def send(self, event: object) -> None:
        if not self._head_sent:
            await self.send_head()
        data = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
        self.writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        self.writer.write(data + b"\r\n")
        await self.writer.drain()

    async def close(self) -> None:
        if self._head_sent:
            self.writer.write(b"0\r\n\r\n")
            await self.writer.drain()
