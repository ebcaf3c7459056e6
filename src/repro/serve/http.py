"""Minimal HTTP/1.1 framing over asyncio streams.

Just enough of the protocol for the serving tier: request-line +
header parsing with hard limits, ``Content-Length`` bodies (no chunked
upload), and keep-alive response writing.  Anything outside that
narrow envelope is a :class:`BadRequest` — the server answers ``400``
and closes rather than guessing.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

__all__ = [
    "BadRequest",
    "PayloadTooLarge",
    "Request",
    "read_request",
    "write_response",
]

_MAX_LINE = 8192
_MAX_HEADERS = 64

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class BadRequest(Exception):
    """The bytes on the wire are not a request this server accepts."""


class PayloadTooLarge(Exception):
    """The declared body exceeds the server's body limit."""


@dataclass
class Request:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed") from None
        raise BadRequest("truncated request") from None
    except asyncio.LimitOverrunError:
        raise BadRequest("header line too long") from None
    if len(line) > _MAX_LINE:
        raise BadRequest("header line too long")
    return line[:-2]


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int
) -> Request:
    """Parse one request.  Raises :class:`EOFError` on a cleanly
    closed idle connection, :class:`BadRequest` on malformed framing,
    :class:`PayloadTooLarge` when the body budget is exceeded."""
    line = await _read_line(reader)
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line: {line[:80]!r}")
    method, path, _version = parts

    headers: dict[str, str] = {}
    while True:
        raw = await _read_line(reader)
        if not raw:
            break
        if len(headers) >= _MAX_HEADERS:
            raise BadRequest("too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(f"malformed header: {raw[:80]!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            raise BadRequest("repeated Content-Length")
        headers[name] = value.strip()

    if "transfer-encoding" in headers:
        raise BadRequest("chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        # ASCII digits only: ``int`` would also take ``+5``, ``1_0``
        # and non-ASCII digits.
        value = headers["content-length"]
        if not (value.isascii() and value.isdigit()):
            raise BadRequest(f"malformed Content-Length: {value[:40]!r}")
        try:
            length = int(value)
        except ValueError:  # more digits than int() parses
            raise BadRequest("Content-Length too long") from None
        if length > max_body_bytes:
            raise PayloadTooLarge(
                f"body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise BadRequest("body shorter than Content-Length") from None
    return Request(method=method, path=path, headers=headers, body=body)


def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> None:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    writer.write(head + body)
