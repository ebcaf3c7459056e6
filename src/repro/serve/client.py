"""Blocking HTTP client for the serving tier.

Speaks the tier's wire format — :class:`~repro.search.spec.QuerySpec`
out, :class:`~repro.search.results.SearchResult` back — over its own
keep-alive socket.  A request leaves as *one* buffer (headers and body
in a single ``sendall``, ``TCP_NODELAY`` set), so the server's event
loop wakes once per request; the reply is framed here.  One
:class:`ServeClient` owns one connection — use one per thread.
"""

from __future__ import annotations

import json
import socket

from ..exceptions import ServeError
from ..search.results import SearchResult
from ..search.spec import QuerySpec

__all__ = ["ServeClient", "ServeRejected"]


class ServeRejected(ServeError):
    """A non-200 answer; carries the status and decoded error body."""

    def __init__(self, status: int, doc: dict, retry_after: float | None):
        self.status = status
        self.reason = doc.get("error", "unknown")
        self.detail = doc.get("detail", "")
        self.retry_after = retry_after
        super().__init__(f"HTTP {status} {self.reason}: {self.detail}")


class ServeClient:
    """One keep-alive connection to a :class:`~repro.serve.ReproServer`.

    ``client_id`` is a label for the caller's own bookkeeping; it is
    not sent."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.client_id = client_id
        self._address = (host, port)
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._reader = None
        self._head = f"Host: {host}:{port}\r\n"

    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, dict, bytes]:
        head = f"{method} {path} HTTP/1.1\r\n{self._head}"
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        try:
            if self._sock is None:  # lazily, and again after a close
                sock = socket.create_connection(self._address, self._timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sock, self._reader = sock, sock.makefile("rb")
            self._sock.sendall((head + "\r\n").encode("latin-1") + (body or b""))
            status, headers, payload = self._read_reply()
        except (OSError, ValueError) as exc:
            self.close()
            raise ServeError(f"transport failure: {exc!r}") from exc
        if headers.get("Connection", "").lower() == "close":
            self.close()
        return status, headers, payload

    def _read_reply(self) -> tuple[int, dict, bytes]:
        """Status line, headers (names in ``Title-Case``), then
        ``Content-Length`` bytes of body."""
        reader = self._reader
        status_line = reader.readline()
        if not status_line.startswith(b"HTTP/1."):
            raise ValueError(f"no HTTP reply: {status_line[:40]!r}")
        headers: dict[str, str] = {}
        for line in iter(reader.readline, b"\r\n"):
            if not line:
                raise ConnectionError("connection closed mid-reply")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().title()] = value.strip()
        length = int(headers.get("Content-Length", 0))
        payload = reader.read(length)
        if len(payload) != length:
            raise ConnectionError("reply shorter than its Content-Length")
        return int(status_line[9:12]), headers, payload

    @staticmethod
    def _raise_for_status(status: int, headers: dict, payload: bytes) -> None:
        if status == 200:
            return
        try:
            doc = json.loads(payload.decode() or "{}")
        except (ValueError, UnicodeDecodeError):
            doc = {"error": "unknown", "detail": payload[:200].decode("latin-1")}
        retry_after = None
        raw = headers.get("Retry-After")
        if raw is not None:
            try:
                retry_after = float(raw)
            except ValueError:
                pass
        raise ServeRejected(status, doc, retry_after)

    # ------------------------------------------------------------------
    def query(self, spec: QuerySpec) -> SearchResult:
        """POST the spec; returns the decoded result envelope.  Raises
        :class:`ServeRejected` on any non-200 answer."""
        status, headers, payload = self._request(
            "POST", "/v1/query", spec.to_json().encode()
        )
        self._raise_for_status(status, headers, payload)
        result = SearchResult.from_json(payload)
        # annotation only — kept out of extras so answer_json() stays
        # byte-identical to the in-process result
        result.served_from_cache = headers.get("X-Repro-Cache") == "hit"
        return result

    def query_raw(self, body: bytes) -> tuple[int, dict, bytes]:
        """POST raw bytes; returns ``(status, headers, payload)``
        without interpretation — the rejection-path test hook."""
        return self._request("POST", "/v1/query", body)

    def stats(self) -> dict:
        status, headers, payload = self._request("GET", "/stats")
        self._raise_for_status(status, headers, payload)
        return json.loads(payload.decode())

    def health(self) -> bool:
        status, _headers, _payload = self._request("GET", "/healthz")
        return status == 200

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
