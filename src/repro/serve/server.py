"""The asyncio front-end: routing, admission, execution, drain.

One event loop accepts connections and frames requests; admitted
queries hop onto a bounded :class:`~concurrent.futures
.ThreadPoolExecutor` via :meth:`loop.run_in_executor` where the
blocking engine runs.  ``workers`` bounds how many admitted requests
are handed to the engine at once; the engine, not the server, decides
how many of them it runs at once and which locks that takes.  A serial
engine (what ``repro serve`` opens) runs one request at a time, so two
requests never convoy on the interpreter lock, and a request still
waiting for its turn at its deadline is a 504.

Endpoints::

    POST /v1/query   QuerySpec JSON in, SearchResult envelope out
    GET  /stats      serve.* metrics + engine metrics + config
    GET  /healthz    200 once accepting, 503 while draining

Status codes: 400 malformed spec/framing (a kind other than ``mst``, a
non-trajectory query, an unknown or ill-typed option included), 404/405 routing, 413
body too large, 429 overload (with ``Retry-After``), 422
engine rejected the query, 500 unexpected, 503 draining, 504 deadline
exceeded.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import json
import signal
import time

from ..exceptions import DeadlineExceeded, ReproError, ServeError
from ..obs import MetricsRegistry
from .cache import ResultCache
from .config import ServeConfig
from .http import (
    BadRequest,
    PayloadTooLarge,
    Request,
    read_request,
    write_response,
)

__all__ = [
    "DEFAULT_DEADLINE_MS",
    "DRAIN_GRACE_S",
    "MAX_BODY_BYTES",
    "MAX_DEADLINE_MS",
    "ReproServer",
]

#: The deadline budget of a request that names none.
DEFAULT_DEADLINE_MS = 10_000.0
#: Every request's budget is clamped to this.
MAX_DEADLINE_MS = 60_000.0
#: A declared body over this many bytes is answered ``413``.
MAX_BODY_BYTES = 1 << 20
#: Seconds a drain waits for admitted requests before it gives up.
DRAIN_GRACE_S = 10.0


def _error_body(reason: str, detail: str) -> bytes:
    return json.dumps(
        {"error": reason, "detail": detail}, sort_keys=True
    ).encode()


class ReproServer:
    """Serve one engine (frozen, sharded, or live) over HTTP."""

    def __init__(
        self,
        engine,
        config: ServeConfig | None = None,
    ) -> None:
        for name in ("execute", "signature", "metrics"):
            if not hasattr(engine, name):
                raise ServeError(
                    f"engine {type(engine).__name__} has no {name}; "
                    "ReproServer fronts QueryEngine, ShardedQueryEngine "
                    "or LiveQueryEngine"
                )
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.metrics = MetricsRegistry()
        # Admitted requests not yet answered; the event loop alone
        # touches it, so a plain int suffices.
        self.inflight = 0
        self.abandoned = 0
        self.cache = ResultCache(self.config.cache_entries)
        # (signature, spec_key) -> the future its running miss resolves
        # once it has finished (single-flight); the event loop alone
        # touches it.
        self._flights: dict[tuple, asyncio.Future] = {}
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Actual ``(host, port)`` once started (resolves port 0)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise ServeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.drain())
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # not the main thread (BackgroundServer) or an event
                # loop without signal support — drain() stays callable
                # programmatically.
                break

    async def serve_until_drained(self) -> None:
        """Once started, run until :meth:`drain` completes (signal or
        programmatic)."""
        await self._stopped.wait()

    async def drain(self) -> None:
        """Stop accepting, let admitted requests finish (bounded by
        :data:`DRAIN_GRACE_S`), then release the pool.  Requests still
        running when the grace runs out are counted in
        ``serve.drain_abandoned`` and :attr:`abandoned`."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + DRAIN_GRACE_S
        while self.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self.abandoned = self.inflight
        self.metrics.inc("serve.drain_abandoned", self.abandoned)
        self.metrics.inc("serve.drained")
        self._pool.shutdown(wait=False)
        self._stopped.set()

    def drain_summary(self) -> str:
        """The line ``repro serve`` prints once drained."""
        if self.abandoned:
            return (
                f"drained; {self.abandoned} admitted requests abandoned "
                f"after {DRAIN_GRACE_S:g} s"
            )
        return "drained; all admitted requests finished"

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=MAX_BODY_BYTES
                    )
                except EOFError:
                    break
                except BadRequest as exc:
                    self.metrics.inc("serve.rejected.malformed")
                    write_response(
                        writer, 400, _error_body("malformed", str(exc)),
                        keep_alive=False,
                    )
                    break
                except PayloadTooLarge as exc:
                    self.metrics.inc("serve.rejected.too_large")
                    write_response(
                        writer, 413, _error_body("too_large", str(exc)),
                        keep_alive=False,
                    )
                    break
                status, body, extra = await self._dispatch(request)
                keep = request.keep_alive and not self._draining
                write_response(
                    writer, status, body, keep_alive=keep,
                    extra_headers=extra,
                )
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # The loop is closing over a request a drain abandoned:
            # end the connection quietly (a handler task that ends
            # cancelled is logged as an error by asyncio's streams).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: Request
    ) -> tuple[int, bytes, dict | None]:
        self.metrics.inc("serve.requests")
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            if self._draining:
                return 503, _error_body("draining", "server is draining"), None
            return 200, b'{"status": "ok"}', None
        if route == ("GET", "/stats"):
            return 200, self._stats_body(), None
        if route == ("POST", "/v1/query"):
            return await self._handle_query(request)
        if request.path in ("/healthz", "/stats", "/v1/query"):
            return 405, _error_body(
                "method_not_allowed", f"{request.method} {request.path}"
            ), None
        return 404, _error_body("not_found", request.path), None

    async def _handle_query(
        self, request: Request
    ) -> tuple[int, bytes, dict | None]:
        from ..search.spec import QuerySpec

        if self._draining:
            return 503, _error_body("draining", "server is draining"), None

        try:
            spec = QuerySpec.from_json(request.body.decode("utf-8"))
        except (ReproError, UnicodeDecodeError) as exc:
            self.metrics.inc("serve.rejected.malformed")
            return 400, _error_body("malformed", str(exc)), None

        if self.inflight >= self.config.max_inflight:
            self.metrics.inc("serve.rejected.overload")
            return 429, _error_body(
                "overload",
                f"{self.config.max_inflight} requests already inflight",
            ), {"Retry-After": "0.05"}
        self.inflight += 1
        self.metrics.record_max("serve.queue_depth", self.inflight)
        try:
            return await self._execute_admitted(spec)
        finally:
            self.inflight -= 1

    async def _execute_admitted(
        self, spec
    ) -> tuple[int, bytes, dict | None]:
        # The absolute monotonic deadline computed here is plain data:
        # the engine checks it while a request waits for its turn and
        # hands it to the traversal, which checks it at every node it
        # reads, so a query past it is a 504 wherever it stands.
        budget_ms = spec.deadline_ms
        if budget_ms is None:
            budget_ms = DEFAULT_DEADLINE_MS
        budget_ms = min(budget_ms, MAX_DEADLINE_MS)
        deadline = time.monotonic() + budget_ms / 1000.0

        signature = self.engine.signature()
        spec_key = spec.cache_key()
        key = (signature, spec_key)
        while True:
            cached = self.cache.get(signature, spec_key)
            if cached is not None:
                self.metrics.inc("serve.cache.hits")
                return 200, cached, {"X-Repro-Cache": "hit"}
            leader = self._flights.get(key)
            if leader is None:
                break
            # Single-flight: the same spec is running; wait for it to
            # finish, then read the cache.  A leader that failed left
            # nothing there, and this request runs on its own budget.
            self.metrics.inc("serve.cache.coalesced")
            try:
                await asyncio.wait_for(
                    asyncio.shield(leader), deadline - time.monotonic()
                )
            except asyncio.TimeoutError:
                self.metrics.inc("serve.deadline_misses")
                return 504, _error_body(
                    "deadline_exceeded",
                    "deadline expired waiting for the same query to finish",
                ), None
        self.metrics.inc("serve.cache.misses")
        if self.cache.capacity <= 0:  # nothing to share through
            return await self._run_miss(spec, deadline, signature, spec_key)

        flight = self._flights[key] = asyncio.get_running_loop().create_future()
        try:
            return await self._run_miss(spec, deadline, signature, spec_key)
        finally:
            del self._flights[key]
            flight.set_result(None)

    async def _run_miss(
        self, spec, deadline: float, signature, spec_key: str
    ) -> tuple[int, bytes, dict | None]:
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        try:
            result = await loop.run_in_executor(
                self._pool,
                functools.partial(
                    self.engine.execute, spec, deadline=deadline
                ),
            )
        except DeadlineExceeded as exc:
            self.metrics.inc("serve.deadline_misses")
            return 504, _error_body("deadline_exceeded", str(exc)), None
        except ReproError as exc:
            return 422, _error_body("rejected", str(exc)), None
        except Exception as exc:  # pragma: no cover - defensive
            return 500, _error_body("internal", repr(exc)), None
        finally:
            self.metrics.timer("serve.execute").record(
                time.perf_counter() - start
            )
        body = result.to_json().encode()
        self.cache.put(signature, spec_key, body)
        return 200, body, {"X-Repro-Cache": "miss"}

    # ------------------------------------------------------------------
    def _stats_body(self) -> bytes:
        doc = {
            "serve": self.metrics.as_dict(),
            "engine": {
                "type": type(self.engine).__name__,
                "signature": _jsonable(self.engine.signature()),
                "metrics": self.engine.metrics.as_dict(),
            },
            "config": self.config.as_dict(),
            "inflight": self.inflight,
            "cache_entries": len(self.cache),
            "draining": self._draining,
        }
        return json.dumps(doc, sort_keys=True).encode()


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value
