"""The asyncio front-end: routing, admission, execution, drain.

One event loop accepts connections and frames requests; admitted
queries hop onto a bounded :class:`~concurrent.futures
.ThreadPoolExecutor` via :meth:`loop.run_in_executor` where the
blocking engine runs.  The engine must be thread-tolerant for
``workers > 1`` — open it with ``EngineConfig(executor="thread")`` so
the buffer manager takes its lock (the ``repro serve`` CLI does this).

Endpoints::

    POST /v1/query   QuerySpec JSON in, SearchResult envelope out
    GET  /stats      serve.* metrics + engine metrics + config
    GET  /healthz    200 once accepting, 503 while draining

Status codes: 400 malformed spec/framing (a kind other than ``mst``, a
non-trajectory query, an unknown or ill-typed option included), 404/405 routing, 413
body too large, 429 overload or quota (with ``Retry-After``), 422
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
from .admission import AdmissionController
from .cache import ResultCache
from .config import ServeConfig
from .http import (
    BadRequest,
    PayloadTooLarge,
    Request,
    read_request,
    write_response,
)

__all__ = ["ReproServer"]


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
        *,
        registry: MetricsRegistry | None = None,
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
        if self.config.workers > 1:
            # concurrent execute() calls need the engine's buffer lock
            enable = getattr(engine, "enable_thread_safety", None)
            if callable(enable):
                enable()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.quota_rps,
            self.config.quota_burst,
            self.config.max_clients,
        )
        self.cache = ResultCache(self.config.cache_entries)
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._started = asyncio.Event()
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Actual ``(host, port)`` once started (resolves port 0)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def draining(self) -> bool:
        return self._draining

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
        self._started.set()

    async def serve_until_drained(self) -> None:
        """Run until :meth:`drain` completes (signal or programmatic)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def drain(self) -> None:
        """Stop accepting, let admitted requests finish (bounded by
        ``drain_grace_s``), then release the pool."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_grace_s
        while self.admission.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self.metrics.inc("serve.drained")
        self._pool.shutdown(wait=False)
        self._stopped.set()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_id = peer[0] if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
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
                status, body, extra = await self._dispatch(request, peer_id)
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
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: Request, peer_id: str
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
            return await self._handle_query(request, peer_id)
        if request.path in ("/healthz", "/stats", "/v1/query"):
            return 405, _error_body(
                "method_not_allowed", f"{request.method} {request.path}"
            ), None
        return 404, _error_body("not_found", request.path), None

    async def _handle_query(
        self, request: Request, peer_id: str
    ) -> tuple[int, bytes, dict | None]:
        from ..search.spec import QuerySpec

        if self._draining:
            return 503, _error_body("draining", "server is draining"), None

        client_id = request.headers.get("x-client-id", peer_id)
        retry_after = self.admission.check_quota(client_id)
        if retry_after > 0:
            self.metrics.inc("serve.rejected.quota")
            return 429, _error_body(
                "quota", f"client {client_id!r} is over its rate quota"
            ), {"Retry-After": f"{retry_after:.3f}"}

        try:
            spec = QuerySpec.from_json(request.body.decode("utf-8"))
        except (ReproError, UnicodeDecodeError) as exc:
            self.metrics.inc("serve.rejected.malformed")
            return 400, _error_body("malformed", str(exc)), None

        if not self.admission.try_admit():
            self.metrics.inc("serve.rejected.overload")
            return 429, _error_body(
                "overload",
                f"{self.admission.max_inflight} requests already inflight",
            ), {"Retry-After": "0.05"}
        self.metrics.record_max("serve.queue_depth", self.admission.inflight)
        try:
            return await self._execute_admitted(spec)
        finally:
            self.admission.release()

    async def _execute_admitted(
        self, spec
    ) -> tuple[int, bytes, dict | None]:
        # The absolute monotonic deadline computed here crosses every
        # executor boundary as plain data: the engines hand it to the
        # traversal as an argument, and a process-pool
        # ShardedQueryEngine carries it as a ShardPlan field (the
        # monotonic clock is system-wide on Linux), so 504 enforcement
        # is executor-agnostic.
        budget_ms = spec.deadline_ms
        if budget_ms is None:
            budget_ms = self.config.default_deadline_ms
        budget_ms = min(budget_ms, self.config.max_deadline_ms)
        deadline = time.monotonic() + budget_ms / 1000.0

        signature = self.engine.signature()
        spec_key = spec.cache_key()
        cached = self.cache.get(signature, spec_key)
        if cached is not None:
            self.metrics.inc("serve.cache.hits")
            return 200, cached, {"X-Repro-Cache": "hit"}
        self.metrics.inc("serve.cache.misses")

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
            "inflight": self.admission.inflight,
            "cache_entries": len(self.cache),
            "draining": self._draining,
        }
        return json.dumps(doc, sort_keys=True).encode()


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value
