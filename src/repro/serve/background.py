"""Run a :class:`~repro.serve.ReproServer` on a daemon thread.

The test suite, the serving benchmark and the CI smoke job all need a
live server inside one process; this wraps the event loop plumbing:
``start()`` returns once the socket is bound (resolving port 0 to the
real port), ``stop()`` drains and joins.
"""

from __future__ import annotations

import asyncio
import threading

from ..exceptions import ServeError
from .config import ServeConfig
from .server import ReproServer

__all__ = ["BackgroundServer"]


class BackgroundServer:
    """Own thread + event loop around a :class:`ReproServer`."""

    def __init__(
        self,
        engine,
        config: ServeConfig | None = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.server: ReproServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                self.server = ReproServer(self.engine, self.config)
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_until_drained()

        # asyncio.run cancels what a drain left running (a connection
        # whose request it abandoned) before closing the loop, as
        # ``repro serve`` does.
        asyncio.run(main())

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise ServeError("background server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise ServeError(
                f"server failed to start: {self._startup_error!r}"
            ) from self._startup_error
        if self.server is None:
            raise ServeError("server failed to start within 30s")
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self.server is None:
            raise ServeError("background server is not running")
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None or self._loop is None or self.server is None:
            return
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.drain(), self._loop
            )
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
