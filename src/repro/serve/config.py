"""Serving-tier tunables."""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..exceptions import ServeError

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Tunables for a :class:`~repro.serve.ReproServer`.

    ``max_inflight`` is the *only* queue in the tier: requests beyond
    it are rejected immediately with ``429`` rather than buffered, so
    server memory stays bounded under any offered load.
    ``cache_entries`` of 0 disables the result cache.  The deadline
    budgets, the body limit and the drain grace are constants of
    :mod:`repro.serve.server`.
    """

    host: str = "127.0.0.1"
    port: int = 8723
    workers: int = 4
    max_inflight: int = 64
    cache_entries: int = 256

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError("workers must be >= 1")
        if self.max_inflight < 1:
            raise ServeError("max_inflight must be >= 1")
        if self.cache_entries < 0:
            raise ServeError("cache_entries must be >= 0")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
