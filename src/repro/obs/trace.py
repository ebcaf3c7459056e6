"""Per-query trace context.

A :class:`QueryTrace` scopes one query (or any unit of work): while it
is active (installed in :mod:`repro.obs.state` by the
:func:`query_trace` context manager), every instrumentation point in
the storage, index, search and distance layers records into its
registry.  On exit it composes the existing
:class:`~repro.storage.stats.IOStats` snapshot/diff mechanism — the
page-traffic view the seed already had — with the new counters, and
the whole thing serialises to one JSON document.

Usage::

    from repro.obs import query_trace

    with query_trace(index, name="q42") as trace:
        result = bfmst_search(index, None, query, period=period, k=5)
    print(trace.to_json(indent=2))

``source`` may be anything that leads to an ``IOStats``: the stats
block itself, a page file / buffer manager (``.stats``), or an index
(``.pagefile.stats``).  Pass ``None`` to trace without I/O accounting.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from . import state as _state
from .registry import MetricsRegistry

__all__ = ["QueryTrace", "query_trace"]


def _resolve_io(source):
    """Duck-typed walk from ``source`` to an ``IOStats``-like object
    (anything with ``snapshot``/``diff``); ``None`` stays ``None``."""
    if source is None:
        return None
    for obj in (
        source,
        getattr(source, "stats", None),
        getattr(getattr(source, "pagefile", None), "stats", None),
    ):
        if obj is not None and hasattr(obj, "snapshot") and hasattr(obj, "diff"):
            return obj
    raise TypeError(
        f"cannot find IOStats on {type(source).__name__!r}: pass an "
        f"IOStats, a page file, a buffer manager or an index"
    )


def _io_as_dict(io) -> dict:
    """Counter fields of an ``IOStats`` (dataclass or compatible)."""
    fields = (
        "physical_reads",
        "physical_writes",
        "logical_reads",
        "buffer_hits",
        "buffer_misses",
        "evictions",
        "fsyncs",
        "checksum_failures",
    )
    out = {f: getattr(io, f) for f in fields if hasattr(io, f)}
    if hasattr(io, "hit_ratio"):
        out["hit_ratio"] = io.hit_ratio
    return out


class QueryTrace:
    """One query's worth of metrics plus the I/O delta it caused."""

    __slots__ = (
        "name",
        "registry",
        "wall_time_s",
        "io",
        "_io_source",
        "_io_before",
        "_t0",
    )

    def __init__(self, name: str = "query", io=None, registry=None) -> None:
        self.name = name
        self.registry = registry if registry is not None else MetricsRegistry()
        self.wall_time_s = 0.0
        self.io = None  # IOStats diff, set by finish()
        self._io_source = _resolve_io(io)
        self._io_before = None
        self._t0 = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryTrace":
        self._t0 = time.perf_counter()
        if self._io_source is not None:
            self._io_before = self._io_source.snapshot()
        return self

    def finish(self) -> "QueryTrace":
        if self._t0 is not None:
            self.wall_time_s = time.perf_counter() - self._t0
        if self._io_source is not None and self._io_before is not None:
            self.io = self._io_source.diff(self._io_before)
        return self

    # ------------------------------------------------------------------
    # recording (thin delegates so call sites only need the trace)
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.registry.inc(name, n)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def record_max(self, name: str, value: float) -> None:
        self.registry.record_max(name, value)

    def time(self, name: str):
        return self.registry.time(name)

    @property
    def counters(self) -> dict[str, int]:
        return self.registry.counters

    @property
    def buffer_hit_ratio(self) -> float:
        """Hit ratio of the traced window's buffer traffic (0 when no
        I/O source was attached or nothing was requested)."""
        if self.io is None:
            return 0.0
        return self.io.hit_ratio

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_time_s": self.wall_time_s,
            "io": _io_as_dict(self.io) if self.io is not None else None,
            "metrics": self.registry.as_dict(),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


@contextmanager
def query_trace(source=None, *, name: str = "query", registry=None):
    """Activate a :class:`QueryTrace` for the duration of the block.

    Installs the trace in the process-global slot (nesting restores the
    previous trace on exit) and snapshots/diffs the I/O stats reachable
    from ``source``.
    """
    trace = QueryTrace(name=name, io=source, registry=registry)
    previous = _state.ACTIVE
    _state.ACTIVE = trace
    trace.start()
    try:
        yield trace
    finally:
        trace.finish()
        _state.ACTIVE = previous
