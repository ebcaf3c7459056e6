"""The query engine: one session body over parts.

A :class:`QueryEngine` owns an index and its buffer manager for a
session and executes k-MST queries (:class:`~repro.search.QuerySpec`)
one by one or in batches.  What a session keeps warm is its plain LRU
buffer pool, sized to hold the whole index (up to
:data:`SESSION_MAX_PAGES`); the traversal itself keeps no state
between queries, so the same request executed twice does the same
work.

Everything a session does around a search lives here once — the closed
check, the deadline, the ``engine.*`` / ``filter.*`` counting into one
:class:`~repro.obs.registry.MetricsRegistry`,
:meth:`QueryEngine.run_batch`, the buffer telemetry and the
lifecycle.  :class:`~repro.engine.ShardedQueryEngine` and
:class:`~repro.engine.LiveQueryEngine` subclass it and override only
how a request obtains and releases the parts it searches.

The engine is an execution *context* in the sense of the unified
search API: it exposes ``.index`` and
``search_context(query, period)`` — plain keyword data for the one
search driver — so any :mod:`repro.search.api` function accepts it in
the first argument slot: ``bfmst_search(engine, None, query, k=5)``
searches exactly as ``engine.execute`` does.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import DeadlineExceeded, QueryError
from ..index import TrajectoryIndex, load_index
from ..obs import MetricsRegistry
from ..obs import state as _obs
from ..search import api as _api
from ..search.results import SearchResult
from ..search.spec import QuerySpec

__all__ = [
    "EngineConfig",
    "BatchResult",
    "QueryEngine",
    "SESSION_MAX_PAGES",
]

#: An engine *session*'s buffer pool holds its whole index, at most
#: 1000 pages (split across the shards of a sharded session).  A
#: one-off ``load_index`` opens at the paper's 10 %; a session that
#: executes many queries decodes each page once.  A resident leaf
#: stays compact (:mod:`repro.index.node`), little more than its page.
SESSION_MAX_PAGES = 1000

#: The executor kinds an :class:`EngineConfig` accepts.
EXECUTOR_KINDS = ("serial", "thread", "process")


@dataclass
class EngineConfig:
    """An engine session's configuration.

    ``executor`` is ``"serial"``, ``"thread"`` or ``"process"``; any
    other kind is refused here, before an engine is built.  Every kind
    runs the same session: one :meth:`QueryEngine.execute` at a time,
    behind a lock of the engine's own, each query's parts searched as
    one tree on the calling thread, and no thread or process started.
    ``max_workers`` is accepted and unused.  How a query is searched is
    the index's business: see :func:`repro.search.bfmst.bfmst_search`.
    """

    executor: str = "serial"
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor kind {self.executor!r} "
                f"({'|'.join(EXECUTOR_KINDS)})"
            )


@dataclass
class BatchResult:
    """A batch's answers plus its throughput and buffer telemetry."""

    results: list[SearchResult]
    wall_time_s: float
    queries_per_sec: float
    executor: str
    cache_counters: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def as_dict(self) -> dict:
        return {
            "num_queries": len(self.results),
            "wall_time_s": self.wall_time_s,
            "queries_per_sec": self.queries_per_sec,
            "executor": self.executor,
            "cache": dict(self.cache_counters),
            "metrics": dict(self.metrics),
        }


def _signature(index: TrajectoryIndex) -> tuple:
    """``(num_nodes, num_entries, root_page)`` as the index is now."""
    return (index.num_nodes, index.num_entries, index.root_page)


class QueryEngine:
    """Session owner for an index, executing k-MST queries.

    Use as a context manager, or call :meth:`close` when done::

        with QueryEngine(index) as engine:
            batch = engine.run_batch([
                QuerySpec("mst", query, period, k=5),
                QuerySpec("mst", other, period, k=3),
            ])
    """

    def __init__(
        self,
        index: TrajectoryIndex,
        *,
        config: EngineConfig | None = None,
    ):
        self._start(index, config, [index])

    def _start(self, index, config, indexes) -> None:
        """The shared constructor body: ``indexes`` are the indexes whose
        buffer pools belong to this session (one, one per shard, or
        none for a live engine, whose generations come and go)."""
        self.index = index
        self.config = config if config is not None else EngineConfig()
        self.metrics = MetricsRegistry()
        self._closed = False
        self._indexes = list(indexes)
        self._seen = [_signature(ix) for ix in self._indexes]
        # On an interpreter lock, two requests searched at once only
        # convoy on it: a session admits one request at a time, and its
        # buffers need no lock.
        self._turn = threading.Lock()
        self.metrics.inc("engine.sessions")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        index_path: str | Path,
        *,
        config: EngineConfig | None = None,
        verify: bool = False,
    ) -> "QueryEngine":
        """Open a saved index for querying (read-only; ``verify``
        checks the page file's digest against the sidecar before
        serving), its buffer pool sized for a session."""
        index = load_index(index_path, 1.0, SESSION_MAX_PAGES, verify=verify)
        return cls(index, config=config)

    def close(self) -> None:
        """Refuse further queries (what the engine was handed — index,
        stores — stays open)."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def signature(self) -> tuple:
        """The index's current structural signature.  The serving
        tier's result cache compares signatures across requests: a
        changed signature means previously cached answers may be
        stale."""
        return _signature(self.index)

    def check_signature(self) -> bool:
        """Count an invalidation for each index that changed shape
        since the last query; returns ``True`` when one had."""
        changed = False
        for i, index in enumerate(self._indexes):
            current = _signature(index)
            if current != self._seen[i]:
                self._seen[i] = current
                changed = True
                self.metrics.inc("engine.cache.invalidations")
        return changed

    # ------------------------------------------------------------------
    # the parts seam
    # ------------------------------------------------------------------
    @contextmanager
    def _parts(self):
        """Obtain what one request searches, as a search context
        (``.index``, ``search_context``), and release it
        however the search ends.  Here: the session's own index, its
        signature checked."""
        self.check_signature()
        yield self

    def search_context(self, query, period) -> dict:
        """What steers one k-MST search in this session, as keyword
        data for :func:`repro.search.bfmst.bfmst_search`: nothing for
        one index."""
        return {}

    def _record(self, result: SearchResult) -> None:
        """Mirror one answer's counters into the session registry (the
        view ``GET /stats`` serves)."""
        for name, value in result.stats.filter_counters().items():
            self.metrics.inc(name, value)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, request: QuerySpec, *, deadline: float | None = None
    ) -> SearchResult:
        """Run one request.

        A request of any kind but ``"mst"`` is a
        :class:`~repro.exceptions.QueryError`.  ``deadline`` is an
        absolute ``time.monotonic()`` instant; if omitted, the request's
        own ``deadline_ms`` budget (if any) starts counting now.  A
        query past its deadline raises
        :class:`~repro.exceptions.DeadlineExceeded` — checked before
        any part is obtained and at every node the traversal dequeues,
        so a runaway query stops promptly.  A request first waits for
        the one before it to finish, at most until its deadline: one
        that is still waiting then raises
        :class:`~repro.exceptions.DeadlineExceeded` having read no
        page.
        """
        if self._closed:
            raise QueryError("engine is closed")
        kind = request.canonical_kind()
        if deadline is None and request.deadline_ms is not None:
            deadline = time.monotonic() + request.deadline_ms / 1000.0
        if deadline is not None and time.monotonic() >= deadline:
            self.metrics.inc("engine.deadline_misses")
            raise DeadlineExceeded(
                f"deadline expired before the {kind} query started"
            )
        if not self._turn.acquire(
            timeout=-1 if deadline is None
            else max(0.0, deadline - time.monotonic())
        ):
            self.metrics.inc("engine.deadline_misses")
            raise DeadlineExceeded(
                f"deadline expired while the {kind} query waited for the "
                f"engine"
            )
        try:
            if self._closed:
                raise QueryError("engine is closed")
            self.metrics.inc("engine.queries")
            self.metrics.inc("engine.queries.mst")
            try:
                with self._parts() as context:
                    result = _api.execute_spec(
                        context, None, request, deadline=deadline
                    )
            except DeadlineExceeded:
                self.metrics.inc("engine.deadline_misses")
                raise
            self._record(result)
        finally:
            self._turn.release()
        return result

    def run_batch(self, requests: list[QuerySpec]) -> BatchResult:
        """Execute the batch, one request after another, and return
        answers in request order with throughput and buffer hit/miss
        telemetry."""
        if self._closed:
            raise QueryError("engine is closed")
        before = self.cache_counters()
        t0 = time.perf_counter()
        results = [self.execute(request) for request in requests]
        wall = time.perf_counter() - t0
        after = self.cache_counters()
        # This batch's buffer traffic, into the session registry and
        # any active query trace.
        trace = _obs.ACTIVE
        for name in ("engine.buffer.hits", "engine.buffer.misses"):
            delta = after[name] - before[name]
            if delta > 0:
                self.metrics.inc(name, delta)
                if trace is not None:
                    trace.registry.inc(name, delta)
        self.metrics.inc("engine.batches")
        qps = len(requests) / wall if wall > 0 else float("inf")
        return BatchResult(
            results=results,
            wall_time_s=wall,
            queries_per_sec=qps,
            executor=self.config.executor,
            cache_counters=after,
            metrics=dict(self.metrics.counters),
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def cache_counters(self) -> dict[str, int]:
        """Session totals of the buffer pools: hits and misses, summed
        over the session's indexes."""
        stats = [ix.buffer.stats for ix in self._indexes]
        return {
            "engine.buffer.hits": sum(s.buffer_hits for s in stats),
            "engine.buffer.misses": sum(s.buffer_misses for s in stats),
        }
