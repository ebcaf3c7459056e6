"""Generation-aware query serving over live ingestion stores.

:class:`LiveQueryEngine` is the online counterpart of
:class:`~repro.engine.QueryEngine` / :class:`~repro.engine.ShardedQueryEngine`:
instead of one frozen index it fronts one or more
:class:`~repro.ingest.IngestStore` instances whose contents change
under it.  Every query pins a consistent snapshot (the stores' current
generations plus frozen memtable copies), searches all parts under one
shared k-th-best bound, and releases the pins — so a compaction racing
a query retires the superseded generation without ever invalidating
the reader's mmap, and the answers stay byte-identical to a
from-scratch rebuild over the stores' current data.

Multiple stores compose exactly like shards: their object sets are
expected to be disjoint (e.g. a stream partitioned by any of the
sharding partitioners) and the merged search covers their union.
"""

from __future__ import annotations

import time
from collections import Counter

from ..exceptions import DeadlineExceeded, QueryError
from ..ingest import IngestStore
from ..search import api as _api
from ..search.results import SearchResult
from .engine import BatchResult, EngineConfig, QueryRequest
from .executor import make_executor

__all__ = ["LiveQueryEngine"]


class _Snapshot:
    """What one request searches — the parts of its pinned views — as
    a search context (``.index``, ``.dataset``, ``search_context``): a
    fresh object per request, so concurrent requests share no state."""

    dataset = None

    def __init__(self, views, config: EngineConfig) -> None:
        self.index = [part for view in views for part in view.parts]
        self._context = {"kernels": config.kernels, "filter": config.filter}

    def search_context(self, query, period) -> dict:
        return self._context


class LiveQueryEngine:
    """Batched k-MST execution over one or more live stores."""

    def __init__(
        self,
        stores: IngestStore | list[IngestStore],
        config: EngineConfig | None = None,
    ) -> None:
        if isinstance(stores, IngestStore):
            stores = [stores]
        if not stores:
            raise QueryError("LiveQueryEngine needs at least one store")
        self.stores = list(stores)
        self.config = config if config is not None else EngineConfig()
        self.executor = make_executor(
            self.config.executor, self.config.max_workers
        )
        self._counters: Counter = Counter()
        self._closed = False

    # ------------------------------------------------------------------
    def signature(self) -> tuple:
        """Freshness signature of the stores' *visible* contents — the
        per-store ``(generation, memtable_points)`` pairs.  Every
        append or compaction changes it, so a serving-tier result
        cache over a live engine invalidates on any write."""
        return tuple(
            (s.generation_number, s.memtable_points) for s in self.stores
        )

    def execute(
        self, request: QueryRequest, *, deadline: float | None = None
    ) -> SearchResult:
        """Run one request against a freshly pinned snapshot.

        ``deadline`` (absolute ``time.monotonic()``) or the request's
        ``deadline_ms`` budget is checked before the snapshot is
        pinned and then by the traversal at every node it dequeues; the
        pins are released however the search ends.
        """
        if self._closed:
            raise QueryError("engine is closed")
        if request.canonical_kind() != "mst":
            raise QueryError(
                f"LiveQueryEngine serves k-MST queries only, got "
                f"{request.kind!r}"
            )
        if deadline is None and request.deadline_ms is not None:
            deadline = time.monotonic() + request.deadline_ms / 1000.0
        if deadline is not None and time.monotonic() >= deadline:
            self._counters["engine.deadline_misses"] += 1
            raise DeadlineExceeded(
                "deadline expired before the mst query started"
            )
        views = []
        try:
            for store in self.stores:
                views.append(store.view())
            result = _api.execute_spec(
                _Snapshot(views, self.config), None, request, deadline=deadline
            )
        except DeadlineExceeded:
            self._counters["engine.deadline_misses"] += 1
            raise
        finally:
            for view in views:
                view.close()
        self._counters.update(result.stats.filter_counters())
        return result

    def run_batch(
        self, requests: list[QueryRequest], *, executor=None
    ) -> BatchResult:
        """Execute a batch; each request pins and releases its own
        snapshot, so ingestion and compaction proceed concurrently."""
        if self._closed:
            raise QueryError("engine is closed")
        ephemeral = None
        if executor is None:
            ex = self.executor
        elif isinstance(executor, str):
            ex = ephemeral = make_executor(executor, self.config.max_workers)
        else:
            ex = executor
        t0 = time.perf_counter()
        try:
            results = ex.map(
                lambda _i, request: self.execute(request), requests
            )
        finally:
            if ephemeral is not None:
                ephemeral.close()
        wall = time.perf_counter() - t0
        return BatchResult(
            results=results,
            wall_time_s=wall,
            queries_per_sec=(len(requests) / wall) if wall > 0 else 0.0,
            executor=getattr(ex, "kind", "serial"),
            metrics={
                "generations": [s.generation_number for s in self.stores],
                "memtable_points": [s.memtable_points for s in self.stores],
            },
        )

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Summed ingest counters across the stores, plus the
        signature-filter counters and deadline misses of queries served
        by this engine (``GET /stats`` shows both for a live target)."""
        out = Counter(self._counters)
        for store in self.stores:
            out.update(store.metrics.counters)
        return dict(out)

    def close(self) -> None:
        """Release the executor (the stores stay open — the engine
        does not own them)."""
        if not self._closed:
            self._closed = True
            self.executor.close()

    def __enter__(self) -> "LiveQueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
