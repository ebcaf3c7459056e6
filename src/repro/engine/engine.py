"""The batched query engine.

A :class:`QueryEngine` owns an index, its dataset and the index's
buffer manager for a session and executes *batches* of heterogeneous
queries (k-MST, linear scan, point NN, range, continuous NN,
time-relaxed) through one shared execution context, so work that a
one-off call throws away is amortised:

* the upper index levels are pinned in the buffer pool for the
  session (:meth:`QueryEngine.pin_upper_levels`),
* exact refinement integrals are memoised across queries
  (:class:`~repro.engine.cache.DissimRefinementCache`).

The engine is an execution *context* in the sense of the unified
search API: it exposes ``.index``, ``.dataset`` and
``search_context(query, period)`` — the session's kernels and filter
defaults and its refinement cache, as plain keyword data for the one
search driver — so any :mod:`repro.search.api` function accepts it in
the first argument slot: ``bfmst_search(engine, None, query, k=5)``
searches exactly as ``engine.execute`` does.  The traversal itself
keeps no state between queries: the same request executed twice does
the same work.

The pins and the refinement cache are refreshed automatically when the
index's structural signature ``(num_nodes, num_entries, root_page)``
changes (e.g. after a rebuild or insertion); hit/miss counters live in
the engine's always-on :class:`~repro.obs.registry.MetricsRegistry`
and are mirrored into any active :func:`~repro.obs.query_trace`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import DeadlineExceeded, QueryError
from ..geometry import MBR2D, Point
from ..index import NO_PAGE, TrajectoryIndex, load_index
from ..obs import MetricsRegistry
from ..obs import state as _obs
from ..search import api as _api
from ..search.results import SearchResult
from ..search.spec import QuerySpec
from ..trajectory import Trajectory, TrajectoryDataset, read_csv, read_json
from .cache import DissimRefinementCache
from .executor import make_executor

__all__ = [
    "EngineConfig",
    "QueryRequest",
    "BatchResult",
    "QueryEngine",
    "query_key",
    "SESSION_BUFFER_FRACTION",
]

#: Default buffer fraction for an engine *session*.  A one-off CLI
#: query opens the index at the paper's 10 % operating point; a session
#: that executes whole batches against the same index amortises a
#: warmer buffer across every query, so :meth:`QueryEngine.open` sizes
#: it at 25 % (still capped at ``buffer_max_pages``).
SESSION_BUFFER_FRACTION = 0.25

def query_key(query):
    """A hashable identity for a query object (cache scope key)."""
    if isinstance(query, Trajectory):
        return (
            "traj",
            query.object_id,
            tuple((p.x, p.y, p.t) for p in query.samples),
        )
    if isinstance(query, Point):
        return ("point", query.x, query.y)
    if isinstance(query, MBR2D):
        return ("window", query.xmin, query.ymin, query.xmax, query.ymax)
    raise QueryError(f"unsupported query object {type(query).__name__}")


def refinement_view(cache: DissimRefinementCache, query: Trajectory, period):
    """The refinement LRU bound to one ``(query, period)`` scope — the
    ``refinement_cache`` an engine hands the search driver."""
    span = tuple(period) if period is not None else (query.t_start, query.t_end)
    return cache.view(query_key(query), span)


@dataclass
class EngineConfig:
    """Tunables for a :class:`QueryEngine` session.

    ``pin_upper_levels`` counts index levels from the root downwards
    (2 = root + its children; 0 disables pinning).  A
    ``dissim_cache_size`` of 0 disables the refinement cache.
    ``executor`` is ``"serial"``, ``"thread"`` or ``"process"``; the
    threaded executor treats the index as read-only and enables the
    buffer manager's lock.  ``kernels`` selects the hot-path
    implementation for k-MST queries (``"auto"`` picks the vectorised
    numpy kernels when numpy is importable and the pure-Python
    reference otherwise; ``"numpy"``/``"python"`` force one; ``None``
    leaves the choice to each request, whose own default is ``"auto"``)
    — see :mod:`repro.distance.kernels`.  ``filter`` is the session default
    for the signature filter tier (``"auto"``/``"on"``/``"off"``, see
    :mod:`repro.filter`); a request that names a filter mode
    explicitly overrides it.
    """

    dissim_cache_size: int = 4096
    pin_upper_levels: int = 2
    executor: str = "serial"
    max_workers: int | None = None
    kernels: str | None = "auto"
    filter: str = "auto"


#: ``QueryRequest`` was promoted to the public, wire-serializable
#: :class:`repro.search.spec.QuerySpec` (same fields, same positional
#: order, plus ``kernels``/``deadline_ms`` and a JSON round-trip).  The
#: engine keeps the old name as an alias so every existing call site —
#: ``QueryRequest("mst", query, period, k=5)`` — keeps working.
QueryRequest = QuerySpec


@dataclass
class BatchResult:
    """A batch's answers plus its throughput and cache telemetry."""

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


class QueryEngine:
    """Session owner for an index + dataset, executing query batches.

    Use as a context manager, or call :meth:`close` to release pins::

        with QueryEngine(index, dataset) as engine:
            batch = engine.run_batch([
                QueryRequest("mst", query, period, k=5),
                QueryRequest("range", window, period),
            ])
    """

    def __init__(
        self,
        index: TrajectoryIndex,
        dataset: TrajectoryDataset | None = None,
        *,
        config: EngineConfig | None = None,
    ):
        self.index = index
        self.dataset = dataset
        self.config = config or EngineConfig()
        self.metrics = MetricsRegistry()
        self.dissim_cache = DissimRefinementCache(
            max(1, self.config.dissim_cache_size)
        )
        self._signature = None
        self._closed = False
        # One executor per session: the threaded pool is reused across
        # batches and shut down with the engine.
        self.executor = make_executor(
            self.config.executor, self.config.max_workers
        )
        if self.executor.kind == "thread":
            self.enable_thread_safety()
        self._refresh_session()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        index_path: str | Path,
        dataset_path: str | Path | None = None,
        *,
        config: EngineConfig | None = None,
        buffer_fraction: float = SESSION_BUFFER_FRACTION,
        buffer_max_pages: int = 1000,
        backend: str = "disk",
        verify: bool = False,
    ) -> "QueryEngine":
        """Open a saved index (and optionally its dataset) for querying.

        ``backend`` selects the page store (``"disk"`` or the zero-copy
        read-only ``"mmap"``); ``verify`` checks the page file's digest
        against the sidecar before serving.
        """
        index = load_index(
            index_path,
            buffer_fraction,
            buffer_max_pages,
            backend=backend,
            verify=verify,
        )
        dataset = None
        if dataset_path is not None:
            dataset_path = Path(dataset_path)
            reader = read_json if dataset_path.suffix == ".json" else read_csv
            dataset = reader(dataset_path)
        return cls(index, dataset, config=config)

    def close(self) -> None:
        """Release buffer pins and the session executor's pool (caches
        are just dropped with the object)."""
        if not self._closed:
            self.index.buffer.unpin_all()
            self.executor.close()
            self._closed = True

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # cache/session management
    # ------------------------------------------------------------------
    def _index_signature(self) -> tuple:
        return (
            self.index.num_nodes,
            self.index.num_entries,
            self.index.root_page,
        )

    def enable_thread_safety(self) -> None:
        """Lock the buffer manager — required before concurrent
        :meth:`execute` calls from multiple threads (the threaded
        batch executor and the serving tier both do this)."""
        self.index.buffer.enable_thread_safety()

    def _refresh_session(self) -> None:
        self._signature = self._index_signature()
        self.dissim_cache.clear()
        pinned = self.pin_upper_levels()
        self.metrics.inc("engine.sessions")
        self.metrics.inc("engine.pinned_pages", pinned)

    def signature(self) -> tuple:
        """The index's current structural signature — the same value
        cache invalidation keys on.  The serving tier's result cache
        compares signatures across requests: a changed signature means
        previously cached answers may be stale."""
        return self._index_signature()

    def check_signature(self) -> bool:
        """Invalidate every cache level if the index changed shape
        since the last query; returns ``True`` when invalidation ran."""
        if self._index_signature() != self._signature:
            self.metrics.inc("engine.cache.invalidations")
            self._refresh_session()
            return True
        return False

    def pin_upper_levels(self) -> int:
        """Pin the top ``config.pin_upper_levels`` index levels in the
        buffer pool; returns how many pages were pinned."""
        buf = self.index.buffer
        buf.unpin_all()
        levels = self.config.pin_upper_levels
        if levels <= 0 or self.index.root_page == NO_PAGE:
            return 0
        floor = self.index.height - levels  # pin node.level >= floor
        pinned = 0
        stack = [self.index.root_page]
        while stack:
            page_id = stack.pop()
            node = self.index.read_node(page_id)
            if node.level < floor:
                continue
            buf.pin(page_id)
            pinned += 1
            if not node.is_leaf and node.level > floor:
                stack.extend(e.child_page for e in node.entries)
        return pinned

    # ------------------------------------------------------------------
    # unified-API execution context protocol
    # ------------------------------------------------------------------
    def search_context(self, query, period) -> dict:
        """What steers one k-MST search in this session, as keyword
        data for :func:`repro.search.bfmst.bfmst_search`: the
        configured kernels and filter default, and the cross-query
        refinement cache bound to this ``(query, period)``."""
        self.check_signature()
        if not isinstance(query, Trajectory):
            return {}
        context = {"kernels": self.config.kernels, "filter": self.config.filter}
        if self.config.dissim_cache_size > 0:
            context["refinement_cache"] = refinement_view(
                self.dissim_cache, query, period
            )
        return context

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, request: QueryRequest, *, deadline: float | None = None
    ) -> SearchResult:
        """Run one request through the shared context.

        ``deadline`` is an absolute ``time.monotonic()`` instant; if
        omitted, the request's own ``deadline_ms`` budget (if any)
        starts counting now.  A query past its deadline raises
        :class:`~repro.exceptions.DeadlineExceeded` — checked up front
        and (for k-MST) at every node the traversal dequeues, so
        runaway queries stop consuming their worker promptly.
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
        self.check_signature()
        self.metrics.inc("engine.queries")
        self.metrics.inc(f"engine.queries.{kind}")
        if kind in ("linear_scan", "continuous_nn", "time_relaxed"):
            self._require_dataset(kind)
        try:
            result = _api.execute_spec(self, None, request, deadline=deadline)
        except DeadlineExceeded:
            self.metrics.inc("engine.deadline_misses")
            raise
        # Per-query filter counters also surface in the stats block;
        # the registry view feeds ``GET /stats``.
        for name, value in result.stats.filter_counters().items():
            self.metrics.inc(name, value)
        return result

    def run_batch(
        self, requests: list[QueryRequest], *, executor=None
    ) -> BatchResult:
        """Execute the batch and return answers in request order with
        throughput and cache hit/miss telemetry."""
        if self._closed:
            raise QueryError("engine is closed")
        self.check_signature()
        ephemeral = None
        if executor is None:
            ex = self.executor
        elif isinstance(executor, str):
            ex = ephemeral = make_executor(executor, self.config.max_workers)
        else:
            ex = executor
        if getattr(ex, "kind", "serial") == "thread":
            self.enable_thread_safety()
        before = self.cache_counters()
        t0 = time.perf_counter()
        try:
            results = ex.map(
                lambda _i, request: self.execute(request), requests
            )
        finally:
            if ephemeral is not None:
                ephemeral.close()
        wall = time.perf_counter() - t0
        after = self.cache_counters()
        self._publish_cache_deltas(before, after)
        self.metrics.inc("engine.batches")
        qps = len(requests) / wall if wall > 0 else float("inf")
        return BatchResult(
            results=results,
            wall_time_s=wall,
            queries_per_sec=qps,
            executor=getattr(ex, "kind", "serial"),
            cache_counters=after,
            metrics=dict(self.metrics.counters),
        )

    def _require_dataset(self, kind: str) -> TrajectoryDataset:
        if self.dataset is None:
            raise QueryError(
                f"{kind} queries need the engine to own a dataset "
                f"(pass one to QueryEngine(...) or .open(dataset_path=...))"
            )
        return self.dataset

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def cache_counters(self) -> dict[str, int]:
        """Current absolute hit/miss/eviction counters of the
        refinement cache, plus the buffer pool's session totals."""
        out = dict(self.dissim_cache.counters())
        io = self.index.buffer.stats
        out["engine.buffer.hits"] = io.buffer_hits
        out["engine.buffer.misses"] = io.buffer_misses
        out["engine.buffer.pinned"] = len(self.index.buffer.pinned_pages)
        return out

    def _publish_cache_deltas(self, before: dict, after: dict) -> None:
        """Push this batch's counter deltas into the engine registry
        and mirror them into any active query trace."""
        trace = _obs.ACTIVE
        for name, value in after.items():
            delta = value - before.get(name, 0)
            if delta <= 0 or name.endswith((".size", ".scopes", ".pinned")):
                continue
            self.metrics.inc(name, delta)
            if trace is not None:
                trace.registry.inc(name, delta)
