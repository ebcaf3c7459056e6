"""The sharded query engine: planner + per-shard sessions.

A :class:`ShardedQueryEngine` fronts a
:class:`~repro.sharding.ShardedIndex` the way a
:class:`~repro.engine.QueryEngine` fronts one tree:

* a **planning layer** (:class:`~repro.engine.planner.QueryPlanner`)
  selects the shards whose extents can intersect the query and splits
  one global buffer budget across the shard pools
  (:func:`~repro.engine.planner.budget_buffers`),
* one per-shard :class:`QueryEngine` session keeps that shard's upper
  levels pinned and watches its signature,
* the cross-shard k-MST itself is the one driver,
  :func:`repro.search.bfmst.bfmst_search`: all selected shards advance
  under one shared k-th-best bound, then merge into a single
  ranking/refinement step that uses this engine's *global* refinement
  cache.  The engine only says *where* the shards run — here, on the
  session's thread pool, or (``executor="process"``) in worker
  processes through :meth:`ShardedQueryEngine.run_parts`.

The engine satisfies the unified search API's context protocol
(``.index``, ``.dataset``, ``search_context``), so every
:mod:`repro.search.api` entry point accepts it unchanged.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..exceptions import DeadlineExceeded, QueryError
from ..obs import MetricsRegistry
from ..obs import state as _obs
from ..search import api as _api
from ..search.results import SearchResult, SearchStats
from ..sharding import ShardedIndex, load_sharded_index
from ..sharding.persistence import read_manifest
from ..trajectory import Trajectory, TrajectoryDataset, read_csv, read_json
from .cache import DissimRefinementCache
from .engine import (
    SESSION_BUFFER_FRACTION,
    BatchResult,
    EngineConfig,
    QueryEngine,
    QueryRequest,
    refinement_view,
)
from .executor import make_executor
from .planner import QueryPlanner, ShardPlan, budget_buffers

__all__ = ["ShardedQueryEngine"]


class ShardedQueryEngine:
    """Session owner for a sharded index, executing query batches.

    Use as a context manager, or call :meth:`close` to release the
    shard engines' pins and the thread pool::

        with ShardedQueryEngine(sharded_index, dataset) as engine:
            batch = engine.run_batch([
                QueryRequest("mst", query, period, k=5),
            ])
    """

    def __init__(
        self,
        index: ShardedIndex,
        dataset: TrajectoryDataset | None = None,
        *,
        config: EngineConfig | None = None,
        buffer_fraction: float = SESSION_BUFFER_FRACTION,
        buffer_max_pages: int = 1000,
        manifest_dir: str | Path | None = None,
        backend: str = "disk",
    ):
        self.index = index
        self.dataset = dataset
        self.config = config or EngineConfig()
        self.metrics = MetricsRegistry()
        self.backend = backend
        self._buffer_fraction = buffer_fraction
        self._buffer_max_pages = buffer_max_pages
        # The process-pool path fans out *paths*, not objects: workers
        # reopen the shard page files themselves, so the engine must
        # know where they live.  Only engines opened from a manifest
        # directory can use executor="process".
        self.manifest_dir = str(manifest_dir) if manifest_dir is not None else None
        if manifest_dir is not None:
            directory = Path(manifest_dir)
            manifest = read_manifest(directory)
            self.shard_paths: list[str] | None = [
                str(directory / record["file"])
                for record in manifest["shards"]
            ]
        else:
            self.shard_paths = None
        if (self.config.executor == "process"
                and self.shard_paths is None):
            raise QueryError(
                "executor=\"process\" needs shard page-file paths; open "
                "the engine from a manifest directory "
                "(ShardedQueryEngine.open(...)) or pass manifest_dir="
            )
        # Global memory budget first, so the shard engines pin their
        # upper levels into correctly sized pools.
        self.buffer_capacities = budget_buffers(
            index.shards, buffer_fraction, buffer_max_pages
        )
        # Per-shard sessions only pin and watch their shard —
        # parallelism happens across shards through this engine's
        # executor, never nested.
        shard_config = EngineConfig(
            pin_upper_levels=self.config.pin_upper_levels, executor="serial"
        )
        self.shard_engines = [
            QueryEngine(shard, None, config=shard_config)
            for shard in index.shards
        ]
        self.planner = QueryPlanner(index.extents())
        # Refinement happens once, globally, after the cross-shard
        # merge — so the refinement cache lives here, not per shard.
        self.dissim_cache = DissimRefinementCache(
            max(1, self.config.dissim_cache_size)
        )
        self.executor = make_executor(
            self.config.executor, self.config.max_workers
        )
        if self.executor.kind == "thread":
            self.enable_thread_safety()
        self._closed = False
        self.metrics.inc("engine.sessions")
        self.metrics.inc("engine.shards", len(index.shards))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        manifest_dir: str | Path,
        dataset_path: str | Path | None = None,
        *,
        config: EngineConfig | None = None,
        buffer_fraction: float = SESSION_BUFFER_FRACTION,
        buffer_max_pages: int = 1000,
        backend: str = "disk",
        verify: bool = False,
    ) -> "ShardedQueryEngine":
        """Open a saved sharded index directory (and optionally its
        dataset) for querying.  ``backend``/``verify`` are forwarded to
        the per-shard :func:`~repro.index.persistence.load_index`."""
        index = load_sharded_index(
            manifest_dir,
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
        return cls(
            index,
            dataset,
            config=config,
            buffer_fraction=buffer_fraction,
            buffer_max_pages=buffer_max_pages,
            manifest_dir=manifest_dir,
            backend=backend,
        )

    def enable_thread_safety(self) -> None:
        """Lock every shard's buffer manager — required before any
        threaded execution touches the shard pools."""
        for shard in self.index.shards:
            shard.buffer.enable_thread_safety()

    def close(self) -> None:
        """Release every shard engine's pins and the session executor."""
        if not self._closed:
            for engine in self.shard_engines:
                engine.close()
            self.executor.close()
            self._closed = True

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # unified-API execution context protocol
    # ------------------------------------------------------------------
    def search_context(self, query, period) -> dict:
        """Plan the shard fan-out for one query: the selected shards,
        the session's kernels and filter defaults, the global
        refinement cache bound to this ``(query, period)`` and where the
        shards run, as keyword data for
        :func:`repro.search.bfmst.bfmst_search`."""
        plan = self.planner.plan(query, period)
        self.metrics.inc("engine.planner.plans")
        self.metrics.inc("engine.planner.shards_selected", len(plan.selected))
        self.metrics.inc("engine.planner.shards_pruned", len(plan.pruned))
        for shard_id in plan.selected:
            self.shard_engines[shard_id].check_signature()
        context: dict = {
            "selected": plan.selected,
            "kernels": self.config.kernels,
            "filter": self.config.filter,
        }
        if isinstance(query, Trajectory) and self.config.dissim_cache_size > 0:
            context["refinement_cache"] = refinement_view(
                self.dissim_cache, query, period
            )
        if self.executor.kind == "thread":
            context["executor"] = self.executor
        elif self.executor.kind == "process":
            # The multicore path: plans out, answers back (run_parts).
            context["executor"] = self
        return context

    def signature(self) -> tuple:
        """Structural signature of the whole sharded collection — the
        tuple of per-shard engine signatures.  Any shard changing shape
        changes the collection signature, so serving-tier result caches
        invalidate collection-wide."""
        return tuple(engine.signature() for engine in self.shard_engines)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, request: QueryRequest, *, deadline: float | None = None
    ) -> SearchResult:
        """Run one request through the planner + shard contexts.

        ``deadline`` (absolute ``time.monotonic()``) or the request's
        own ``deadline_ms`` budget bounds execution; a k-MST traversal
        checks it at every node it dequeues, on whichever thread or
        worker process each shard runs (see
        :meth:`QueryEngine.execute <repro.engine.QueryEngine.execute>`).
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
        self.metrics.inc("engine.queries")
        self.metrics.inc(f"engine.queries.{kind}")
        if kind in ("linear_scan", "continuous_nn", "time_relaxed"):
            self._require_dataset(kind)
        try:
            result = _api.execute_spec(self, None, request, deadline=deadline)
        except DeadlineExceeded:
            self.metrics.inc("engine.deadline_misses")
            raise
        if kind == "mst":
            self._record_shard_stats(result)
        return result

    def run_parts(
        self, specs: dict, vmax: float, kernels: str, filter: str, deadline
    ) -> list:
        """Search shards in the process pool — the ``executor`` this
        engine hands the search driver when ``executor="process"``.

        ``specs`` maps each selected shard id to the
        :class:`~repro.search.QuerySpec` its worker runs.  One
        self-contained :class:`~repro.engine.planner.ShardPlan` per
        shard goes out (spec + shard path + generation signature + the
        driver-resolved ``vmax``/kernels/filter + the absolute
        deadline); every :class:`~repro.engine.planner.ShardAnswer`
        coming back is validated against the open store and returned as
        the driver's ``(shard_id, records, stats)`` triple.  Worker
        counter deltas are folded into the active trace registry here,
        before the driver harvests it, so the
        :class:`~repro.search.SearchStats` enrichment and per-shard
        breakdown stay executor-agnostic.
        """
        plans = [
            ShardPlan(
                spec=spec,
                shard_id=shard_id,
                shard_path=self.shard_paths[shard_id],
                signature=self.shard_engines[shard_id].signature(),
                vmax=vmax,
                deadline=deadline,
                backend=self.backend,
                kernels=kernels,
                filter=filter,
                buffer_fraction=self._buffer_fraction,
                buffer_max_pages=self._buffer_max_pages,
            )
            for shard_id, spec in specs.items()
        ]
        trace = _obs.ACTIVE
        reg = trace.registry if trace is not None else None
        outcomes = []
        for answer in self.executor.run_plans(plans):
            self._validate_answer(answer)
            # The traversal's heap high-water is a worker-side gauge,
            # carried in the stats dict; it belongs to the trace, not
            # to the untraced stats block.
            high_water = answer.stats.pop("heap_high_water", 0)
            if reg is not None and reg.enabled:
                for name, value in answer.counters.items():
                    if value:
                        reg.inc(name, value)
                if high_water:
                    reg.gauge("index.heap_high_water").record_max(high_water)
            outcomes.append(
                (
                    answer.shard_id,
                    answer.to_records(),
                    SearchStats.from_dict(answer.stats),
                )
            )
        return outcomes

    def _validate_answer(self, answer) -> None:
        """Reject a :class:`~repro.engine.planner.ShardAnswer` whose
        generation signature no longer matches the open store — merging
        it would mix results from different index generations."""
        if not 0 <= answer.shard_id < len(self.shard_engines):
            raise QueryError(
                f"shard answer names unknown shard {answer.shard_id} "
                f"(engine has {len(self.shard_engines)})"
            )
        current = tuple(self.shard_engines[answer.shard_id].signature())
        if tuple(answer.signature) != current:
            raise QueryError(
                f"shard {answer.shard_id} answer signature "
                f"{tuple(answer.signature)} does not match the open "
                f"store {current}; the index changed under the worker"
            )

    def run_batch(self, requests: list[QueryRequest]) -> BatchResult:
        """Execute the batch and return answers in request order.

        Requests run one after another; the parallelism (when the
        session is threaded) is *per query, across shards* — nesting
        batch-level and shard-level pools would deadlock a bounded pool
        and help nothing on a shared one.
        """
        if self._closed:
            raise QueryError("engine is closed")
        before = self.cache_counters()
        t0 = time.perf_counter()
        results = [self.execute(request) for request in requests]
        wall = time.perf_counter() - t0
        after = self.cache_counters()
        self._publish_cache_deltas(before, after)
        self.metrics.inc("engine.batches")
        qps = len(requests) / wall if wall > 0 else float("inf")
        return BatchResult(
            results=results,
            wall_time_s=wall,
            queries_per_sec=qps,
            executor=self.executor.kind,
            cache_counters=after,
            metrics=dict(self.metrics.counters),
        )

    def _require_dataset(self, kind: str) -> TrajectoryDataset:
        if self.dataset is None:
            raise QueryError(
                f"{kind} queries need the engine to own a dataset "
                f"(pass one to ShardedQueryEngine(...) or "
                f".open(dataset_path=...))"
            )
        return self.dataset

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _record_shard_stats(self, result: SearchResult) -> None:
        """Mirror the per-shard breakdown of one k-MST answer into the
        engine registry (shard-labelled counters)."""
        for name, value in result.stats.filter_counters().items():
            self.metrics.inc(name, value)
        for row in result.stats.extra.get("per_shard", ()):
            label = row["shard"]
            if row.get("pruned"):
                self.metrics.inc(f"engine.shard.{label}.pruned")
                continue
            self.metrics.inc(f"engine.shard.{label}.queries")
            self.metrics.inc(
                f"engine.shard.{label}.node_accesses", row["node_accesses"]
            )
            self.metrics.inc(
                f"engine.shard.{label}.entries_processed",
                row["entries_processed"],
            )

    def cache_counters(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the global refinement cache,
        plus the buffer totals summed over the shard pools."""
        out: dict[str, int] = dict(self.dissim_cache.counters())
        hits = misses = pinned = 0
        for engine in self.shard_engines:
            io = engine.index.buffer.stats
            hits += io.buffer_hits
            misses += io.buffer_misses
            pinned += len(engine.index.buffer.pinned_pages)
        out["engine.buffer.hits"] = hits
        out["engine.buffer.misses"] = misses
        out["engine.buffer.pinned"] = pinned
        return out

    def _publish_cache_deltas(self, before: dict, after: dict) -> None:
        trace = _obs.ACTIVE
        for name, value in after.items():
            delta = value - before.get(name, 0)
            if delta <= 0 or name.endswith((".size", ".scopes", ".pinned")):
                continue
            self.metrics.inc(name, delta)
            if trace is not None:
                trace.registry.inc(name, delta)

    def per_shard_summary(self) -> list[dict]:
        """One row per shard for ``repro shard inspect`` / ``repro
        stats --per-shard``."""
        rows = []
        for shard_id, shard in enumerate(self.index.shards):
            rows.append(
                {
                    "shard": shard_id,
                    "num_nodes": shard.num_nodes,
                    "num_entries": shard.num_entries,
                    "trajectories": len(shard.trajectory_ids),
                    "buffer_capacity": shard.buffer.capacity,
                    "queries": self.metrics.value(
                        f"engine.shard.{shard_id}.queries"
                    ),
                    "node_accesses": self.metrics.value(
                        f"engine.shard.{shard_id}.node_accesses"
                    ),
                    "pruned": self.metrics.value(
                        f"engine.shard.{shard_id}.pruned"
                    ),
                }
            )
        return rows
