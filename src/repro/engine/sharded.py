"""The sharded query engine: the session body over a planner's parts.

A :class:`ShardedQueryEngine` fronts a
:class:`~repro.sharding.ShardedIndex` the way a
:class:`~repro.engine.QueryEngine` fronts one tree — it *is* one, and
overrides how a request obtains its parts:

* a **planning layer** (:class:`~repro.engine.planner.QueryPlanner`)
  selects the shards whose extents can intersect the query and splits
  one global buffer budget across the shard pools
  (:func:`~repro.engine.planner.budget_buffers`),
* every shard's upper levels are pinned in its own pool
  (:class:`~repro.engine.engine.PinnedIndex`, one per shard),
* the cross-shard k-MST itself is the one driver,
  :func:`repro.search.bfmst.bfmst_search`: all selected shards advance
  under one shared k-th-best bound, then merge into a single
  ranking/refinement step.  The engine only says *where* the shards
  run — here, on the session's thread pool, or
  (``executor="process"``) in worker processes through
  :meth:`ShardedQueryEngine.run_parts`.
"""

from __future__ import annotations

from pathlib import Path

from ..exceptions import QueryError
from ..obs import state as _obs
from ..search.results import SearchResult, SearchStats
from ..sharding import ShardedIndex, load_sharded_index
from ..sharding.persistence import read_manifest
from .engine import SESSION_BUFFER_FRACTION, EngineConfig, QueryEngine
from .planner import QueryPlanner, ShardPlan, budget_buffers

__all__ = ["ShardedQueryEngine"]


class ShardedQueryEngine(QueryEngine):
    """Session owner for a sharded index.

    Use as a context manager, or call :meth:`close` to release the
    shard pins and the executor's pool::

        with ShardedQueryEngine(sharded_index) as engine:
            batch = engine.run_batch([
                QuerySpec("mst", query, period, k=5),
            ])
    """

    def __init__(
        self,
        index: ShardedIndex,
        *,
        config: EngineConfig | None = None,
        buffer_fraction: float = SESSION_BUFFER_FRACTION,
        buffer_max_pages: int = 1000,
        manifest_dir: str | Path | None = None,
        backend: str = "disk",
    ):
        self.backend = backend
        self._buffer_fraction = buffer_fraction
        self._buffer_max_pages = buffer_max_pages
        # Only an engine that knows its manifest directory knows the
        # shard page files a worker process has to reopen.
        shard_paths = None
        if manifest_dir is not None:
            directory = Path(manifest_dir)
            shard_paths = [
                str(directory / record["file"])
                for record in read_manifest(directory)["shards"]
            ]
        # Global memory budget first, so the upper levels are pinned
        # into correctly sized pools.
        self.buffer_capacities = budget_buffers(
            index.shards, buffer_fraction, buffer_max_pages
        )
        self.planner = QueryPlanner(index.extents())
        self._start(index, config, index.shards, shard_paths)
        self.metrics.inc("engine.shards", len(index.shards))

    @classmethod
    def open(
        cls,
        manifest_dir: str | Path,
        *,
        config: EngineConfig | None = None,
        buffer_fraction: float = SESSION_BUFFER_FRACTION,
        buffer_max_pages: int = 1000,
        backend: str = "disk",
        verify: bool = False,
    ) -> "ShardedQueryEngine":
        """Open a saved sharded index directory for querying.
        ``backend``/``verify`` are forwarded to the per-shard
        :func:`~repro.index.persistence.load_index`."""
        index = load_sharded_index(
            manifest_dir,
            buffer_fraction,
            buffer_max_pages,
            backend=backend,
            verify=verify,
        )
        return cls(
            index,
            config=config,
            buffer_fraction=buffer_fraction,
            buffer_max_pages=buffer_max_pages,
            manifest_dir=manifest_dir,
            backend=backend,
        )

    def signature(self) -> tuple:
        """Structural signature of the whole sharded collection — the
        tuple of per-shard signatures.  Any shard changing shape
        changes it, so serving-tier result caches invalidate
        collection-wide."""
        return tuple(pin.signature() for pin in self._pins)

    # ------------------------------------------------------------------
    # the parts seam
    # ------------------------------------------------------------------
    def search_context(self, query, period) -> dict:
        """Plan the shard fan-out for one query: the selected shards
        and where they run."""
        plan = self.planner.plan(query, period)
        self.metrics.inc("engine.planner.plans")
        self.metrics.inc("engine.planner.shards_selected", len(plan.selected))
        self.metrics.inc("engine.planner.shards_pruned", len(plan.pruned))
        context = {"selected": plan.selected}
        if self.executor.kind == "thread":
            context["executor"] = self.executor
        elif self.executor.kind == "process":
            # The multicore path: plans out, answers back (run_parts).
            context["executor"] = self
        return context

    def _run_requests(self, requests: list) -> list[SearchResult]:
        """One request after another: the session executor is spent
        *per query, across shards* — nesting batch-level and
        shard-level fan-out would deadlock a bounded pool and help
        nothing on a shared one."""
        return [self.execute(request) for request in requests]

    def run_parts(self, specs: dict, vmax: float, deadline) -> list:
        """Search shards in the process pool — the ``executor`` this
        engine hands the search driver when ``executor="process"``.

        ``specs`` maps each selected shard id to the
        :class:`~repro.search.QuerySpec` its worker runs.  One
        self-contained :class:`~repro.engine.planner.ShardPlan` per
        shard goes out (spec + shard path + generation signature + the
        driver-resolved ``vmax`` + the absolute deadline); every
        :class:`~repro.engine.planner.ShardAnswer` coming back is
        validated against the open store and returned as the driver's
        ``(shard_id, records, stats)`` triple.  Worker
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
                signature=self._pins[shard_id].signature(),
                vmax=vmax,
                deadline=deadline,
                backend=self.backend,
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
        if not 0 <= answer.shard_id < len(self._pins):
            raise QueryError(
                f"shard answer names unknown shard {answer.shard_id} "
                f"(engine has {len(self._pins)})"
            )
        current = self._pins[answer.shard_id].signature()
        if tuple(answer.signature) != current:
            raise QueryError(
                f"shard {answer.shard_id} answer signature "
                f"{tuple(answer.signature)} does not match the open "
                f"store {current}; the index changed under the worker"
            )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _record(self, result: SearchResult) -> None:
        """Besides the filter counters, mirror the per-shard breakdown
        of a k-MST answer into shard-labelled counters."""
        super()._record(result)
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

    def per_shard_summary(self) -> list[dict]:
        """One row per shard: its size, its buffer share and the work
        this session has sent it."""
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
