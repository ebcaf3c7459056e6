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
  :func:`repro.search.bfmst.bfmst_search`: the selected shards are
  searched as one tree — one best-first heap, one k-th-best bound, one
  signature pass — on the calling thread, then ranked and refined
  once, whatever the configured executor kind.
"""

from __future__ import annotations

from pathlib import Path

from ..search.results import SearchResult
from ..sharding import ShardedIndex, load_sharded_index
from .engine import (
    SESSION_MAX_PAGES,
    EngineConfig,
    QueryEngine,
)
from .planner import QueryPlanner, budget_buffers

__all__ = ["ShardedQueryEngine"]


class ShardedQueryEngine(QueryEngine):
    """Session owner for a sharded index.

    Use as a context manager, or call :meth:`close` to release the
    shard pins::

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
    ):
        # Global memory budget first, so the upper levels are pinned
        # into correctly sized pools.
        budget_buffers(index.shards, 1.0, SESSION_MAX_PAGES)
        self.planner = QueryPlanner(index.extents())
        self._start(index, config, index.shards)
        self.metrics.inc("engine.shards", len(index.shards))

    @classmethod
    def open(
        cls,
        manifest_dir: str | Path,
        *,
        config: EngineConfig | None = None,
        verify: bool = False,
    ) -> "ShardedQueryEngine":
        """Open a saved sharded index directory for querying.
        ``verify`` is forwarded to the per-shard
        :func:`~repro.index.persistence.load_index`."""
        index = load_sharded_index(
            manifest_dir, 1.0, SESSION_MAX_PAGES, verify=verify
        )
        return cls(index, config=config)

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
        """Plan one query: the shards it searches, as one tree."""
        plan = self.planner.plan(query, period)
        self.metrics.inc("engine.planner.plans")
        self.metrics.inc("engine.planner.shards_selected", len(plan.selected))
        self.metrics.inc("engine.planner.shards_pruned", len(plan.pruned))
        return {"selected": plan.selected}

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
