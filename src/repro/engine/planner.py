"""The engine's planning layer for sharded serving.

Before a query searches its shards, the planner answers two questions:

* **Which shards can contribute at all?**  Every shard index carries
  its root MBR (spatial × temporal extent).  A shard whose temporal
  extent misses the query period cannot contain an overlapping segment
  — MINDIST would return ``None`` for every node — so skipping it is
  answer-preserving.  There is **no** spatial pre-filter: a far-away
  trajectory is still a valid — bad — candidate, and with small k it
  may even be the answer.
* **How much buffer memory does each shard get?**  One global page
  budget is split across shard buffer pools proportionally to shard
  size via :meth:`~repro.storage.LRUBufferManager.resize_to_fraction`,
  so N shards together respect the same memory ceiling one index would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geometry import MBR3D
from ..trajectory import Trajectory

__all__ = [
    "ShardSelection",
    "QueryPlanner",
    "budget_buffers",
]


@dataclass
class ShardSelection:
    """Outcome of shard selection for one query."""

    selected: list[int] = field(default_factory=list)
    pruned: list[int] = field(default_factory=list)
    reason: str = "all"  # "all" | "time"


class QueryPlanner:
    """Selects shards by intersecting per-shard extents with the query's
    time span.

    ``extents`` is the per-shard root-MBR list (``None`` marks an empty
    shard, which is always pruned).  The planner is stateless beyond
    it.
    """

    def __init__(self, extents: list[MBR3D | None]) -> None:
        self.extents = list(extents)

    def plan(self, query, period: tuple[float, float] | None) -> ShardSelection:
        """Shard selection for ``query`` over ``period``: a shard
        whose temporal extent misses the query span is pruned."""
        span = self._span(query, period)
        plan = ShardSelection(reason="time" if span is not None else "all")
        for shard_id, extent in enumerate(self.extents):
            if extent is None:
                plan.pruned.append(shard_id)
                continue
            if span is not None and (
                extent.tmin > span[1] or extent.tmax < span[0]
            ):
                plan.pruned.append(shard_id)
                continue
            plan.selected.append(shard_id)
        return plan

    @staticmethod
    def _span(query, period) -> tuple[float, float] | None:
        if period is not None:
            return (period[0], period[1])
        if isinstance(query, Trajectory):
            return (query.t_start, query.t_end)
        return None


def budget_buffers(
    shards,
    fraction: float = 0.10,
    total_max_pages: int = 1000,
    min_pages: int = 8,
) -> list[int]:
    """Split one global buffer budget across shard buffer pools.

    Each shard's pool is resized to ``fraction`` of its own page file,
    capped so the *sum* of caps equals ``total_max_pages`` distributed
    proportionally to shard size (every shard keeps at least
    ``min_pages``).  Returns the resulting per-shard capacities.
    """
    total_pages = sum(s.pagefile.num_pages for s in shards)
    capacities: list[int] = []
    for s in shards:
        if total_pages > 0:
            share = int(total_max_pages * s.pagefile.num_pages / total_pages)
        else:
            share = min_pages
        cap = s.buffer.resize_to_fraction(
            fraction, max(min_pages, share), min_pages
        )
        capacities.append(cap)
    return capacities
