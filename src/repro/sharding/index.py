"""Per-shard index build and the aggregate :class:`ShardedIndex`.

Each shard gets its own complete :class:`~repro.index.base.TrajectoryIndex`
(own page file, own LRU buffer pool); :class:`ShardedIndex` is the thin
aggregate the planner and the cross-shard search operate on.  The
aggregate ``max_speed`` is the maximum over shards — trajectories are
partitioned, never split, so this equals the single-index value and the
speed-dependent DISSIM bounds stay *identical* to the unsharded search.
"""

from __future__ import annotations

from ..exceptions import IndexError_, QueryError
from ..geometry import MBR3D
from ..index import NO_PAGE, TrajectoryIndex
from ..storage import IOStats
from .dataset import ShardedDataset

__all__ = ["ShardedIndex", "build_sharded_index"]


class _PooledIOStats:
    """Snapshot/diff view over several ``IOStats`` blocks, summed — lets
    ``query_trace`` account page traffic across every shard at once."""

    def __init__(self, sources: list[IOStats]) -> None:
        self._sources = sources

    def snapshot(self) -> IOStats:
        total = IOStats()
        for s in self._sources:
            total.physical_reads += s.physical_reads
            total.physical_writes += s.physical_writes
            total.logical_reads += s.logical_reads
            total.buffer_hits += s.buffer_hits
            total.buffer_misses += s.buffer_misses
            total.evictions += s.evictions
        return total

    def diff(self, earlier: IOStats) -> IOStats:
        return self.snapshot().diff(earlier)


class ShardedIndex:
    """N per-shard trajectory indexes behind one aggregate facade."""

    is_sharded = True

    def __init__(
        self,
        shards: list[TrajectoryIndex],
        partitioner_params: dict | None = None,
    ) -> None:
        if not shards:
            raise QueryError("a sharded index needs at least one shard")
        self.shards = shards
        self.partitioner_params = partitioner_params
        self.page_size = shards[0].page_size

    # ------------------------------------------------------------------
    # aggregate metadata (mirrors the TrajectoryIndex attributes the
    # search and engine layers consume)
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def kind(self) -> str:
        """The shards' tree kind (a key of :data:`repro.index.TREES`)."""
        return self.shards[0].kind

    @property
    def num_nodes(self) -> int:
        return sum(s.num_nodes for s in self.shards)

    @property
    def num_entries(self) -> int:
        return sum(s.num_entries for s in self.shards)

    @property
    def trajectory_ids(self) -> set:
        out: set = set()
        for s in self.shards:
            out |= s.trajectory_ids
        return out

    @property
    def max_speed(self) -> float:
        # Global V_max ingredient: the fastest segment over all shards.
        return max(s.max_speed for s in self.shards)

    @property
    def node_accesses(self) -> int:
        return sum(s.node_accesses for s in self.shards)

    @property
    def stats(self) -> _PooledIOStats:
        """Aggregate I/O counters over the shard page files (the
        duck-typed source :func:`repro.obs.query_trace` looks for)."""
        return _PooledIOStats([s.pagefile.stats for s in self.shards])

    def extents(self) -> list[MBR3D | None]:
        """Per-shard root MBRs (``None`` for empty shards) — the
        planner's pre-filter input."""
        return [
            s.mbr() if s.root_page != NO_PAGE else None for s in self.shards
        ]

    def mbr(self) -> MBR3D:
        boxes = [b for b in self.extents() if b is not None]
        if not boxes:
            raise IndexError_("empty index has no MBR")
        out = boxes[0]
        for b in boxes[1:]:
            out = out.union(b)
        return out

    def range_search(self, box: MBR3D) -> list:
        """Leaf entries intersecting ``box``, concatenated over shards
        (same contract as
        :meth:`~repro.index.base.TrajectoryIndex.range_search`, so the
        range/CNN algorithms run on a sharded index unchanged)."""
        out: list = []
        for s in self.shards:
            out.extend(s.range_search(box))
        return out

    def size_mb(self) -> float:
        return sum(s.size_mb() for s in self.shards)

    def close(self) -> None:
        """Close every shard's page file."""
        for s in self.shards:
            s.pagefile.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedIndex({self.num_shards} shards, kind={self.kind!r}, "
            f"{self.num_entries} entries)"
        )


def build_sharded_index(
    sharded: ShardedDataset,
    index_cls: type[TrajectoryIndex],
    page_size: int = 4096,
    buffer_fraction: float = 0.10,
    buffer_max_pages: int = 1000,
) -> ShardedIndex:
    """Build one finalized index per shard of ``sharded``.

    Empty shards (possible under skewed range partitions) get an empty
    finalized index so shard ids stay aligned with the dataset's.
    """
    shards: list[TrajectoryIndex] = []
    for shard_ds in sharded.shards:
        index = index_cls(page_size=page_size)
        index.bulk_insert(shard_ds)
        index.finalize(buffer_fraction, buffer_max_pages)
        shards.append(index)
    return ShardedIndex(
        shards,
        partitioner_params=sharded.partitioner.params(),
    )
