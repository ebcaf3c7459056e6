"""The engine's planning layer for sharded serving.

Before a query fans out to per-shard executors, the planner answers two
questions:

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

This module also defines the **work-unit messages** of the process-pool
execution path: a :class:`ShardPlan` is everything one worker process
needs to search one shard — the :class:`~repro.search.QuerySpec`, the
shard's page file path, its generation signature, and the resolved
execution flags — with *no* live engine references, and a
:class:`ShardAnswer` is the columnar result buffer it ships back.  Both
serialize through the same versioned-dict codec pattern as the spec:1
wire schema, and their pickle form *is* that codec (``__reduce__``
routes through ``as_dict``/``from_dict``), so there is exactly one
serialization contract to test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import QueryError
from ..geometry import MBR3D
from ..search.bfmst import CandidateRecord
from ..search.spec import QuerySpec
from ..trajectory import Trajectory

__all__ = [
    "PLAN_VERSION",
    "ANSWER_VERSION",
    "ShardSelection",
    "ShardPlan",
    "ShardAnswer",
    "QueryPlanner",
    "budget_buffers",
]

#: Version tags of the two work-unit message envelopes.
PLAN_VERSION = 1
ANSWER_VERSION = 1


@dataclass
class ShardSelection:
    """Outcome of shard selection for one query."""

    selected: list[int] = field(default_factory=list)
    pruned: list[int] = field(default_factory=list)
    reason: str = "all"  # "all" | "time"

    @property
    def num_shards(self) -> int:
        return len(self.selected) + len(self.pruned)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise QueryError(message)


@dataclass
class ShardPlan:
    """A self-contained, picklable work unit: search one shard.

    Carries everything a worker process needs — no engine, index, or
    socket references — so it crosses the process boundary as a small
    message:

    * ``spec`` — the full :class:`~repro.search.QuerySpec` (the one
      request shape; ``options`` supply the H1/H2/refine switches and
      exclusions exactly as the in-process path reads them).
    * ``shard_path`` + ``signature`` — which page file to open and the
      ``(num_nodes, num_entries, root_page)`` generation it must still
      be; a mismatch means the store was rebuilt under us and the
      answer must be rejected, not merged.
    * ``vmax`` — resolved by the *parent* from the global maximum shard
      speed, because a per-shard recomputation would change bounds and
      break byte-identity with the serial executor.
    * ``deadline`` — absolute ``time.monotonic()`` deadline (system-wide
      on Linux, so it is meaningful across processes), the same value
      the in-process executors hand the traversal.

    The worker filters iff its shard carries a signature sidecar: it
    builds its own :class:`~repro.filter.SignatureFilter` from the one
    it mmaps next to ``shard_path``.
    """

    spec: QuerySpec
    shard_id: int
    shard_path: str
    signature: tuple[int, int, int]
    vmax: float
    deadline: float | None = None
    backend: str = "mmap"
    buffer_fraction: float = 0.10
    buffer_max_pages: int = 1000

    # ------------------------------------------------------------------
    # the one serialization contract
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "shard_plan": PLAN_VERSION,
            "spec": self.spec.as_dict(),
            "shard_id": int(self.shard_id),
            "shard_path": str(self.shard_path),
            "signature": [int(v) for v in self.signature],
            "vmax": float(self.vmax),
            "deadline": (
                float(self.deadline) if self.deadline is not None else None
            ),
            "backend": self.backend,
            "buffer_fraction": float(self.buffer_fraction),
            "buffer_max_pages": int(self.buffer_max_pages),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ShardPlan":
        _require(isinstance(doc, dict), f"shard plan must be an object")
        version = doc.get("shard_plan")
        _require(
            version == PLAN_VERSION,
            f"unsupported shard plan version {version!r} (this build "
            f"speaks version {PLAN_VERSION})",
        )
        sig = doc.get("signature")
        _require(
            isinstance(sig, (list, tuple))
            and len(sig) == 3
            and all(isinstance(v, int) for v in sig),
            f"signature must be [num_nodes, num_entries, root_page], "
            f"got {sig!r}",
        )
        shard_id = doc.get("shard_id")
        _require(
            isinstance(shard_id, int) and shard_id >= 0,
            f"shard_id must be a non-negative integer, got {shard_id!r}",
        )
        shard_path = doc.get("shard_path")
        _require(
            isinstance(shard_path, str) and shard_path,
            f"shard_path must be a non-empty string, got {shard_path!r}",
        )
        vmax = doc.get("vmax")
        _require(
            isinstance(vmax, (int, float)) and vmax >= 0.0,
            f"vmax must be a non-negative number, got {vmax!r}",
        )
        deadline = doc.get("deadline")
        _require(
            deadline is None or isinstance(deadline, (int, float)),
            f"deadline must be a number or null, got {deadline!r}",
        )
        return cls(
            spec=QuerySpec.from_dict(doc.get("spec")),
            shard_id=shard_id,
            shard_path=shard_path,
            signature=(sig[0], sig[1], sig[2]),
            vmax=float(vmax),
            deadline=float(deadline) if deadline is not None else None,
            backend=doc.get("backend", "mmap"),
            buffer_fraction=float(doc.get("buffer_fraction", 0.10)),
            buffer_max_pages=int(doc.get("buffer_max_pages", 1000)),
        )

    def __reduce__(self):
        # Pickle *is* the wire codec: one contract, one set of tests.
        return (ShardPlan.from_dict, (self.as_dict(),))


@dataclass
class ShardAnswer:
    """One shard's search result as flat columnar buffers.

    The pickle payload shipped back from a worker: parallel arrays for
    the completed (exact) candidates — including their retrieved
    windows, 8 floats each (``lo, hi, x1, y1, t1, x2, y2, t2``) so the
    parent can re-integrate exactly during refinement — plus
    ``(tid, value)`` pairs for never-completed candidates, the shard's
    :class:`~repro.search.SearchStats` as a plain dict, and the
    worker-side metrics counters (deltas from a fresh registry).  No
    object graphs cross the boundary: a window is the same eight
    numbers in a record and on the wire.
    """

    shard_id: int
    signature: tuple[int, int, int]
    exact_tids: list[int] = field(default_factory=list)
    exact_values: list[float] = field(default_factory=list)
    exact_error_bounds: list[float] = field(default_factory=list)
    window_counts: list[int] = field(default_factory=list)
    window_data: list[float] = field(default_factory=list)
    partial_tids: list[int] = field(default_factory=list)
    partial_values: list[float] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # record conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        shard_id: int,
        signature: tuple[int, int, int],
        records: list[CandidateRecord],
        stats: dict,
        counters: dict,
    ) -> "ShardAnswer":
        """Flatten merge-ready records into columnar buffers."""
        answer = cls(shard_id=shard_id, signature=tuple(signature))
        for record in records:
            if record.exact:
                answer.exact_tids.append(record.tid)
                answer.exact_values.append(record.dissim)
                answer.exact_error_bounds.append(record.error_bound)
                answer.window_counts.append(len(record.windows))
                for window in record.windows:
                    answer.window_data.extend(window)
            else:
                answer.partial_tids.append(record.tid)
                answer.partial_values.append(record.dissim)
        answer.stats = stats
        answer.counters = counters
        return answer

    def to_records(self) -> list[CandidateRecord]:
        """Inverse of :meth:`from_records` — rebuilds the exact-first,
        partial-second record order :func:`~repro.search.bfmst.candidate_records`
        produces, so the merged ranking is byte-identical to the
        in-process path."""
        records: list[CandidateRecord] = []
        data = self.window_data
        offset = 0
        for i, tid in enumerate(self.exact_tids):
            stop = offset + 8 * self.window_counts[i]
            windows = [tuple(data[at : at + 8]) for at in range(offset, stop, 8)]
            offset = stop
            records.append(
                CandidateRecord(
                    tid,
                    self.exact_values[i],
                    self.exact_error_bounds[i],
                    True,
                    windows,
                )
            )
        for i, tid in enumerate(self.partial_tids):
            records.append(
                CandidateRecord(tid, self.partial_values[i], 0.0, False, ())
            )
        return records

    # ------------------------------------------------------------------
    # the one serialization contract
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "shard_answer": ANSWER_VERSION,
            "shard_id": int(self.shard_id),
            "signature": [int(v) for v in self.signature],
            "exact_tids": [int(v) for v in self.exact_tids],
            "exact_values": [float(v) for v in self.exact_values],
            "exact_error_bounds": [
                float(v) for v in self.exact_error_bounds
            ],
            "window_counts": [int(v) for v in self.window_counts],
            "window_data": [float(v) for v in self.window_data],
            "partial_tids": [int(v) for v in self.partial_tids],
            "partial_values": [float(v) for v in self.partial_values],
            "stats": self.stats,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ShardAnswer":
        _require(isinstance(doc, dict), "shard answer must be an object")
        version = doc.get("shard_answer")
        _require(
            version == ANSWER_VERSION,
            f"unsupported shard answer version {version!r} (this build "
            f"speaks version {ANSWER_VERSION})",
        )
        sig = doc.get("signature")
        _require(
            isinstance(sig, (list, tuple)) and len(sig) == 3,
            f"signature must be [num_nodes, num_entries, root_page], "
            f"got {sig!r}",
        )
        exact_tids = list(doc.get("exact_tids", ()))
        exact_values = list(doc.get("exact_values", ()))
        exact_error_bounds = list(doc.get("exact_error_bounds", ()))
        window_counts = list(doc.get("window_counts", ()))
        window_data = list(doc.get("window_data", ()))
        partial_tids = list(doc.get("partial_tids", ()))
        partial_values = list(doc.get("partial_values", ()))
        _require(
            len(exact_tids)
            == len(exact_values)
            == len(exact_error_bounds)
            == len(window_counts),
            "exact candidate columns have mismatched lengths",
        )
        _require(
            len(window_data) == 8 * sum(window_counts),
            f"window_data carries {len(window_data)} floats for "
            f"{sum(window_counts)} windows (want 8 per window)",
        )
        _require(
            len(partial_tids) == len(partial_values),
            "partial candidate columns have mismatched lengths",
        )
        stats = doc.get("stats") or {}
        counters = doc.get("counters") or {}
        _require(isinstance(stats, dict), "stats must be an object")
        _require(isinstance(counters, dict), "counters must be an object")
        return cls(
            shard_id=int(doc.get("shard_id", 0)),
            signature=(int(sig[0]), int(sig[1]), int(sig[2])),
            exact_tids=exact_tids,
            exact_values=exact_values,
            exact_error_bounds=exact_error_bounds,
            window_counts=window_counts,
            window_data=window_data,
            partial_tids=partial_tids,
            partial_values=partial_values,
            stats=stats,
            counters=counters,
        )

    def __reduce__(self):
        return (ShardAnswer.from_dict, (self.as_dict(),))


class QueryPlanner:
    """Selects shards by intersecting per-shard extents with the query's
    time span.

    ``extents`` is the per-shard root-MBR list (``None`` marks an empty
    shard, which is always pruned).  The planner is stateless beyond
    it; refresh it after a rebuild via :meth:`update_extents`.
    """

    def __init__(self, extents: list[MBR3D | None]) -> None:
        self.extents = list(extents)

    def update_extents(self, extents: list[MBR3D | None]) -> None:
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
