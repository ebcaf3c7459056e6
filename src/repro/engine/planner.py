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

import math
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
PLAN_VERSION = 2
ANSWER_VERSION = 1


@dataclass
class ShardSelection:
    """Outcome of shard selection for one query."""

    selected: list[int] = field(default_factory=list)
    pruned: list[int] = field(default_factory=list)
    reason: str = "all"  # "all" | "time"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise QueryError(message)


def _envelope(doc, tag: str, version: int) -> None:
    """``doc`` is an object carrying ``tag`` at this build's version."""
    what = tag.replace("_", " ")
    _require(isinstance(doc, dict), f"{what} must be an object")
    got = doc.get(tag)
    _require(
        _is_int(got) and got == version,
        f"unsupported {what} version {got!r} (this build speaks "
        f"version {version})",
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_field(doc: dict, key: str, minimum: int) -> int:
    value = doc.get(key)
    _require(
        _is_int(value) and value >= minimum,
        f"{key} must be an integer >= {minimum}, got {value!r}",
    )
    return value


def _signature_field(doc: dict) -> tuple[int, int, int]:
    sig = doc.get("signature")
    _require(
        isinstance(sig, list) and len(sig) == 3 and all(map(_is_int, sig)),
        f"signature must be [num_nodes, num_entries, root_page], "
        f"got {sig!r}",
    )
    return (sig[0], sig[1], sig[2])


def _column(doc: dict, key: str, check, what: str) -> list:
    value = doc.get(key, [])
    _require(
        isinstance(value, list) and all(map(check, value)),
        f"{key} must be a list of {what}, got {value!r}"[:200],
    )
    return value


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
    * ``buffer_pages`` — the capacity the session's global budget
      (:func:`budget_buffers`) gave this shard's pool; the worker sizes
      its own copy of the pool to it.
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
    buffer_pages: int
    deadline: float | None = None

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
            "buffer_pages": int(self.buffer_pages),
            "deadline": (
                float(self.deadline) if self.deadline is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ShardPlan":
        _envelope(doc, "shard_plan", PLAN_VERSION)
        signature = _signature_field(doc)
        shard_id = _int_field(doc, "shard_id", 0)
        shard_path = doc.get("shard_path")
        _require(
            isinstance(shard_path, str) and shard_path,
            f"shard_path must be a non-empty string, got {shard_path!r}",
        )
        vmax = doc.get("vmax")
        _require(
            _is_number(vmax) and 0.0 <= vmax < math.inf,
            f"vmax must be a finite non-negative number, got {vmax!r}",
        )
        deadline = doc.get("deadline")
        _require(
            deadline is None
            or (_is_number(deadline) and math.isfinite(deadline)),
            f"deadline must be a finite number or null, got {deadline!r}",
        )
        return cls(
            spec=QuerySpec.from_dict(doc.get("spec")),
            shard_id=shard_id,
            shard_path=shard_path,
            signature=signature,
            vmax=float(vmax),
            buffer_pages=_int_field(doc, "buffer_pages", 1),
            deadline=float(deadline) if deadline is not None else None,
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
        _envelope(doc, "shard_answer", ANSWER_VERSION)
        shard_id = _int_field(doc, "shard_id", 0)
        signature = _signature_field(doc)
        exact_tids = _column(doc, "exact_tids", _is_int, "integers")
        exact_values = _column(doc, "exact_values", _is_number, "numbers")
        exact_error_bounds = _column(
            doc, "exact_error_bounds", _is_number, "numbers"
        )
        window_counts = _column(
            doc, "window_counts", lambda v: _is_int(v) and v >= 0,
            "non-negative integers",
        )
        window_data = _column(doc, "window_data", _is_number, "numbers")
        partial_tids = _column(doc, "partial_tids", _is_int, "integers")
        partial_values = _column(doc, "partial_values", _is_number, "numbers")
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
        stats = doc.get("stats", {})
        counters = doc.get("counters", {})
        _require(isinstance(stats, dict), "stats must be an object")
        _require(isinstance(counters, dict), "counters must be an object")
        return cls(
            shard_id=shard_id,
            signature=signature,
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
