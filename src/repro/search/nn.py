"""Point nearest-neighbour search over indexed trajectories (after [6]).

"Which object passed closest to location ``p`` during ``[t1, t2]``?" —
the historical NN query of Frentzos et al.'s companion paper, served by
the same index as BFMST.  Implemented with the standard best-first
strategy: nodes and leaf entries are popped from one priority queue
keyed by MINDIST to the query point, and the first ``k`` popped leaf
entries (deduplicated per object) are the exact answer.
"""

from __future__ import annotations

import heapq
import math

from ..exceptions import QueryError
from ..geometry import (
    MBR2D,
    Point,
    STPoint,
    STSegment,
    min_moving_point_rect_distance,
    point_rect_distance,
)
from ..index import NO_PAGE, TrajectoryIndex
from ..obs import state as _obs
from ..trajectory import TrajectoryDataset
from .results import SearchStats

__all__ = [
    "nearest_neighbours",
    "nearest_neighbours_with_stats",
    "nearest_neighbours_brute_force",
]


def _segment_point_distance(seg, p: Point, t_start: float, t_end: float) -> float | None:
    """Minimum distance from the moving point to the static point ``p``
    over the window; ``None`` without temporal overlap."""
    lo = max(seg.ts, t_start)
    hi = min(seg.te, t_end)
    if lo > hi:
        return None
    # A point is a degenerate rectangle.
    rect = MBR2D(p.x, p.y, p.x, p.y)
    return min_moving_point_rect_distance(seg, rect, lo, hi)


def nearest_neighbours_with_stats(
    index: TrajectoryIndex,
    point: Point,
    t_start: float,
    t_end: float,
    k: int = 1,
) -> tuple[list[tuple[int, float]], SearchStats]:
    """:func:`nearest_neighbours` plus a :class:`SearchStats` block with
    the same field semantics as BFMST's (node accesses are counted
    locally, so the numbers stay per-query under concurrency)."""
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if t_start > t_end:
        raise QueryError(f"inverted interval [{t_start}, {t_end}]")
    stats = SearchStats(total_nodes=index.num_nodes)
    out: list[tuple[int, float]] = []
    seen: set[int] = set()
    if index.root_page == NO_PAGE:
        return out, stats
    trace = _obs.ACTIVE
    reg = trace.registry if trace is not None else None
    if reg is not None:
        reg.inc("search.nn.queries")
    counter = 0
    # Heap items: (distance, tie, kind, payload); kind 0 = node page,
    # kind 1 = resolved leaf entry distance.
    heap: list = [(0.0, counter, 0, index.root_page)]
    while heap and len(out) < k:
        dist, _tie, kind, payload = heapq.heappop(heap)
        if kind == 1:
            tid = payload
            if tid not in seen:
                seen.add(tid)
                out.append((tid, dist))
                stats.candidates_completed += 1
            continue
        node = index.read_node(payload)
        stats.node_accesses += 1
        if node.is_leaf:
            stats.leaf_accesses += 1
        else:
            stats.internal_accesses += 1
        if reg is not None:
            reg.inc("search.nn.nodes_visited")
        if node.is_leaf:
            for tid, x1, y1, t1, x2, y2, t2 in node.rows:
                if tid in seen:
                    continue
                stats.entries_processed += 1
                if reg is not None:
                    reg.inc("search.nn.entries_evaluated")
                if t1 > t_end or t2 < t_start:
                    continue  # no temporal overlap
                seg = STSegment(STPoint(x1, y1, t1), STPoint(x2, y2, t2))
                d = _segment_point_distance(seg, point, t_start, t_end)
                counter += 1
                stats.candidates_created += 1
                heapq.heappush(heap, (d, counter, 1, tid))
        else:
            for child, xmin, ymin, tmin, xmax, ymax, tmax in node.rows:
                if tmax < t_start or t_end < tmin:
                    continue  # no temporal overlap
                counter += 1
                stats.mindist_evaluations += 1
                d = point_rect_distance(point.x, point.y, xmin, ymin, xmax, ymax)
                heapq.heappush(heap, (d, counter, 0, child))
    return out, stats


def nearest_neighbours(
    index: TrajectoryIndex,
    point: Point,
    t_start: float,
    t_end: float,
    k: int = 1,
) -> list[tuple[int, float]]:
    """The ``k`` objects passing closest to ``point`` during the
    interval, as ``(trajectory_id, distance)`` sorted ascending."""
    out, _stats = nearest_neighbours_with_stats(index, point, t_start, t_end, k)
    return out


def nearest_neighbours_brute_force(
    dataset: TrajectoryDataset,
    point: Point,
    t_start: float,
    t_end: float,
    k: int = 1,
) -> list[tuple[int, float]]:
    """Index-free reference implementation."""
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    best: list[tuple[int, float]] = []
    for tr in dataset:
        if not tr.overlaps(t_start, t_end):
            continue
        d_min = math.inf
        for seg in tr.segments_overlapping(t_start, t_end):
            d = _segment_point_distance(seg, point, t_start, t_end)
            if d is not None and d < d_min:
                d_min = d
        if math.isfinite(d_min):
            best.append((tr.object_id, d_min))
    best.sort(key=lambda item: (item[1], item[0]))
    return best[:k]
