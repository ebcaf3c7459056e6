"""Incremental MST browsing (distance browsing, Hjaltason & Samet [8]).

``bfmst_browse`` is the lazy sibling of ``bfmst_search``: a generator
that yields trajectories one at a time in increasing DISSIM order,
without fixing ``k`` up front — stop consuming when you have seen
enough ("give me similar routes until I find one operated by another
carrier").  Taking the first k yields is equivalent to a k-MST query.

Emission rule: a completed candidate may be emitted once its (exactly
re-integrated) value is at most

* the *frontier barrier* — the next queued node's MINDIST times the
  period length (no unseen trajectory can beat that, Definition 6),
* every incomplete candidate's OPTDISSIMINC at the frontier MINDIST,
* every other completed-but-unemitted candidate's value.

All three only grow (the traversal is in non-decreasing MINDIST
order), so the emitted sequence is globally sorted.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Iterator

from ..distance import PartialDissim
from ..distance.kernels import window_dissim_batch
from ..exceptions import QueryError, TemporalCoverageError
from ..index import TrajectoryIndex, best_first_nodes
from ..trajectory import Trajectory
from .results import MSTMatch

__all__ = ["bfmst_browse"]


class _Candidate:
    __slots__ = ("tid", "partial", "windows")

    def __init__(self, tid: int, t_start: float, t_end: float) -> None:
        self.tid = tid
        self.partial = PartialDissim(t_start, t_end)
        self.windows: list = []


def bfmst_browse(
    index: TrajectoryIndex,
    query: Trajectory,
    period: tuple[float, float] | None = None,
    exclude_ids: set[int] | frozenset[int] = frozenset(),
) -> Iterator[MSTMatch]:
    """Yield matches in increasing exact-DISSIM order, lazily.

    Values of yielded matches are exact (closed-form re-integration);
    trajectories that never complete their coverage (they do not span
    the period) are yielded last as certified upper bounds with
    ``exact=False``.
    """
    t_start, t_end = period if period is not None else (query.t_start, query.t_end)
    if t_start >= t_end:
        raise QueryError(f"empty or inverted query period [{t_start}, {t_end}]")
    if not query.covers(t_start, t_end):
        raise TemporalCoverageError(
            f"query {query.object_id!r} does not cover "
            f"[{t_start}, {t_end}]"
        )
    period_len = t_end - t_start

    valid: dict[int, _Candidate] = {}
    done: set[int] = set(exclude_ids)
    # exact-valued, completed, not yet yielded: sorted (value, tid)
    ready: list[tuple[float, int]] = []

    def process_leaf(node) -> None:
        for tid, x1, y1, t1, x2, y2, t2 in node.rows_in_period(t_start, t_end):
            if tid in done:
                continue
            lo = max(t1, t_start)
            hi = min(t2, t_end)
            if lo >= hi:
                continue
            cand = valid.get(tid)
            if cand is None:
                cand = _Candidate(tid, t_start, t_end)
                valid[tid] = cand
            window = (lo, hi, x1, y1, t1, x2, y2, t2)
            ((integral, d_lo, d_hi),) = window_dissim_batch(query, [window])
            cand.partial.add_interval(lo, hi, integral, d_lo, d_hi)
            cand.windows.append(window)
            if cand.partial.is_complete():
                del valid[tid]
                done.add(tid)
                exact_total = 0.0
                for piece, _dl, _dh in window_dissim_batch(
                    query, cand.windows, exact=True
                ):
                    exact_total += piece.approx
                insort(ready, (exact_total, tid))

    def emittable(frontier_mindist: float) -> Iterator[MSTMatch]:
        while ready:
            value, tid = ready[0]
            if value > frontier_mindist * period_len:
                return
            if valid and any(
                c.partial.optdissim_inc(frontier_mindist) < value
                for c in valid.values()
            ):
                return
            ready.pop(0)
            yield MSTMatch(tid, value, 0.0, exact=True)

    pending = None
    for dist, node in best_first_nodes(index, query, t_start, t_end):
        if pending is not None:
            pending_node = pending
            if pending_node.is_leaf:
                process_leaf(pending_node)
            # everything still unseen is at least `dist` away
            yield from emittable(dist)
        pending = node
    if pending is not None:
        if pending.is_leaf:
            process_leaf(pending)
    # traversal exhausted: every covering candidate is complete
    yield from emittable(math.inf)
    # never-completed candidates (they do not span the period): report
    # certified upper bounds, worst-grounded by their pessimistic gap
    leftovers = sorted(
        (
            (c.partial.pesdissim(index.max_speed + query.max_speed()), tid)
            for tid, c in valid.items()
        ),
    )
    for value, tid in leftovers:
        yield MSTMatch(tid, value, 0.0, exact=False)
