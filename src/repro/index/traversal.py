"""Best-first index traversal (Hjaltason & Samet [8]).

Yields index nodes in non-decreasing order of their MINDIST from the
query trajectory, expanding internal nodes as they are dequeued — the
traversal order Definitions 5-6 and Heuristic 2 are built on.  Nodes
whose temporal extent misses the query period are never enqueued.

When a :func:`~repro.obs.query_trace` is active the traversal feeds
the trace: nodes dequeued/enqueued, MINDIST evaluations per child
level, and the priority queue's high-water mark (recorded even when
the consumer abandons the generator early, e.g. on Heuristic 2
termination).

:func:`leaf_points` is the other walk: every page once, in no order,
reading the trajectories back out of the leaves.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from ..obs import state as _obs
from ..storage.format import unframe_page
from ..trajectory import Trajectory
from .base import TrajectoryIndex
from .mindist import mindist_batch
from .node import NO_PAGE, Node, payload_rows

__all__ = ["best_first_nodes", "leaf_points"]


def leaf_points(
    index: TrajectoryIndex,
) -> tuple[dict[int, list[tuple[float, float, float]]], dict[int, set[int]]]:
    """Every trajectory's samples, read back from the index's leaves.

    Walks the tree's pages once, reading each as rows of numbers
    (:func:`~repro.index.node.payload_rows` — no node, entry or point
    objects), and regroups the leaf segments per object.  Both
    endpoints of every segment are original samples stored as exact
    doubles, so the samples come back float for float as they were
    inserted.  Returns ``(points, leaf_tids)``: ``points`` maps each
    trajectory id to its ``(x, y, t)`` samples in time order,
    ``leaf_tids`` each leaf page to the ids stored on it.

    Works the same on a tree built a moment ago (nodes still dirty in
    the buffer are written to their pages first) and on one loaded
    from disk, where every page read is verified: a damaged page raises
    :class:`~repro.exceptions.StorageError`.
    """
    if index.root_page == NO_PAGE:
        return {}, {}
    index.buffer.flush(index._serializer)
    samples: dict[int, dict[float, tuple[float, float, float]]] = {}
    leaf_tids: dict[int, set[int]] = {}
    stack = [index.root_page]
    while stack:
        page = stack.pop()
        _kind, payload = unframe_page(index.pagefile.read(page), page)
        level, rows = payload_rows(page, payload)
        if level:
            stack.extend(row[0] for row in rows)
            continue
        tids = leaf_tids[page] = set()
        for tid, x1, y1, t1, x2, y2, t2 in rows:
            seq = samples.get(tid)
            if seq is None:
                seq = samples[tid] = {}
            tids.add(tid)
            seq[t1] = (x1, y1, t1)
            seq[t2] = (x2, y2, t2)
    points = {}
    while samples:  # free each object's map as its list is made
        tid, seq = samples.popitem()
        points[tid] = [seq[t] for t in sorted(seq)]
    return points, leaf_tids


def best_first_nodes(
    index: TrajectoryIndex,
    query: Trajectory,
    t_start: float,
    t_end: float,
    *,
    leaf_admit=None,
) -> Iterator[tuple[float, Node]]:
    """Yield ``(mindist, node)`` pairs in increasing MINDIST order.

    The root is enqueued with distance 0; each dequeued internal node
    enqueues its temporally overlapping children keyed by MINDIST of
    their *entry* MBB (the child page itself is only read when
    dequeued, so node accesses reflect true I/O).  A child whose time
    extent misses the query period clipped to the query's lifetime —
    exactly the entries :func:`~repro.index.mindist.mindist` returns
    ``None`` for — is dropped before anything else looks at it.

    Equal MINDISTs are the rule, not the exception — a query passes
    *through* many boxes, all at distance 0 — and the order they are
    tried in decides how fast the k-th-best bound tightens.  Ties go to
    the box whose centre lies nearest the query's position at the
    middle of the period, not to whichever the tree's layout happens to
    list first (a packed tree lists them corner to corner).

    The children left are scored in one
    :func:`~repro.index.mindist.mindist_batch` call (numpy, bit-equal
    to the scalar :func:`~repro.index.mindist.mindist` per entry).

    ``leaf_admit`` — when given — is consulted as
    ``leaf_admit(page_id)`` for every page *known* to be a leaf (its
    parent is a level-1 node; the root is always read) whose entry
    overlaps the query period, twice: when its
    parent is expanded, before its MINDIST is computed, and again when
    it is dequeued, before the page is read.  Returning ``False`` skips
    the page entirely: no MINDIST (at expansion), no heap slot, no I/O,
    no yield.  The signature filter uses this to avoid leaves all of
    whose trajectories are already settled.  Settled stays settled and
    the consumer's threshold only tightens, so a leaf refused at
    expansion would have been refused at its pop as well: the pages
    yielded, and their order, are those of a pop-time check alone (the
    later check catches the leaves settled while they waited).  The
    consumer's H2 check — a function of the dequeue distance and its
    candidate state only — is unaffected, because skipping changes
    neither.
    """
    if index.root_page == NO_PAGE:
        return
    trace = _obs.ACTIVE
    reg = trace.registry if trace is not None else None
    high_water = 1
    lo = max(t_start, query.t_start)
    hi = min(t_end, query.t_end)
    mid = (lo + hi) / 2.0
    here = query.position_at(min(max(mid, query.t_start), query.t_end))
    heap = [(0.0, 0.0, index.root_page, False)]
    try:
        while heap:
            dist, _tie, page_id, known_leaf = heapq.heappop(heap)
            if known_leaf and leaf_admit is not None and not leaf_admit(page_id):
                if reg is not None:
                    reg.inc("index.leaves_skipped")
                continue
            node = index.read_node(page_id)
            if reg is not None:
                reg.inc("index.nodes_dequeued")
                reg.inc(
                    "index.leaves_dequeued"
                    if node.is_leaf
                    else "index.internals_dequeued"
                )
            yield (dist, node)
            if node.is_leaf:
                continue
            child_level = node.level - 1
            entries = [
                e
                for e in node.entries
                if max(e.mbr.tmin, lo) <= min(e.mbr.tmax, hi)
            ]
            if child_level == 0 and leaf_admit is not None:
                admitted = [e for e in entries if leaf_admit(e.child_page)]
                if reg is not None and len(admitted) < len(entries):
                    reg.inc(
                        "index.leaves_skipped", len(entries) - len(admitted)
                    )
                entries = admitted
            if not entries:
                continue
            boxes = [e.mbr for e in entries]
            dists = mindist_batch(query, boxes, t_start, t_end)
            for box, e, d in zip(boxes, entries, dists):
                dx = (box.xmin + box.xmax) / 2.0 - here.x
                dy = (box.ymin + box.ymax) / 2.0 - here.y
                heapq.heappush(
                    heap, (d, dx * dx + dy * dy, e.child_page, child_level == 0)
                )
            if reg is not None:
                level = f"index.mindist_evaluations.level_{child_level}"
                reg.inc(level, len(boxes))
                reg.inc("index.nodes_enqueued", len(boxes))
                if len(heap) > high_water:
                    high_water = len(heap)
    finally:
        # Runs on exhaustion *and* on early abandonment (GeneratorExit
        # from a consumer break), so the high-water mark is never lost.
        if reg is not None:
            reg.record_max("index.heap_high_water", high_water)
