"""Best-first index traversal (Hjaltason & Samet [8]).

Yields index nodes in non-decreasing order of their MINDIST from the
query trajectory, expanding internal nodes as they are dequeued — the
traversal order Definitions 5-6 and Heuristic 2 are built on.  Nodes
whose temporal extent misses the query period are never enqueued.  One
walk serves one tree or several (the parts of a sharded index or a
live view) under one heap.

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
from typing import Iterator, Sequence

from ..obs import state as _obs
from ..storage.format import unframe_page
from ..trajectory import Trajectory
from .base import TrajectoryIndex
from .mindist import mindist_columns
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
    parts: Sequence[TrajectoryIndex],
    query: Trajectory,
    t_start: float,
    t_end: float,
    *,
    leaf_admit=None,
    leaf_refuse=None,
) -> Iterator[tuple[float, int, Node]]:
    """Yield ``(mindist, part, node)`` triples in increasing MINDIST
    order over one tree or several, searched as one.

    ``parts`` is a list of trees (one, for a plain index); ``part`` is
    the position of the node's tree in it.  Every tree's root is read
    and yielded first, at distance 0, in part order; each dequeued
    internal node then enqueues its temporally overlapping children
    keyed by MINDIST of their *entry* MBB (the child page itself is only
    read when dequeued, so node accesses reflect true I/O).  One heap
    holds every part's entries, keyed ``(mindist, tie, part, page,
    known_leaf)``, so the walk over several trees is the best-first
    order of one tree over all of them, and over one tree it is that
    tree's order.  A child whose time extent misses the query period
    clipped to the query's lifetime — exactly the entries
    :func:`~repro.index.mindist.mindist` returns ``None`` for — is
    dropped before anything else looks at it.

    Equal MINDISTs are the rule, not the exception — a query passes
    *through* many boxes, all at distance 0 — and the order they are
    tried in decides how fast the k-th-best bound tightens.  Ties go to
    the box whose centre lies nearest the query's position at the
    middle of the period, not to whichever the tree's layout happens to
    list first (a packed tree lists them corner to corner).

    An expanded node's children are read as columns
    (:meth:`~repro.index.node.Node.child_columns`): the period test is
    one vector compare, the children left are scored in one
    :func:`~repro.index.mindist.mindist_columns` call (numpy, bit-equal
    to the scalar :func:`~repro.index.mindist.mindist` per entry), and
    the tie keys are computed elementwise with the scalar operations.
    The roots' children, all parts' together, are scored in one call.

    ``leaf_admit`` — when given — is consulted as
    ``leaf_admit(part, page_id)`` for every page *known* to be a leaf
    (its parent is a level-1 node; a root is always read) whose entry
    overlaps the query period, twice: when its
    parent is expanded, before its MINDIST is computed, and again when
    it is dequeued, before the page is read.  Returning ``False`` skips
    the page entirely: no MINDIST (at expansion), no heap slot, no I/O,
    no yield.  ``leaf_refuse`` — optional, and only with
    ``leaf_admit`` — answers for all of an expanded node's leaf
    children at once, before ``leaf_admit``: given the part and the
    pages' ids as an ``int64`` array, it returns a boolean array,
    ``True`` for each page to skip (or ``None`` to refuse none), and
    only the pages it lets through are asked one by one.  It must
    refuse only pages ``leaf_admit`` would refuse at that moment.  The
    signature filter uses the pair to avoid leaves all of whose
    trajectories are already settled.  Settled stays settled and
    the consumer's threshold only tightens, so a leaf refused at
    expansion would have been refused at its pop as well: the pages
    yielded, and their order, are those of a pop-time check alone (the
    later check catches the leaves settled while they waited).  The
    consumer's H2 check — a function of the dequeue distance and its
    candidate state only — is unaffected, because skipping changes
    neither.
    """
    roots = [
        (part, index.root_page)
        for part, index in enumerate(parts)
        if index.root_page != NO_PAGE
    ]
    if not roots:
        return
    import numpy as np

    trace = _obs.ACTIVE
    reg = trace.registry if trace is not None else None
    high_water = len(roots)
    lo = max(t_start, query.t_start)
    hi = min(t_end, query.t_end)
    mid = (lo + hi) / 2.0
    here = query.position_at(min(max(mid, query.t_start), query.t_end))
    heap: list[tuple] = []
    try:
        expand = []
        for part, page_id in roots:
            node = parts[part].read_node(page_id)
            if reg is not None:
                _count_dequeue(reg, node)
            yield (0.0, part, node)
            if not node.is_leaf:
                expand.append((part, node))
        while True:
            if expand:
                _push_children(
                    heap, expand, query, t_start, t_end, lo, hi, here,
                    leaf_admit, leaf_refuse, reg, np,
                )
                if reg is not None and len(heap) > high_water:
                    high_water = len(heap)
                expand = []
            if not heap:
                return
            dist, _tie, part, page_id, known_leaf = heapq.heappop(heap)
            if (
                known_leaf
                and leaf_admit is not None
                and not leaf_admit(part, page_id)
            ):
                if reg is not None:
                    reg.inc("index.leaves_skipped")
                continue
            node = parts[part].read_node(page_id)
            if reg is not None:
                _count_dequeue(reg, node)
            yield (dist, part, node)
            if not node.is_leaf:
                expand.append((part, node))
    finally:
        # Runs on exhaustion *and* on early abandonment (GeneratorExit
        # from a consumer break), so the high-water mark is never lost.
        if reg is not None:
            reg.record_max("index.heap_high_water", high_water)


def _count_dequeue(reg, node: Node) -> None:
    reg.inc("index.nodes_dequeued")
    reg.inc(
        "index.leaves_dequeued" if node.is_leaf else "index.internals_dequeued"
    )


def _push_children(
    heap, expand, query, t_start, t_end, lo, hi, here, leaf_admit, leaf_refuse,
    reg, np,
) -> None:
    """Push the expanded ``(part, node)`` pairs' children onto ``heap``:
    each node's children cut to the period and past the leaf
    predicates, then all of them scored in one MINDIST call."""
    groups = []
    for part, node in expand:
        child_level = node.level - 1
        pages, page_ids, boxes = node.child_columns(np)
        overlap = np.maximum(boxes[2], lo) <= np.minimum(boxes[5], hi)
        pick = np.flatnonzero(overlap)
        if child_level == 0 and leaf_admit is not None and len(pick):
            asked = len(pick)
            if leaf_refuse is not None:
                refused = leaf_refuse(part, page_ids[pick])
                if refused is not None:
                    pick = pick[~refused]
            pick = np.array(
                [i for i in pick.tolist() if leaf_admit(part, pages[i])],
                dtype=np.intp,
            )
            if reg is not None and len(pick) < asked:
                reg.inc("index.leaves_skipped", asked - len(pick))
        if len(pick):
            groups.append((part, child_level == 0, pages, pick, boxes[:, pick]))
            if reg is not None:
                level = f"index.mindist_evaluations.level_{child_level}"
                reg.inc(level, len(pick))
                reg.inc("index.nodes_enqueued", len(pick))
    if not groups:
        return
    # Per child: its part, its page and whether it is known to be a leaf.
    children = [
        (part, pages[i], leaf)
        for part, leaf, pages, pick, _boxes in groups
        for i in pick.tolist()
    ]
    if len(groups) == 1:
        boxes = groups[0][4]
    else:
        boxes = np.concatenate([group[4] for group in groups], axis=1)
    xmin, ymin, tmin, xmax, ymax, tmax = boxes
    order, dists = mindist_columns(
        query, tmin, tmax, xmin, ymin, xmax, ymax, t_start, t_end
    )
    dx = (xmin + xmax) / 2.0 - here.x
    dy = (ymin + ymax) / 2.0 - here.y
    ties = (dx * dx + dy * dy)[order].tolist()
    for d, tie, j in zip(dists.tolist(), ties, order.tolist()):
        part, page, leaf = children[j]
        heapq.heappush(heap, (d, tie, part, page, leaf))
