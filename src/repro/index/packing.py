"""The static build: a whole level of boxes in hand becomes packed nodes.

Both packed trees share this module.  The 3D R-tree tiles its segment
boxes into leaves with :func:`str_tiles`; the TB-tree cuts its leaves
per trajectory and only needs the levels above them.  Either way the
upper levels come from :func:`pack_upper_levels`.

Tiling is Sort-Tile-Recursive on the (x, y, t) box centres — slab by
x, slice by y, run by t; docs/PERFORMANCE.md ("Building") records the
sweep that kept this order.  What is dealt out to slabs and slices is
*pages*, and items only by way of them: a level of ``n`` items gets
exactly ``ceil(n / capacity)`` nodes, the fewest that can hold it, and
every node within an item or so of ``n`` over that many.  So no node
of a packed level falls under half the capacity (and so under
``min_fill``), the floor the quadratic split keeps for every node an
insertion makes.

Boxes travel as six ``array('d')`` columns (``xmin, ymin, tmin, xmax,
ymax, tmax``; :func:`box_columns`), item ``i`` of each describing box
``i``: one sort key per item per axis and one box per node, no box
objects, and a level of 40 000 segments costs 2 MB while it is packed.
"""

from __future__ import annotations

import math
from array import array
from operator import add

from ..geometry import MBR3D
from .entry import InternalEntry

__all__ = [
    "box_columns",
    "append_box",
    "trajectory_rows",
    "row_speeds",
    "row_boxes",
    "shares",
    "even_chunks",
    "str_tiles",
    "union_box",
    "pack_upper_levels",
]


def box_columns() -> tuple[array, ...]:
    """Six empty columns: ``xmin, ymin, tmin, xmax, ymax, tmax``."""
    return tuple(array("d") for _ in range(6))


def append_box(boxes: tuple[array, ...], box: tuple) -> None:
    """Add one ``(xmin, ymin, tmin, xmax, ymax, tmax)`` box to columns."""
    for col, value in zip(boxes, box):
        col.append(value)


def trajectory_rows(object_id: int, samples) -> list[tuple]:
    """The leaf rows (:func:`repro.index.node.payload_rows`) of the
    segments between consecutive ``(x, y, t)`` ``samples`` of one
    object."""
    return [
        (object_id, x1, y1, t1, x2, y2, t2)
        for (x1, y1, t1), (x2, y2, t2) in zip(samples, samples[1:])
    ]


def row_speeds(rows):
    """Each row's speed, by :attr:`repro.geometry.STSegment.speed`'s
    arithmetic."""
    for _tid, x1, y1, t1, x2, y2, t2 in rows:
        dt = t2 - t1
        yield math.hypot((x2 - x1) / dt, (y2 - y1) / dt)


def row_boxes(rows) -> tuple[array, ...]:
    """The boxes of leaf rows, as columns."""
    x1, y1, t1, x2, y2, t2 = (
        [row[i] for row in rows] for i in range(1, 7)
    )
    return (
        array("d", map(min, x1, x2)),
        array("d", map(min, y1, y2)),
        array("d", t1),
        array("d", map(max, x1, x2)),
        array("d", map(max, y1, y2)),
        array("d", t2),
    )


def shares(items: list, pages: int, parts: int) -> list[tuple[list, int]]:
    """Cut ``items``, which are to fill ``pages`` nodes, into ``parts``
    consecutive runs; returns ``(run, its pages)`` pairs.  The pages are
    dealt evenly (the counts differ by at most one) and every run gets
    the items its pages stand for, so a run of ``q`` pages never holds
    more than ``q`` nodes' worth."""
    n = len(items)
    base, extra = divmod(pages, parts)
    out = []
    start = dealt = 0
    for j in range(parts):
        mine = base + (j < extra)
        dealt += mine
        stop = n * dealt // pages
        out.append((items[start:stop], mine))
        start = stop
    return out


def even_chunks(items: list, k: int) -> list[list]:
    """``items`` cut into ``k`` consecutive runs whose sizes differ by
    at most one."""
    return [run for run, _one in shares(items, k, k)]


def str_tiles(boxes: tuple[array, ...], capacity: int) -> list[list[int]]:
    """Sort-Tile-Recursive grouping of ``boxes`` into the fewest runs of
    at most ``capacity`` — ``ceil(n / capacity)`` of them, all within
    one item or so of the same size; returns the groups as lists of box
    indexes."""
    n = len(boxes[0])
    # twice the centre sorts like the centre
    cx = array("d", map(add, boxes[0], boxes[3]))
    cy = array("d", map(add, boxes[1], boxes[4]))
    ct = array("d", map(add, boxes[2], boxes[5]))
    pages = math.ceil(n / capacity)
    slabs = max(1, round(pages ** (1.0 / 3.0)))
    groups: list[list[int]] = []
    for slab, p in shares(sorted(range(n), key=cx.__getitem__), pages, slabs):
        slices = max(1, round(math.sqrt(p)))
        for run, q in shares(sorted(slab, key=cy.__getitem__), p, slices):
            run.sort(key=ct.__getitem__)
            groups.extend(even_chunks(run, q))
    return groups


def union_box(boxes: tuple[array, ...], group: list[int]) -> tuple:
    """The box covering box ``i`` for every ``i`` in ``group``."""
    return (
        *(min(map(col.__getitem__, group)) for col in boxes[:3]),
        *(max(map(col.__getitem__, group)) for col in boxes[3:]),
    )


def pack_upper_levels(index, pages: list[int], boxes: tuple[array, ...]) -> dict[int, int]:
    """Build every level above one finished level (page ``pages[i]``
    covers box ``i``; all of them sit at the same level, the leaves in
    both callers) and install the root.  Returns the child page ->
    parent page map of the nodes it created."""
    parent_of: dict[int, int] = {}
    level = 1
    while len(pages) > 1:
        upper_pages, upper_boxes = [], box_columns()
        for group in str_tiles(boxes, index.capacity):
            node = index.new_node(level)
            node.entries = [
                InternalEntry(pages[i], MBR3D(*[col[i] for col in boxes]))
                for i in group
            ]
            for i in group:
                parent_of[pages[i]] = node.page_id
            upper_pages.append(node.page_id)
            append_box(upper_boxes, union_box(boxes, group))
        pages, boxes = upper_pages, upper_boxes
        level += 1
    index.root_page = pages[0]
    return parent_of
