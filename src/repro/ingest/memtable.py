"""The mutable in-memory index absorbing live appends.

The memtable is a TB-tree — the one structure in the codebase built
for this access pattern: a new point of an object appends one segment,
as a leaf row, to the object's *active leaf* (``TBTree.insert_row``),
exactly the insertion path the original TB-tree paper designed for
trajectory growth.  The append does constant work in the leaf (the
leaf keeps its payload byte count, so the fit check compares the new
segment with the last one only) plus one walk up the tree's height to
grow the ancestors' boxes.

An object lives in the memtable with the points it received since
the last compaction, plus its *joint sample*: the first post-compaction
point of an object adopts the object's previous point (the last one
the generation or the carried WAL holds) with it, so the memtable's
first segment of the object is the one a rebuild would make.  The
merged query path searches the generation and the memtable as two
time slices of each such object that meet at the joint sample, which
is what makes live answers byte-identical to a rebuild.

:meth:`Memtable.snapshot` freezes the current tree for lock-free
querying: the build buffer is flushed and the in-memory page list is
shallow-copied (pages are immutable ``bytes``), so a snapshot costs
O(pages) pointer copies and shares all page data with the live tree.
"""

from __future__ import annotations

import math

from ..exceptions import TrajectoryError
from ..index import TBTree
from ..storage import InMemoryPageFile
from ..trajectory import Trajectory

__all__ = ["Memtable"]


class Memtable:
    """Mutable TB-tree plus the point buffers feeding it."""

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self._tree = TBTree(page_size=page_size)
        #: object id -> the points (``(x, y, t)`` tuples) of every
        #: object that has received a point since the last compaction,
        #: from its joint sample on, including single-point objects
        #: whose first segment has not materialised yet.
        self._points: dict[int, list[tuple[float, float, float]]] = {}
        #: every point the memtable holds, joint samples included
        self.num_points = 0
        #: only the points that arrived since this memtable was born —
        #: the compaction-threshold measure (an adopted joint sample
        #: counts in ``num_points`` but not here)
        self.new_points = 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def adopt(self, object_id: int, history: list[tuple[float, float, float]]) -> None:
        """Bring an object into the memtable with ``history`` — the
        store passes its joint sample and its new point, or the first
        point of a new object; the last point is the new one.  Further
        points go through :meth:`append`."""
        if object_id in self._points:
            raise TrajectoryError(f"object {object_id} already in memtable")
        self._points[object_id] = pts = list(history)
        self.num_points += len(pts)
        self.new_points += 1  # the point that brought the object in
        if len(pts) >= 2:
            self._tree.insert(Trajectory(object_id, pts))

    def append(self, object_id: int, x: float, y: float, t: float) -> None:
        """Absorb one more point of an object already in the memtable."""
        pts = self._points[object_id]
        px, py, pt = pts[-1]
        if not pt < t:
            raise TrajectoryError(
                f"object {object_id}: timestamps must strictly increase "
                f"({t} after {pt})"
            )
        pts.append((x, y, t))
        self.num_points += 1
        self.new_points += 1
        tree = self._tree
        if object_id in tree.trajectory_ids:
            dt = t - pt
            speed = math.hypot((x - px) / dt, (y - py) / dt)
            if speed > tree.max_speed:
                tree.max_speed = speed
            tree.insert_row((object_id, px, py, pt, x, y, t))
        elif len(pts) >= 2:
            # second point of a brand-new object: its first segment(s)
            tree.insert(Trajectory(object_id, pts))

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def __contains__(self, object_id: int) -> bool:
        return object_id in self._points

    def __len__(self) -> int:
        return len(self._points)

    @property
    def num_entries(self) -> int:
        return self._tree.num_entries

    @property
    def max_speed(self) -> float:
        return self._tree.max_speed

    def points_of(self, object_id: int) -> list[tuple[float, float, float]]:
        return list(self._points[object_id])

    def snapshot(self) -> TBTree | None:
        """A frozen copy of the current tree (``None`` when empty).

        The snapshot owns a shallow copy of the page list, so later
        appends to the live tree never touch it; it is finalized
        (read-only) and safe to search from another thread.
        """
        if self._tree.num_entries == 0:
            return None
        live = self._tree
        live.buffer.flush(live._serializer)
        pagefile = InMemoryPageFile(self.page_size)
        pagefile._pages = list(live.pagefile._pages)
        frozen = TBTree(pagefile=pagefile)
        frozen.root_page = live.root_page
        frozen.num_nodes = live.num_nodes
        frozen.num_entries = live.num_entries
        frozen.max_speed = live.max_speed
        frozen.trajectory_ids = set(live.trajectory_ids)
        frozen._active_leaf = dict(live._active_leaf)
        frozen._finalized = True
        return frozen
