"""Common machinery of the trajectory indexes.

Both the 3D R-tree and the TB-tree are R-tree-like structures over
trajectory line segments, stored node-per-page behind the LRU buffer
manager.  This module hosts the shared plumbing: node allocation and
buffered access (with access counting for the pruning-power metric),
the quadratic split of Guttman, trajectory-level insertion, range
search, and structural introspection used by the invariant tests.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Callable, Iterable, Iterator

from ..exceptions import IndexError_, TrajectoryError
from ..geometry import MBR3D
from ..storage import InMemoryPageFile, LRUBufferManager, PageFile
from ..trajectory import Trajectory, TrajectoryDataset
from .entry import LeafEntry
from .node import NO_PAGE, Node, node_capacity
from .packing import row_speeds, trajectory_rows

__all__ = ["TrajectoryIndex", "quadratic_split"]

# Generous build-time buffer: mutation through stale evicted copies is a
# correctness hazard, so building keeps the working set resident and
# finalize() shrinks the buffer to the paper's query-time policy.
_BUILD_BUFFER_PAGES = 1_000_000

MIN_FILL_FRACTION = 0.4


class TrajectoryIndex:
    """Base class of the paged trajectory indexes."""

    #: Optional :class:`repro.filter.TrajectorySignatures` sidecar —
    #: attached by :func:`repro.index.persistence.load_index` when a
    #: valid ``.sig`` file sits next to the page file.  ``None`` keeps
    #: every search running unfiltered.
    signatures = None

    #: The name :data:`repro.index.TREES` files the tree under, and
    #: saved indexes, shard manifests and ingest stores record.
    kind: str

    def __init__(
        self,
        pagefile: PageFile | None = None,
        page_size: int = 4096,
        buffer_capacity: int = _BUILD_BUFFER_PAGES,
    ) -> None:
        self.pagefile = pagefile if pagefile is not None else InMemoryPageFile(page_size)
        self.page_size = self.pagefile.page_size
        self.capacity = node_capacity(self.page_size)
        self.min_fill = max(1, int(self.capacity * MIN_FILL_FRACTION))
        self.buffer = LRUBufferManager(self.pagefile, buffer_capacity)
        self.root_page: int = NO_PAGE
        self.num_nodes = 0
        self.num_entries = 0
        self.trajectory_ids: set[int] = set()
        self.max_speed = 0.0  # fastest indexed segment (the dataset half of V_max)
        self.node_accesses = 0  # cumulative read_node calls
        # Holds no reference to the index: the buffer keeps the
        # serialiser too, and a closure over ``self`` would tie the
        # index and every resident node into a cycle that only the
        # cyclic collector frees.
        self._serializer: Callable[[Node], bytes] = methodcaller(
            "to_bytes", self.page_size
        )
        self._finalized = False

    # ------------------------------------------------------------------
    # node plumbing
    # ------------------------------------------------------------------
    def new_node(self, level: int, owner_id: int = NO_PAGE) -> Node:
        """Allocate a page and return its fresh (dirty, resident) node."""
        page_id = self.pagefile.allocate()
        node = Node(page_id, level, owner_id=owner_id)
        self.buffer.put(page_id, node, self._serializer)
        self.num_nodes += 1
        return node

    def read_node(self, page_id: int) -> Node:
        """Fetch a node through the buffer (counted as a node access)."""
        self.node_accesses += 1
        return self.buffer.get(
            page_id,
            lambda data: Node.from_bytes(page_id, data),
            self._serializer,
        )

    def touch(self, node: Node) -> None:
        """Mark a resident node as modified (write back on eviction)."""
        self.buffer.mark_dirty(node.page_id)

    @property
    def height(self) -> int:
        """Number of levels (0 when empty)."""
        if self.root_page == NO_PAGE:
            return 0
        return self.read_node(self.root_page).level + 1

    # ------------------------------------------------------------------
    # build interface
    # ------------------------------------------------------------------
    def insert_row(self, row: tuple) -> None:
        """Index one segment, as its leaf row ``(trajectory_id, x1, y1,
        t1, x2, y2, t2)``, on a live tree."""
        raise NotImplementedError

    def _admit(self, object_ids) -> None:
        """The checks every build path makes before it touches a page:
        the tree still accepts writes, ids are integers (they are
        serialised as int64 in the leaf entries), and no object is
        indexed twice."""
        if self._finalized:
            raise IndexError_("index already finalized; create a new one to insert")
        seen: set[int] = set()
        for oid in object_ids:
            if not isinstance(oid, int):
                raise TrajectoryError(
                    f"index requires integer object ids, got {oid!r}"
                )
            if oid in self.trajectory_ids or oid in seen:
                raise TrajectoryError(f"trajectory {oid} already indexed")
            seen.add(oid)

    def insert(self, trajectory: Trajectory) -> None:
        """Index every line segment of ``trajectory`` — the dynamic
        path: one :meth:`insert_row` per segment on a live tree."""
        oid = trajectory.object_id
        self._admit([oid])
        self.trajectory_ids.add(oid)
        rows = trajectory_rows(oid, [(p.x, p.y, p.t) for p in trajectory.samples])
        self.max_speed = max(self.max_speed, max(row_speeds(rows)))
        for row in rows:
            self.insert_row(row)

    def bulk_insert(self, dataset: TrajectoryDataset) -> None:
        """Index a whole dataset on an empty tree: the *static build*,
        packed bottom-up in one pass (:meth:`pack`).  A tree that
        already holds something is live; grow it with :meth:`insert`.
        """
        trajectories = list(dataset)
        self._admit_pack(tr.object_id for tr in trajectories)
        # Each object's sample tuples are made as the pack reaches it,
        # so they never all exist at once.
        self._pack(
            (tr.object_id, [(p.x, p.y, p.t) for p in tr.samples])
            for tr in trajectories
        )

    def pack(self, objects) -> dict[int, Iterable[int]]:
        """The static build from samples in hand: ``objects`` yields
        ``(object_id, samples)`` pairs whose ``samples`` are ``(x, y,
        t)`` float tuples already held to :class:`Trajectory`'s rules
        (two or more, finite, strictly increasing ``t``) — by a
        ``Trajectory`` in :meth:`bulk_insert`, by the ingest store's
        append checks for a compaction — so no point is checked again.
        Returns each leaf page's object ids (a TB-tree leaf has one),
        the map :func:`~repro.index.leaf_points` reads back."""
        objects = list(objects)
        self._admit_pack(oid for oid, _samples in objects)
        leaf_tids: dict[int, Iterable[int]] = {}
        self._pack(objects, leaf_tids)
        return leaf_tids

    def _admit_pack(self, object_ids) -> None:
        """:meth:`_admit`, on a tree the static build may fill: an
        empty one."""
        if self.root_page != NO_PAGE:
            raise IndexError_(
                "bulk_insert packs an empty tree; use insert() on a live one"
            )
        self._admit(object_ids)

    def _pack(self, objects, leaf_tids: dict | None = None) -> None:
        """Pack admitted ``(object_id, samples)`` pairs, iterated once,
        into this (empty) tree, filling ``leaf_tids`` with each leaf
        page's ids when given."""
        raise NotImplementedError

    def finalize(
        self, buffer_fraction: float = 0.10, buffer_max_pages: int = 1000
    ) -> None:
        """Flush all dirty nodes and shrink the buffer to the paper's
        query-time policy (10 % of the index, at most 1000 pages).
        Further insertions are rejected."""
        self.buffer.flush(self._serializer)
        self.buffer.resize_to_fraction(buffer_fraction, buffer_max_pages)
        self._finalized = True

    def size_mb(self) -> float:
        """Index size in binary megabytes (Table 2's column)."""
        return self.pagefile.size_mb()

    # ------------------------------------------------------------------
    # queries shared by both trees
    # ------------------------------------------------------------------
    def range_search(self, box: MBR3D) -> list[LeafEntry]:
        """All leaf entries whose segment MBB intersects ``box`` — the
        classical spatiotemporal range query the same index serves."""
        out: list[LeafEntry] = []
        if self.root_page == NO_PAGE:
            return out
        stack = [self.root_page]
        while stack:
            node = self.read_node(stack.pop())
            if node.is_leaf:
                out.extend(
                    e
                    for e in map(LeafEntry.from_row, node.rows)
                    if e.mbr.intersects(box)
                )
            else:
                stack.extend(
                    row[0] for row in node.rows if box.intersects(MBR3D(*row[1:]))
                )
        return out

    # ------------------------------------------------------------------
    # introspection (tests, invariants, stats)
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[Node]:
        """Depth-first iteration over every node (root first)."""
        if self.root_page == NO_PAGE:
            return
        stack = [self.root_page]
        while stack:
            node = self.read_node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(row[0] for row in node.rows)

    def leaf_entries(self) -> Iterator[LeafEntry]:
        """Every indexed segment."""
        for node in self.nodes():
            if node.is_leaf:
                yield from map(LeafEntry.from_row, node.rows)

    def count_nodes(self) -> int:
        """Number of nodes by traversal (must equal ``num_nodes``)."""
        return sum(1 for _ in self.nodes())

    def mbr(self) -> MBR3D:
        if self.root_page == NO_PAGE:
            raise IndexError_("empty index has no MBR")
        return self.read_node(self.root_page).mbr()

    # ------------------------------------------------------------------
    # parent-entry maintenance shared by the concrete trees
    # ------------------------------------------------------------------
    @staticmethod
    def _replace_child_entry(parent: Node, child: Node) -> None:
        """Refresh the parent's row for ``child`` with its exact box."""
        for i, row in enumerate(parent.rows):
            if row[0] == child.page_id:
                parent.replace_row(i, (child.page_id, *child.box()))
                return
        raise IndexError_(
            f"node {parent.page_id} has no entry for child {child.page_id}"
        )

    @staticmethod
    def _union_child_entry(parent: Node, child_page: int, box: tuple) -> None:
        """Grow the parent's row for ``child_page`` to cover ``box``
        (exact on insertion — subtree coverage only grows), by
        :meth:`MBR3D.union <repro.geometry.MBR3D.union>`'s ``min`` and
        ``max``; a row that already covers it is left as it is."""
        for i, row in enumerate(parent.rows):
            if row[0] == child_page:
                grown = (
                    child_page,
                    *map(min, row[1:4], box[:3]),
                    *map(max, row[4:], box[3:]),
                )
                if grown != row:
                    parent.replace_row(i, grown)
                return
        raise IndexError_(
            f"node {parent.page_id} has no entry for child {child_page}"
        )


def choice_key(row: tuple, box: tuple) -> tuple:
    """The choose-subtree order of an internal ``row`` for a new
    ``box``: least volume enlargement, then smaller volume, then
    smaller margin — by :meth:`MBR3D.enlargement
    <repro.geometry.MBR3D.enlargement>`, ``volume`` and ``margin``'s
    arithmetic, so the first row with the least key is the child they
    choose."""
    _child, xmin, ymin, tmin, xmax, ymax, tmax = row
    volume = (xmax - xmin) * (ymax - ymin) * (tmax - tmin)
    dx = max(xmax, box[3]) - min(xmin, box[0])
    dy = max(ymax, box[4]) - min(ymin, box[1])
    dt = max(tmax, box[5]) - min(tmin, box[2])
    margin = (xmax - xmin) + (ymax - ymin) + (tmax - tmin)
    return (dx * dy * dt - volume, volume, margin)


def quadratic_split(
    rows: list[tuple], boxes: list[tuple], capacity: int, min_fill: int
) -> tuple[list, list]:
    """Guttman's quadratic split of a node's ``rows``, row ``i``
    bounded by ``boxes[i]`` (:meth:`repro.index.node.Node.boxes`).

    Returns two groups, each with at least ``min_fill`` rows.
    Degenerate (zero-volume) boxes are common for trajectory segments,
    so volume comparisons fall back to margins when everything is flat.
    """
    if len(rows) < 2:
        raise IndexError_("cannot split fewer than two entries")

    def measure(xmin, ymin, tmin, xmax, ymax, tmax) -> float:
        vol = (xmax - xmin) * (ymax - ymin) * (tmax - tmin)
        if vol > 0.0:
            return vol
        return ((xmax - xmin) + (ymax - ymin) + (tmax - tmin)) * 1e-12

    def union_measure(a, b) -> float:
        return measure(
            a[0] if a[0] < b[0] else b[0],
            a[1] if a[1] < b[1] else b[1],
            a[2] if a[2] < b[2] else b[2],
            a[3] if a[3] > b[3] else b[3],
            a[4] if a[4] > b[4] else b[4],
            a[5] if a[5] > b[5] else b[5],
        )

    def union(a, b):
        return (
            a[0] if a[0] < b[0] else b[0],
            a[1] if a[1] < b[1] else b[1],
            a[2] if a[2] < b[2] else b[2],
            a[3] if a[3] > b[3] else b[3],
            a[4] if a[4] > b[4] else b[4],
            a[5] if a[5] > b[5] else b[5],
        )

    sizes = [measure(*b) for b in boxes]

    # PickSeeds: the pair wasting the most space when grouped.
    n = len(boxes)
    best_pair = (0, 1)
    best_waste = -float("inf")
    for i in range(n):
        bi = boxes[i]
        si = sizes[i]
        for j in range(i + 1, n):
            waste = union_measure(bi, boxes[j]) - si - sizes[j]
            if waste > best_waste:
                best_waste = waste
                best_pair = (i, j)
    i, j = best_pair
    group_a = [rows[i]]
    group_b = [rows[j]]
    box_a = boxes[i]
    box_b = boxes[j]
    rest = [(rows[k], boxes[k]) for k in range(n) if k not in (i, j)]

    while rest:
        # Force-assign when a group must take everything left to reach
        # the minimum fill.
        if len(group_a) + len(rest) <= min_fill:
            group_a.extend(e for e, _b in rest)
            break
        if len(group_b) + len(rest) <= min_fill:
            group_b.extend(e for e, _b in rest)
            break
        # PickNext: the entry with the strongest preference.
        meas_a = measure(*box_a)
        meas_b = measure(*box_b)
        best_idx = 0
        best_diff = -1.0
        best_da = best_db = 0.0
        for k, (_e, b) in enumerate(rest):
            da = union_measure(box_a, b) - meas_a
            db = union_measure(box_b, b) - meas_b
            diff = da - db
            if diff < 0.0:
                diff = -diff
            if diff > best_diff:
                best_diff = diff
                best_idx = k
                best_da = da
                best_db = db
        e, b = rest.pop(best_idx)
        if best_da < best_db or (best_da == best_db and len(group_a) <= len(group_b)):
            group_a.append(e)
            box_a = union(box_a, b)
        else:
            group_b.append(e)
            box_b = union(box_b, b)
    return group_a, group_b
