"""The TB-tree (Trajectory-Bundle tree, Pfoser, Jensen, Theodoridis [13]).

The defining property: each leaf bundles segments of *one* trajectory,
kept in temporal order, and the leaves of a trajectory are doubly
linked — so trajectory-oriented queries (and the BFMST plane sweep,
which wants temporally sorted leaf entries) get them for free.

Insertion: a segment is appended to its trajectory's active (last)
leaf; when that leaf is full a fresh leaf is chained to it and inserted
into the upper R-tree levels by least-volume-enlargement descent (our
choose-subtree stands in for the original's rightmost-path heuristic;
the bundling/chaining property, which is what the paper's experiments
exercise, is identical).  Internal-node overflows use the quadratic
split; a parent map is maintained in memory so MBR adjustments and
splits can walk upwards from any leaf.

A whole dataset handed to an empty tree (``bulk_insert``) skips all of
that: the same leaves are cut in one pass per trajectory, each chain on
consecutive pages, and the upper levels are packed over them.
"""

from __future__ import annotations

from ..exceptions import IndexError_
from ..geometry import MBR3D
from .base import TrajectoryIndex, quadratic_split
from .entry import InternalEntry, LeafEntry
from .node import (
    NODE_OVERHEAD_BYTES,
    NO_PAGE,
    TB_CHAIN_START_BYTES,
    TB_CHAIN_STEP_BYTES,
    Node,
    same_point,
    tb_leaf_payload_size,
)
from .packing import (
    append_box,
    box_columns,
    pack_upper_levels,
    row_speeds,
    trajectory_rows,
)

__all__ = ["TBTree"]


class TBTree(TrajectoryIndex):
    """A paged TB-tree.

    Leaves use the *chained* page layout: the bundled segments of one
    trajectory are serialised as point chains with shared endpoints
    (~24 bytes per segment instead of 56), which is what makes the
    TB-tree index roughly half the 3D R-tree's size in Table 2.  A
    leaf is full when its *serialised payload* would overflow the
    page, not at a fixed entry count.
    """

    kind = "tbtree"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._active_leaf: dict[int, int] = {}  # trajectory id -> leaf page
        self._parent_of: dict[int, int] = {}  # page -> parent page

    # ------------------------------------------------------------------
    # the static build: leaves cut per trajectory, upper levels packed
    # ------------------------------------------------------------------
    def _pack(self, objects, leaf_tids=None) -> None:
        """Every object becomes one chain of leaves (:meth:`_cut_chain`)
        on consecutive pages; the levels above are STR-packed over the
        leaf boxes."""
        pages, boxes = [], box_columns()
        for oid, samples in objects:
            for leaf, pts in self._cut_chain(oid, samples):
                pages.append(leaf.page_id)
                if leaf_tids is not None:
                    leaf_tids[leaf.page_id] = (oid,)
                append_box(boxes, _samples_box(pts))
        if pages:
            self._parent_of = pack_upper_levels(self, pages, boxes)

    def _cut_chain(self, oid: int, samples):
        """Cut a fresh object's ``(x, y, t)`` samples into its chain of
        leaves, each filled by the payload rule :meth:`insert_row`
        applies (the segments of a trajectory share endpoints, so a leaf
        is one point chain), ``prev_leaf``/``next_leaf`` linked.  Yields
        each new leaf with its samples before allocating the next."""
        room = self.page_size - NODE_OVERHEAD_BYTES - TB_CHAIN_START_BYTES
        per_leaf = 1 + room // TB_CHAIN_STEP_BYTES
        prev = None
        for first in range(0, len(samples) - 1, per_leaf):
            pts = samples[first : first + per_leaf + 1]
            leaf = self.new_node(level=0, owner_id=oid)
            leaf.chained = True
            leaf.rows = rows = trajectory_rows(oid, pts)
            leaf.payload_bytes = (
                TB_CHAIN_START_BYTES + (len(rows) - 1) * TB_CHAIN_STEP_BYTES
            )
            if prev is not None:
                prev.next_leaf = leaf.page_id
                leaf.prev_leaf = prev.page_id
            prev = leaf
            self.num_entries += len(rows)
            self.max_speed = max(self.max_speed, max(row_speeds(rows)))
            self._active_leaf[oid] = leaf.page_id
            yield leaf, pts
        self.trajectory_ids.add(oid)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, trajectory) -> None:
        """Index a new object on a live tree.  Its leaves are cut as the
        static build cuts them; each is hung off the upper levels once,
        by its first segment's box (the box a segment-by-segment insert
        chooses the subtree by), and then grown by the box of its other
        segments in one upward walk — the same pages as appending the
        segments one by one, for one attach and one walk per leaf."""
        oid = trajectory.object_id
        self._admit([oid])
        samples = [(p.x, p.y, p.t) for p in trajectory.samples]
        for leaf, pts in self._cut_chain(oid, samples):
            self._attach_leaf(leaf, MBR3D(*_samples_box(pts[:2])))
            if len(pts) > 2:
                self._adjust_upwards(leaf.page_id, MBR3D(*_samples_box(pts[1:])))

    def insert_entry(self, entry: LeafEntry) -> None:
        self.insert_row(entry.row)

    def insert_row(self, row: tuple) -> None:
        """Append one segment, as its leaf row ``(trajectory_id, x1, y1,
        t1, x2, y2, t2)``, to its object's active leaf, or start the
        next leaf of the chain when the page is full.

        The fit check is O(1): the leaf keeps its payload byte count,
        and a segment adds one chain step when it starts where the
        leaf's last segment ends, a chain start otherwise.
        """
        tid, x1, y1, t1, x2, y2, t2 = row
        box = MBR3D(min(x1, x2), min(y1, y2), t1, max(x1, x2), max(y1, y2), t2)
        leaf_page = self._active_leaf.get(tid)
        if leaf_page is not None:
            leaf = self.read_node(leaf_page)
            size = leaf.payload_bytes
            if size is None:  # decoded from a page: count it once
                size = tb_leaf_payload_size(leaf.entries)
            last = leaf.rows[-1]
            if t1 < last[6]:
                raise IndexError_(
                    f"TB-tree requires temporally ordered insertion per "
                    f"trajectory (object {tid})"
                )
            if same_point(row[1:4], last[4:]):
                size += TB_CHAIN_STEP_BYTES
            else:
                size += TB_CHAIN_START_BYTES
            if NODE_OVERHEAD_BYTES + size <= self.page_size:
                leaf.append_row(row)
                leaf.payload_bytes = size
                self.touch(leaf)
                self.num_entries += 1
                self._adjust_upwards(leaf_page, box)
                return
        self._start_new_leaf(tid, row, box, leaf_page)
        self.num_entries += 1

    def _start_new_leaf(
        self, tid: int, row: tuple, box: MBR3D, prev_leaf_page: int | None
    ) -> None:
        leaf = self.new_node(level=0, owner_id=tid)
        leaf.chained = True
        leaf.rows = [row]
        leaf.payload_bytes = TB_CHAIN_START_BYTES
        if prev_leaf_page is not None:
            leaf.prev_leaf = prev_leaf_page
            prev = self.read_node(prev_leaf_page)
            prev.next_leaf = leaf.page_id
            self.touch(prev)
        self._active_leaf[tid] = leaf.page_id
        self._attach_leaf(leaf, box)

    def _attach_leaf(self, leaf: Node, leaf_box: MBR3D | None = None) -> None:
        """Hang a leaf off the upper levels of the tree, by ``leaf_box``
        (its MBR unless given)."""
        if leaf_box is None:
            leaf_box = leaf.mbr()
        if self.root_page == NO_PAGE:
            self.root_page = leaf.page_id
            return
        root = self.read_node(self.root_page)
        if root.is_leaf:
            # Two leaves now: grow the first internal level.
            new_root = self.new_node(level=1)
            new_root.entries = [
                InternalEntry(root.page_id, root.mbr()),
                InternalEntry(leaf.page_id, leaf_box),
            ]
            self.touch(new_root)
            self._parent_of[root.page_id] = new_root.page_id
            self._parent_of[leaf.page_id] = new_root.page_id
            self.root_page = new_root.page_id
            return
        # Descend to the level-1 node with least volume enlargement.
        target = root
        while target.level > 1:
            best = min(
                target.entries,
                key=lambda e: (
                    e.mbr.enlargement(leaf_box),
                    e.mbr.volume(),
                    e.mbr.margin(),
                ),
            )
            target = self.read_node(best.child_page)
        target.entries.append(InternalEntry(leaf.page_id, leaf_box))
        self.touch(target)
        self._parent_of[leaf.page_id] = target.page_id
        self._split_or_adjust(target, leaf_box)

    # ------------------------------------------------------------------
    # upward maintenance via the parent map
    # ------------------------------------------------------------------
    def _adjust_upwards(self, page_id: int, box) -> None:
        """Grow ancestor entries to also cover ``box`` (exact on
        insertion: subtree coverage only ever grows, so a union beats
        an O(fanout) recompute)."""
        while True:
            parent_page = self._parent_of.get(page_id)
            if parent_page is None:
                return
            parent = self.read_node(parent_page)
            self._union_child_entry(parent, page_id, box)
            self.touch(parent)
            page_id = parent_page

    def _split_or_adjust(self, node: Node, box) -> None:
        """Handle a possible overflow of an internal node, walking up;
        ``box`` is the newly inserted coverage to fold into ancestors."""
        while True:
            if len(node.entries) > self.capacity:
                parent = self._split_internal(node)
                if parent is None:
                    return
                node = parent
            else:
                self._adjust_upwards(node.page_id, box)
                return

    def _split_internal(self, node: Node) -> Node | None:
        """Split an overflowing internal node; returns the parent to
        continue on, or ``None`` when a new root was installed."""
        group_a, group_b = quadratic_split(
            node.entries, self.capacity, self.min_fill
        )
        node.entries = group_a
        self.touch(node)
        sibling = self.new_node(node.level)
        sibling.entries = group_b
        self.touch(sibling)
        for e in group_b:
            self._parent_of[e.child_page] = sibling.page_id
        parent_page = self._parent_of.get(node.page_id)
        if parent_page is None:
            new_root = self.new_node(node.level + 1)
            new_root.entries = [
                InternalEntry(node.page_id, node.mbr()),
                InternalEntry(sibling.page_id, sibling.mbr()),
            ]
            self.touch(new_root)
            self._parent_of[node.page_id] = new_root.page_id
            self._parent_of[sibling.page_id] = new_root.page_id
            self.root_page = new_root.page_id
            return None
        parent = self.read_node(parent_page)
        self._replace_child_entry(parent, node)
        parent.entries.append(InternalEntry(sibling.page_id, sibling.mbr()))
        self.touch(parent)
        self._parent_of[sibling.page_id] = parent_page
        return parent

    # ------------------------------------------------------------------
    # TB-specific accessors
    # ------------------------------------------------------------------
    def leaf_chain(self, trajectory_id: int) -> list[Node]:
        """The linked leaves of a trajectory, first to last."""
        page = self._first_leaf_of(trajectory_id)
        out = []
        while page != NO_PAGE:
            node = self.read_node(page)
            out.append(node)
            page = node.next_leaf
        return out

    def _first_leaf_of(self, trajectory_id: int) -> int:
        page = self._active_leaf.get(trajectory_id, NO_PAGE)
        if page == NO_PAGE:
            return NO_PAGE
        node = self.read_node(page)
        while node.prev_leaf != NO_PAGE:
            node = self.read_node(node.prev_leaf)
        return node.page_id

    def trajectory_segments(self, trajectory_id: int) -> list[LeafEntry]:
        """All indexed segments of one trajectory, in temporal order —
        the access path the leaf chain exists for."""
        out: list[LeafEntry] = []
        for leaf in self.leaf_chain(trajectory_id):
            out.extend(map(LeafEntry.from_row, leaf.rows))
        return out


def _samples_box(pts) -> tuple:
    """``(xmin, ymin, tmin, xmax, ymax, tmax)`` of time-ordered
    ``(x, y, t)`` samples."""
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return (min(xs), min(ys), pts[0][2], max(xs), max(ys), pts[-1][2])
