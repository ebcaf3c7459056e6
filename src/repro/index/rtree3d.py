"""The 3D R-tree over trajectory segments (Theodoridis et al. [19]).

Time is the third axis: every line segment is inserted with its (x, y, t)
bounding box using Guttman insertion (least volume enlargement
choose-subtree, quadratic split) while the tree is live.  A whole
dataset handed to an empty tree (``bulk_insert``) is packed bottom-up
with Sort-Tile-Recursive instead.
"""

from __future__ import annotations

from .base import TrajectoryIndex, choice_key, quadratic_split
from .node import NO_PAGE, Node, row_box
from .packing import (
    append_box,
    box_columns,
    pack_upper_levels,
    row_boxes,
    row_speeds,
    str_tiles,
    trajectory_rows,
    union_box,
)

__all__ = ["RTree3D"]


class RTree3D(TrajectoryIndex):
    """A paged 3D R-tree with quadratic-split insertion."""

    kind = "rtree"

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert_row(self, row: tuple) -> None:
        if self.root_page == NO_PAGE:
            root = self.new_node(level=0)
            self.root_page = root.page_id
            root.append_row(row)
            self.touch(root)
            self.num_entries += 1
            return
        box = row_box(row)
        path = self._choose_path(box)
        leaf = self.read_node(path[-1])
        leaf.append_row(row)
        self.touch(leaf)
        self.num_entries += 1
        self._propagate(path, box)

    def _choose_path(self, box: tuple) -> list[int]:
        """Page ids from the root down to the chosen leaf, picking the
        child needing the least volume enlargement (ties: smaller
        volume, then smaller margin; :func:`choice_key`)."""
        path = [self.root_page]
        node = self.read_node(self.root_page)
        while not node.is_leaf:
            best = min(node.rows, key=lambda row: choice_key(row, box))
            path.append(best[0])
            node = self.read_node(best[0])
        return path

    def _propagate(self, path: list[int], new_box: tuple) -> None:
        """Walk the insertion path bottom-up, splitting overflowing
        nodes and growing parent entries.

        For non-split levels the parent entry is *unioned* with the
        inserted box rather than recomputed from the child's entries —
        exact on insertion (coverage only grows) and O(1) instead of
        O(fanout), the classic AdjustTree shortcut.
        """
        for depth in range(len(path) - 1, -1, -1):
            node = self.read_node(path[depth])
            if len(node) > self.capacity:
                self._split(node, path, depth)
            elif depth > 0:
                parent = self.read_node(path[depth - 1])
                self._union_child_entry(parent, node.page_id, new_box)
                self.touch(parent)

    def _split(self, node: Node, path: list[int], depth: int) -> None:
        group_a, group_b = quadratic_split(
            node.rows, node.boxes(), self.capacity, self.min_fill
        )
        node.rows = group_a
        self.touch(node)
        sibling = self.new_node(node.level)
        sibling.rows = group_b
        self.touch(sibling)
        if depth == 0:
            # Root split: grow the tree by one level.
            new_root = self.new_node(node.level + 1)
            new_root.rows = [
                (node.page_id, *node.box()),
                (sibling.page_id, *sibling.box()),
            ]
            self.touch(new_root)
            self.root_page = new_root.page_id
            return
        parent = self.read_node(path[depth - 1])
        self._replace_child_entry(parent, node)
        parent.append_row((sibling.page_id, *sibling.box()))
        self.touch(parent)

    # ------------------------------------------------------------------
    # the static build: STR packing
    # ------------------------------------------------------------------
    def _pack(self, objects, leaf_tids=None) -> None:
        """Sort-Tile-Recursive packing (:mod:`repro.index.packing`):
        each leaf gets its rows."""
        rows = [
            row
            for oid, samples in objects
            for row in trajectory_rows(oid, samples)
        ]
        if not rows:
            return
        boxes = row_boxes(rows)
        pages, leaf_boxes = [], box_columns()
        for group in str_tiles(boxes, self.capacity):
            leaf = self.new_node(level=0)
            leaf.rows = leaf_rows = [rows[i] for i in group]
            pages.append(leaf.page_id)
            if leaf_tids is not None:
                leaf_tids[leaf.page_id] = {row[0] for row in leaf_rows}
            append_box(leaf_boxes, union_box(boxes, group))
        pack_upper_levels(self, pages, leaf_boxes)
        self.trajectory_ids.update(row[0] for row in rows)
        self.max_speed = max(self.max_speed, max(row_speeds(rows)))
        self.num_entries = len(rows)
