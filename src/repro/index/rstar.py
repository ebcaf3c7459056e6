"""The R*-tree variant (Beckmann, Kriegel, Schneider, Seeger 1990),
adapted to the 3D trajectory-segment setting.

The paper's BFMST algorithm "can be directly applied to any member of
the R-tree family"; this module adds the family's strongest classic
member so that claim is exercised beyond the two trees the paper
evaluates.  Differences from the plain :class:`RTree3D`:

* **choose-subtree** minimises *overlap enlargement* at the level just
  above the leaves (volume enlargement higher up),
* **split** picks the axis with the smallest margin sum and the
  distribution with the least overlap (ties: least volume),
* **forced reinsertion**: the first overflow on each level per insert
  evicts the 30 % of entries farthest from the node centre and
  re-inserts them, improving storage utilisation and box quality.
"""

from __future__ import annotations

import math

from ..geometry import MBR3D
from .entry import LeafEntry
from .node import Node
from .rtree3d import RTree3D

__all__ = ["RStarTree"]

_REINSERT_FRACTION = 0.3


class RStarTree(RTree3D):
    """A paged 3D R*-tree over trajectory segments."""

    # the insertion policy is what this tree is for: never packed
    packs_static_builds = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._reinsert_armed: set[int] = set()  # levels already reinserted
        self._in_reinsert = False
        self.reinsertions = 0  # observability

    # ------------------------------------------------------------------
    # insertion overrides
    # ------------------------------------------------------------------
    def insert_entry(self, entry: LeafEntry) -> None:
        self._reinsert_armed.clear()
        self.num_entries += 1  # reinsertions must not double-count
        self._insert_at_level(entry, level=0)

    def _insert_at_level(self, entry, level: int) -> None:
        from .node import NO_PAGE

        if self.root_page == NO_PAGE:
            root = self.new_node(level=0)
            self.root_page = root.page_id
            root.entries.append(entry)
            self.touch(root)
            return
        box = entry.mbr
        path = self._choose_path_to_level(box, level)
        node = self.read_node(path[-1])
        node.entries.append(entry)
        self.touch(node)
        self._overflow_treatment(path, box)

    def _choose_path_to_level(self, box: MBR3D, level: int) -> list[int]:
        """Descend to a node at ``level`` (0 = leaf); at the level just
        above the target, minimise overlap enlargement (R* CS2)."""
        path = [self.root_page]
        node = self.read_node(self.root_page)
        while node.level > level:
            if node.level == level + 1:
                best = self._least_overlap_child(node, box)
            else:
                best = min(
                    node.entries,
                    key=lambda e: (
                        e.mbr.enlargement(box),
                        e.mbr.volume(),
                        e.mbr.margin(),
                    ),
                )
            path.append(best.child_page)
            node = self.read_node(best.child_page)
        return path

    def _least_overlap_child(self, node: Node, box: MBR3D):
        def overlap_with_siblings(candidate_mbr: MBR3D, skip) -> float:
            total = 0.0
            for other in node.entries:
                if other is skip:
                    continue
                total += _overlap_volume(candidate_mbr, other.mbr)
            return total

        best = None
        best_key = None
        for e in node.entries:
            grown = e.mbr.union(box)
            key = (
                overlap_with_siblings(grown, e) - overlap_with_siblings(e.mbr, e),
                e.mbr.enlargement(box),
                e.mbr.volume(),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = e
        assert best is not None
        return best

    def _overflow_treatment(self, path: list[int], new_box: MBR3D) -> None:
        """R* overflow: the first overflow per level per insert
        triggers forced reinsertion (which restarts insertion from the
        top, so this walk stops there); repeats and the root split."""
        depth = len(path) - 1
        while depth >= 0:
            node = self.read_node(path[depth])
            if len(node.entries) > self.capacity:
                is_root = depth == 0
                if (
                    not is_root
                    and not self._in_reinsert
                    and node.level not in self._reinsert_armed
                ):
                    self._reinsert_armed.add(node.level)
                    self._forced_reinsert(node, path[: depth + 1])
                    return  # reinsertion fixed every ancestor box
                self._split_rstar(node, path, depth)
            elif depth > 0:
                parent = self.read_node(path[depth - 1])
                self._union_child_entry(parent, node.page_id, new_box)
                self.touch(parent)
            depth -= 1

    def _forced_reinsert(self, node: Node, path: list[int]) -> None:
        """Evict the entries farthest from the node centre and insert
        them again from the top."""
        centre = node.mbr()
        cx = (centre.xmin + centre.xmax) / 2.0
        cy = (centre.ymin + centre.ymax) / 2.0
        ct = (centre.tmin + centre.tmax) / 2.0

        def dist(e) -> float:
            m = e.mbr
            return math.hypot(
                (m.xmin + m.xmax) / 2.0 - cx,
                (m.ymin + m.ymax) / 2.0 - cy,
                (m.tmin + m.tmax) / 2.0 - ct,
            )

        node.entries.sort(key=dist)
        count = max(1, int(len(node.entries) * _REINSERT_FRACTION))
        evicted = node.entries[-count:]
        node.entries = node.entries[: len(node.entries) - count]
        self.touch(node)
        # tighten ancestors exactly before re-inserting
        self._tighten_path(path)
        self.reinsertions += len(evicted)
        self._in_reinsert = True
        try:
            for e in evicted:
                # close reinsert (far-first would be list order reversed;
                # close-first empirically packs better here)
                self._insert_at_level(e, node.level)
        finally:
            self._in_reinsert = False

    def _tighten_path(self, path: list[int]) -> None:
        for depth in range(len(path) - 1, 0, -1):
            child = self.read_node(path[depth])
            parent = self.read_node(path[depth - 1])
            self._replace_child_entry(parent, child)
            self.touch(parent)

    # ------------------------------------------------------------------
    # R* split
    # ------------------------------------------------------------------
    def _split_rstar(self, node: Node, path: list[int], depth: int) -> None:
        group_a, group_b = _rstar_split(node.entries, self.min_fill)
        node.entries = group_a
        self.touch(node)
        sibling = self.new_node(node.level)
        sibling.entries = group_b
        self.touch(sibling)
        from .entry import InternalEntry

        if depth == 0:
            new_root = self.new_node(node.level + 1)
            new_root.entries = [
                InternalEntry(node.page_id, node.mbr()),
                InternalEntry(sibling.page_id, sibling.mbr()),
            ]
            self.touch(new_root)
            self.root_page = new_root.page_id
            self._after_split(node, sibling, new_root.page_id)
            return
        parent = self.read_node(path[depth - 1])
        self._replace_child_entry(parent, node)
        parent.entries.append(InternalEntry(sibling.page_id, sibling.mbr()))
        self.touch(parent)
        self._after_split(node, sibling, parent.page_id)


# ----------------------------------------------------------------------
def _overlap_volume(a: MBR3D, b: MBR3D) -> float:
    dx = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    dy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    dt = min(a.tmax, b.tmax) - max(a.tmin, b.tmin)
    if dx <= 0.0 or dy <= 0.0 or dt <= 0.0:
        return 0.0
    return dx * dy * dt


def _rstar_split(entries: list, min_fill: int) -> tuple[list, list]:
    """R* topological split: choose the axis with the least margin sum,
    then the distribution with the least overlap (ties: volume)."""
    n = len(entries)
    min_fill = max(min_fill, 1)
    best_axis = None
    best_margin = math.inf
    # axis 0..5: sort keys (xmin, ymin, tmin, xmax, ymax, tmax)
    for axis in range(6):
        order = sorted(entries, key=lambda e: e.mbr.as_tuple()[axis])
        margin = 0.0
        for k in range(min_fill, n - min_fill + 1):
            margin += _group_mbr(order[:k]).margin()
            margin += _group_mbr(order[k:]).margin()
        if margin < best_margin:
            best_margin = margin
            best_axis = axis
    order = sorted(entries, key=lambda e: e.mbr.as_tuple()[best_axis])
    best_split = None
    best_key = None
    for k in range(min_fill, n - min_fill + 1):
        mbr_a = _group_mbr(order[:k])
        mbr_b = _group_mbr(order[k:])
        key = (_overlap_volume(mbr_a, mbr_b), mbr_a.volume() + mbr_b.volume())
        if best_key is None or key < best_key:
            best_key = key
            best_split = k
    assert best_split is not None
    return list(order[:best_split]), list(order[best_split:])


def _group_mbr(group: list) -> MBR3D:
    out = group[0].mbr
    for e in group[1:]:
        out = out.union(e.mbr)
    return out
