"""The STR-tree (Spatio-Temporal R-tree, Pfoser, Jensen,
Theodoridis [13]).

The middle point of the design space the paper's substrate section
draws: a 3D R-tree whose insertion *prefers trajectory preservation* —
a new segment first tries to join the leaf that holds its
predecessor (if that leaf has room beyond ``reserve`` slots kept for
spatial inserts), and only falls back to the ordinary
least-enlargement descent otherwise.  Queries are identical to the
plain 3D R-tree's; only the clustering differs.

The BFMST algorithm runs on it unchanged — it is an "R-tree-like
structure" in the paper's sense, and the test suite checks the same
correctness contract for all three trees.
"""

from __future__ import annotations

from ..exceptions import IndexError_
from .entry import LeafEntry
from .node import NO_PAGE, Node
from .rtree3d import RTree3D

__all__ = ["STRTree"]


class STRTree(RTree3D):
    """A 3D R-tree with partial trajectory preservation on insert.

    ``reserve`` is the preservation parameter *p* of Pfoser et al.:
    how many slots per leaf stay reserved for ordinary spatial inserts
    so that preservation cannot starve them.
    """

    # the insertion policy is what this tree is for: ``bulk_insert``
    # never packs (``bulk_load`` still does, when asked by name)
    packs_static_builds = False

    def __init__(self, *args, reserve: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if reserve is None:
            reserve = min(8, self.capacity // 3)  # scale with the fanout
        if not (0 <= reserve < self.capacity):
            raise IndexError_(
                f"reserve must be in [0, {self.capacity}), got {reserve}"
            )
        self.reserve = reserve
        self._active_leaf: dict[int, int] = {}  # trajectory id -> leaf page
        self._parent_of: dict[int, int] = {}  # page -> parent page
        self.preserved_inserts = 0  # observability: how often it helped

    # ------------------------------------------------------------------
    def insert_entry(self, entry: LeafEntry) -> None:
        tid = entry.trajectory_id
        page = self._active_leaf.get(tid)
        if page is not None and self._try_preserve(page, entry):
            self.preserved_inserts += 1
            return
        self._insert_spatially(entry)

    def _try_preserve(self, page: int, entry: LeafEntry) -> bool:
        """Append to the predecessor's leaf when room remains beyond
        the reserved slots."""
        leaf = self.read_node(page)
        if not leaf.is_leaf:  # stale map after an unusual reshuffle
            return False
        if len(leaf.entries) >= self.capacity - self.reserve:
            return False
        leaf.entries.append(entry)
        self.touch(leaf)
        self.num_entries += 1
        self._adjust_upwards(page, entry.mbr)
        return True

    def _insert_spatially(self, entry: LeafEntry) -> None:
        """Ordinary R-tree insertion, additionally maintaining the
        parent map and the trajectory's active leaf."""
        if self.root_page == NO_PAGE:
            super().insert_entry(entry)
            self._active_leaf[entry.trajectory_id] = self.root_page
            return
        path = self._choose_path(entry.mbr)
        for parent, child in zip(path, path[1:]):
            self._parent_of[child] = parent
        leaf_page = path[-1]
        leaf = self.read_node(leaf_page)
        leaf.entries.append(entry)
        self.touch(leaf)
        self.num_entries += 1
        self._active_leaf[entry.trajectory_id] = leaf_page
        self._propagate(path, entry.mbr)

    # ------------------------------------------------------------------
    def _adjust_upwards(self, page_id: int, box) -> None:
        while True:
            parent_page = self._parent_of.get(page_id)
            if parent_page is None:
                return
            parent = self.read_node(parent_page)
            self._union_child_entry(parent, page_id, box)
            self.touch(parent)
            page_id = parent_page

    def _after_split(self, node: Node, sibling: Node, parent_page: int) -> None:
        """Keep the parent map exact and drop stale preservation state:
        after a leaf split we no longer know which half holds a
        trajectory's latest segment, so those objects fall back to
        spatial insertion once (safe, merely less clustered)."""
        self._parent_of[node.page_id] = parent_page
        self._parent_of[sibling.page_id] = parent_page
        if not node.is_leaf:
            for e in sibling.entries:
                self._parent_of[e.child_page] = sibling.page_id
        else:
            stale = {
                tid
                for tid, page in self._active_leaf.items()
                if page == node.page_id
            }
            for tid in stale:
                del self._active_leaf[tid]

    def _on_release(self, page_id: int) -> None:
        """Recycled pages must not linger in the preservation maps —
        neither as children (keys) nor as parents (values: a released
        parent means the child was re-parented, e.g. by a root
        shrink, or released itself)."""
        self._parent_of.pop(page_id, None)
        orphaned = [
            child for child, parent in self._parent_of.items()
            if parent == page_id
        ]
        for child in orphaned:
            del self._parent_of[child]
        stale = [
            tid for tid, page in self._active_leaf.items() if page == page_id
        ]
        for tid in stale:
            del self._active_leaf[tid]

    def bulk_load(self, entries: list[LeafEntry]) -> None:
        """STR packing (inherited), then rebuild the parent map so
        incremental inserts keep working afterwards."""
        super().bulk_load(entries)
        for node in self.nodes():
            if not node.is_leaf:
                for e in node.entries:
                    self._parent_of[e.child_page] = node.page_id

    def preservation_ratio(self) -> float:
        """Fraction of inserts served by trajectory preservation."""
        if self.num_entries == 0:
            return 0.0
        return self.preserved_inserts / self.num_entries
