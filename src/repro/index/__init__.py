"""The paper's two trajectory indexes, the 3D R-tree and the TB-tree,
over the paged storage layer."""

from .base import TrajectoryIndex, quadratic_split
from .entry import ENTRY_BYTES, InternalEntry, LeafEntry
from .fsck import FsckReport, PageVerdict, fsck, fsck_index, fsck_sharded
from .kinds import TREES, tree_class
from .mindist import mindist, mindist_batch
from .node import NO_PAGE, NODE_OVERHEAD_BYTES, Node, node_capacity
from .persistence import load_index, save_index
from .rtree3d import RTree3D
from .tbtree import TBTree
from .traversal import best_first_nodes, leaf_points

__all__ = [
    "TrajectoryIndex",
    "quadratic_split",
    "LeafEntry",
    "InternalEntry",
    "ENTRY_BYTES",
    "Node",
    "NO_PAGE",
    "node_capacity",
    "NODE_OVERHEAD_BYTES",
    "RTree3D",
    "TBTree",
    "TREES",
    "tree_class",
    "mindist",
    "mindist_batch",
    "best_first_nodes",
    "leaf_points",
    "save_index",
    "load_index",
    "fsck",
    "fsck_index",
    "fsck_sharded",
    "FsckReport",
    "PageVerdict",
]
