"""The tree kinds, named once: the paper's two indexes (Sec. 5).

Every door that takes a tree by name — ``build_index``, the CLI's
``--tree``, ``save_index``/``load_index``, ``fsck``, shard manifests
and ingest stores — reads :data:`TREES`, so a kind this build does not
know is refused everywhere with one message.
"""

from __future__ import annotations

from ..exceptions import StorageError
from .base import TrajectoryIndex
from .rtree3d import RTree3D
from .tbtree import TBTree

__all__ = ["TREES", "tree_class"]

#: Each tree class under its ``kind``, the name files record.
TREES: dict[str, type[TrajectoryIndex]] = {
    cls.kind: cls for cls in (RTree3D, TBTree)
}


def tree_class(
    kind, where=None, error: type[Exception] = StorageError
) -> type[TrajectoryIndex]:
    """The class of tree ``kind``.  Anything else — a retired kind, a
    typo, a value that is not a string — raises ``error`` naming the
    accepted kinds, prefixed with ``where`` (the file that recorded
    the kind) when given."""
    if isinstance(kind, str) and kind in TREES:
        return TREES[kind]
    prefix = "" if where is None else f"{where}: "
    raise error(
        f"{prefix}unknown tree kind {kind!r}; expected one of {sorted(TREES)}"
    )
