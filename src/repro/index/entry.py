"""Index entries.

Leaf entries hold one trajectory *line segment* (the unit of insertion
for trajectory R-trees, cf. Pfoser et al. [13]): the owning object id
plus the segment's two spatiotemporal endpoints, from which the 3D MBB
is derived.  Internal entries hold a child page id and the child's MBB.

Both serialise to a fixed 56-byte layout so a 4 KB page holds 72 of
them — the index fanout is *derived from the byte layout*, not chosen.
The same seven numbers, as a tuple, are an entry's *row*
(:attr:`LeafEntry.row`, :attr:`InternalEntry.row`): the form a page
decodes into (:func:`repro.index.node.payload_rows`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..geometry import MBR3D, STPoint, STSegment

__all__ = ["LeafEntry", "InternalEntry", "ENTRY_BYTES", "ENTRY_FMT"]

# One layout serves both kinds of entry:
#   leaf      id,    x1,   y1,   t1,   x2,   y2,   t2
#   internal  child, xmin, ymin, tmin, xmax, ymax, tmax
ENTRY_FMT = struct.Struct("<q6d")
ENTRY_BYTES = ENTRY_FMT.size


class LeafEntry:
    """One trajectory line segment owned by ``trajectory_id``.

    The segment's 3D box is precomputed: ``mbr`` sits on every index
    write path (choose-subtree, splits) and must not be rebuilt per
    access.  Searches never build these objects; they read a leaf's
    rows (:attr:`repro.index.node.Node.rows`).
    """

    __slots__ = ("trajectory_id", "segment", "mbr")

    def __init__(self, trajectory_id: int, segment: STSegment) -> None:
        self.trajectory_id = trajectory_id
        self.segment = segment
        self.mbr: MBR3D = segment.mbr()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeafEntry):
            return NotImplemented
        return (
            self.trajectory_id == other.trajectory_id
            and self.segment == other.segment
        )

    def __hash__(self) -> int:
        return hash((self.trajectory_id, self.segment))

    def __repr__(self) -> str:
        return f"LeafEntry(id={self.trajectory_id}, segment={self.segment!r})"

    @property
    def t_start(self) -> float:
        return self.segment.ts

    @property
    def t_end(self) -> float:
        return self.segment.te

    @property
    def row(self) -> tuple:
        """``(trajectory_id, x1, y1, t1, x2, y2, t2)``."""
        s = self.segment
        return (
            self.trajectory_id,
            s.start.x,
            s.start.y,
            s.start.t,
            s.end.x,
            s.end.y,
            s.end.t,
        )

    @classmethod
    def from_row(cls, row) -> "LeafEntry":
        tid, x1, y1, t1, x2, y2, t2 = row
        return cls(tid, STSegment(STPoint(x1, y1, t1), STPoint(x2, y2, t2)))

    def to_bytes(self) -> bytes:
        return ENTRY_FMT.pack(*self.row)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LeafEntry":
        return cls.from_row(ENTRY_FMT.unpack(data))


@dataclass(frozen=True, slots=True)
class InternalEntry:
    """A child pointer with the child subtree's 3D bounding box."""

    child_page: int
    mbr: MBR3D

    @property
    def row(self) -> tuple:
        """``(child_page, xmin, ymin, tmin, xmax, ymax, tmax)``."""
        return (self.child_page, *self.mbr.as_tuple())

    @classmethod
    def from_row(cls, row) -> "InternalEntry":
        child, xmin, ymin, tmin, xmax, ymax, tmax = row
        return cls(child, MBR3D(xmin, ymin, tmin, xmax, ymax, tmax))

    def to_bytes(self) -> bytes:
        return ENTRY_FMT.pack(*self.row)

    @classmethod
    def from_bytes(cls, data: bytes) -> "InternalEntry":
        return cls.from_row(ENTRY_FMT.unpack(data))
