"""Index nodes and their page serialisation.

A node is one page worth of entries.  Leaf nodes (level 0) hold
:class:`~repro.index.entry.LeafEntry` segments, internal nodes hold
:class:`~repro.index.entry.InternalEntry` child pointers.  The TB-tree
additionally stamps each leaf with the single trajectory it bundles and
doubly links the leaves of one trajectory (``prev_leaf``/``next_leaf``).

Serialisation sits on the self-verifying v2 page format
(:mod:`repro.storage.format`): :meth:`Node.to_bytes` frames the node
payload behind a checksummed 16-byte page header, and
:meth:`Node.from_bytes` verifies the frame before parsing — corruption
surfaces as a :class:`~repro.exceptions.ChecksumError` at read time,
never as a garbage MBR.  The payload layout (little-endian) is a
32-byte node header ``kind(u8) level(u8) count(u16) pad(u32) owner(i64)
prev(i64) next(i64)`` followed by ``count`` fixed 56-byte entries.
With 4 KB pages this still yields a fanout of 72.
"""

from __future__ import annotations

import struct

from ..exceptions import IndexError_, PageOverflowError
from ..geometry import MBR3D, STPoint, STSegment
from ..storage.format import KIND_NODE, PAGE_HEADER_BYTES, frame_page, unframe_page
from .entry import ENTRY_BYTES, ENTRY_FMT, InternalEntry, LeafEntry

__all__ = [
    "Node",
    "node_capacity",
    "tb_leaf_payload_size",
    "payload_rows",
    "NO_PAGE",
    "HEADER_BYTES",
    "NODE_OVERHEAD_BYTES",
    "TB_CHAIN_START_BYTES",
    "TB_CHAIN_STEP_BYTES",
]

_HEADER_FMT = struct.Struct("<BBHIqqq")
HEADER_BYTES = 32
assert _HEADER_FMT.size == HEADER_BYTES

_KIND_LEAF = 1
_KIND_INTERNAL = 2
_KIND_TB_LEAF = 3  # chained single-trajectory leaf (TB-tree)

_CHAIN_LEN_FMT = struct.Struct("<H")
_POINT_FMT = struct.Struct("<3d")

#: Payload cost of a chained leaf's segments: one that opens a chain
#: stores its length and both endpoints, one that extends it a point.
TB_CHAIN_START_BYTES = _CHAIN_LEN_FMT.size + 2 * _POINT_FMT.size
TB_CHAIN_STEP_BYTES = _POINT_FMT.size

NO_PAGE = -1

#: Fixed per-page overhead: the checksummed page frame plus the node
#: header.  Everything after it is entry payload.
NODE_OVERHEAD_BYTES = PAGE_HEADER_BYTES + HEADER_BYTES


def node_capacity(page_size: int) -> int:
    """Maximum entries per node for the given page size."""
    cap = (page_size - NODE_OVERHEAD_BYTES) // ENTRY_BYTES
    if cap < 2:
        raise IndexError_(
            f"page size {page_size} too small for a node (capacity {cap})"
        )
    return cap


def tb_leaf_payload_size(entries: list) -> int:
    """Serialized byte size of a TB-tree chained leaf's entries.

    A TB leaf bundles segments of *one* trajectory in temporal order,
    so consecutive segments normally share an endpoint; each maximal
    contiguous run is stored as a point chain (``n`` segments cost
    ``n + 1`` points instead of ``2n``) — this sharing is why the
    paper's TB-tree indexes come out roughly half the 3D R-tree's
    size (Table 2).
    """
    size = 0
    prev_end = None
    for e in entries:
        s = e.segment
        if prev_end is not None and s.start == prev_end:
            size += TB_CHAIN_STEP_BYTES
        else:
            size += TB_CHAIN_START_BYTES
        prev_end = s.end
    return size


class Node:
    """One index node, always resident behind the buffer manager."""

    __slots__ = (
        "page_id",
        "level",
        "entries",
        "owner_id",
        "prev_leaf",
        "next_leaf",
        "chained",
    )

    def __init__(
        self,
        page_id: int,
        level: int,
        entries: list | None = None,
        owner_id: int = NO_PAGE,
        prev_leaf: int = NO_PAGE,
        next_leaf: int = NO_PAGE,
        chained: bool = False,
    ) -> None:
        self.page_id = page_id
        self.level = level
        self.entries: list = entries if entries is not None else []
        # TB-tree leaf metadata; unused (-1) for plain R-tree nodes.
        self.owner_id = owner_id
        self.prev_leaf = prev_leaf
        self.next_leaf = next_leaf
        # Chained leaves (TB-tree) use the shared-endpoint layout.
        self.chained = chained

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"

    def mbr(self) -> MBR3D:
        """Bounding box of all entries; raises on an empty node."""
        if not self.entries:
            raise IndexError_(f"node {self.page_id} is empty, no MBR")
        out = self.entries[0].mbr
        for e in self.entries[1:]:
            out = out.union(e.mbr)
        return out

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_bytes(self, page_size: int) -> bytes:
        """Serialise to a framed (checksummed) page image; the page
        file zero-pads it to ``page_size`` on write."""
        return frame_page(self.to_payload(page_size), KIND_NODE)

    def to_payload(self, page_size: int) -> bytes:
        """The raw node payload (header + entries), unframed."""
        if self.chained and self.is_leaf:
            return self._chained_payload(page_size)
        cap = node_capacity(page_size)
        if len(self.entries) > cap:
            raise PageOverflowError(
                f"node {self.page_id} holds {len(self.entries)} entries, "
                f"page capacity is {cap}"
            )
        kind = _KIND_LEAF if self.is_leaf else _KIND_INTERNAL
        header = _HEADER_FMT.pack(
            kind,
            self.level,
            len(self.entries),
            0,
            self.owner_id,
            self.prev_leaf,
            self.next_leaf,
        )
        parts = [header, b"\x00" * (HEADER_BYTES - len(header))]
        for e in self.entries:
            parts.append(e.to_bytes())
        return b"".join(parts)

    def _chained_payload(self, page_size: int) -> bytes:
        payload = tb_leaf_payload_size(self.entries)
        if NODE_OVERHEAD_BYTES + payload > page_size:
            raise PageOverflowError(
                f"chained leaf {self.page_id} payload of {payload} bytes "
                f"exceeds page size {page_size}"
            )
        header = _HEADER_FMT.pack(
            _KIND_TB_LEAF,
            self.level,
            len(self.entries),
            0,
            self.owner_id,
            self.prev_leaf,
            self.next_leaf,
        )
        parts = [header, b"\x00" * (HEADER_BYTES - len(header))]
        # Group maximal runs of endpoint-sharing segments into chains.
        chains: list[list] = []
        prev_end = None
        for e in self.entries:
            s = e.segment
            if prev_end is not None and s.start == prev_end:
                chains[-1].append(s.end)
            else:
                chains.append([s.start, s.end])
            prev_end = s.end
        for chain in chains:
            parts.append(_CHAIN_LEN_FMT.pack(len(chain) - 1))
            for p in chain:
                parts.append(_POINT_FMT.pack(p.x, p.y, p.t))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, page_id: int, data) -> "Node":
        """Parse a framed page image (``bytes`` or ``memoryview``); the
        frame is verified before any node field is trusted."""
        _kind, payload = unframe_page(data, page_id)
        return cls.from_payload(page_id, payload)

    @classmethod
    def from_payload(cls, page_id: int, data) -> "Node":
        """Parse a raw (unframed) node payload — what
        :meth:`from_bytes` finds inside a verified page frame."""
        kind, level, count, owner, prev_leaf, next_leaf = _read_header(page_id, data)
        if kind == _KIND_TB_LEAF:
            entries: list = []
            for chain in _chains(page_id, data, count):
                points = [STPoint(*p) for p in chain]
                for a, b in zip(points, points[1:]):
                    entries.append(LeafEntry.decoded(owner, STSegment(a, b)))
            return cls(
                page_id, 0, entries, owner, prev_leaf, next_leaf, chained=True
            )
        entry_cls = LeafEntry if kind == _KIND_LEAF else InternalEntry
        entries = []
        offset = HEADER_BYTES
        for _ in range(count):
            entries.append(entry_cls.from_bytes(data[offset : offset + ENTRY_BYTES]))
            offset += ENTRY_BYTES
        return cls(page_id, level, entries, owner, prev_leaf, next_leaf)


def _read_header(page_id: int, data) -> tuple[int, int, int, int, int, int]:
    """``(kind, level, count, owner, prev_leaf, next_leaf)`` of a node
    payload, checked against its length."""
    if len(data) < HEADER_BYTES:
        raise IndexError_(f"page {page_id}: truncated node header")
    kind, level, count, _pad, owner, prev_leaf, next_leaf = _HEADER_FMT.unpack(
        data[: _HEADER_FMT.size]
    )
    if kind not in (_KIND_LEAF, _KIND_INTERNAL, _KIND_TB_LEAF):
        raise IndexError_(f"page {page_id}: corrupt node kind {kind}")
    if kind in (_KIND_LEAF, _KIND_TB_LEAF) and level != 0:
        raise IndexError_(f"page {page_id}: leaf with level {level}")
    if kind == _KIND_INTERNAL and level == 0:
        raise IndexError_(f"page {page_id}: internal node with level 0")
    if kind != _KIND_TB_LEAF and len(data) < HEADER_BYTES + count * ENTRY_BYTES:
        raise IndexError_(
            f"page {page_id}: {count} entries do not fit the page data"
        )
    return kind, level, count, owner, prev_leaf, next_leaf


def _chains(page_id: int, data, count: int):
    """The point chains of a chained leaf holding ``count`` segments,
    each a list of ``(x, y, t)`` tuples."""
    offset = HEADER_BYTES
    seen = 0
    while seen < count:
        if offset + _CHAIN_LEN_FMT.size > len(data):
            raise IndexError_(f"page {page_id}: truncated chain header")
        (segs,) = _CHAIN_LEN_FMT.unpack_from(data, offset)
        offset += _CHAIN_LEN_FMT.size
        need = (segs + 1) * _POINT_FMT.size
        if segs == 0 or offset + need > len(data):
            raise IndexError_(f"page {page_id}: corrupt chain of {segs}")
        yield list(_POINT_FMT.iter_unpack(data[offset : offset + need]))
        offset += need
        seen += segs
    if seen != count:
        raise IndexError_(
            f"page {page_id}: chained leaf decoded {seen} of {count} entries"
        )


def payload_rows(page_id: int, data) -> tuple[int, list[tuple]]:
    """Read a node payload without building entry objects.

    Returns ``(level, rows)``: a leaf's rows are ``(trajectory_id, x1,
    y1, t1, x2, y2, t2)``, one per segment in page order; an internal
    node's are ``(child_page, xmin, ymin, tmin, xmax, ymax, tmax)``.
    For readers that want the numbers of many pages and none of the
    objects (the signature builder).
    """
    kind, level, count, owner, _prev, _next = _read_header(page_id, data)
    if kind == _KIND_TB_LEAF:
        return 0, [
            (owner, *a, *b)
            for chain in _chains(page_id, data, count)
            for a, b in zip(chain, chain[1:])
        ]
    stop = HEADER_BYTES + count * ENTRY_BYTES
    return level, list(ENTRY_FMT.iter_unpack(data[HEADER_BYTES:stop]))
