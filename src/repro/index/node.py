"""Index nodes and their page serialisation.

A node is one page worth of entries.  Leaf nodes (level 0) hold
trajectory segments, internal nodes hold
:class:`~repro.index.entry.InternalEntry` child pointers.  The TB-tree
additionally stamps each leaf with the single trajectory it bundles and
doubly links the leaves of one trajectory (``prev_leaf``/``next_leaf``).

A leaf has one read form, its *rows*: ``(trajectory_id, x1, y1, t1, x2,
y2, t2)`` tuples, one per segment in page order.  A page decodes into
them (:func:`payload_rows`, the one page decoder) and the searches read
them; the :class:`~repro.index.entry.LeafEntry` objects the writers
mutate are a view built on first access of :attr:`Node.entries`.

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
from bisect import bisect_left, bisect_right
from operator import itemgetter, lt

from ..exceptions import IndexError_, PageOverflowError
from ..geometry import MBR3D
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

_T1 = itemgetter(3)
_T2 = itemgetter(6)


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
    """One index node, always resident behind the buffer manager.

    A leaf holds its segments as :attr:`rows` — what a page decodes
    into and what every search reads — and builds the
    :class:`~repro.index.entry.LeafEntry` view (:attr:`entries`) only
    when something asks for it.  Whoever takes :attr:`entries` may
    change the list, so taking it drops the rows; the next read
    rebuilds them from the objects, once.  Internal nodes decode
    straight into :class:`~repro.index.entry.InternalEntry` objects.

    A chained (TB-tree) leaf that the tree is growing also carries
    :attr:`payload_bytes`, its entry payload size as
    :func:`tb_leaf_payload_size` counts it, so an append checks the fit
    without re-measuring the leaf.  It is ``None`` until counted — on a
    node decoded from a page — and is dropped whenever the entries are
    handed out or replaced.
    """

    __slots__ = (
        "page_id",
        "level",
        "owner_id",
        "prev_leaf",
        "next_leaf",
        "chained",
        "_entries",
        "_rows",
        "_sweep",
        "payload_bytes",
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
        *,
        rows: list[tuple] | None = None,
    ) -> None:
        self.page_id = page_id
        self.level = level
        # TB-tree leaf metadata; unused (-1) for plain R-tree nodes.
        self.owner_id = owner_id
        self.prev_leaf = prev_leaf
        self.next_leaf = next_leaf
        # Chained leaves (TB-tree) use the shared-endpoint layout.
        self.chained = chained
        if entries is None and rows is None:
            entries = []
        self._entries: list | None = entries
        self._rows: list[tuple] | None = rows
        self._sweep: tuple[list[tuple], bool] | None = None
        self.payload_bytes: int | None = None

    # ------------------------------------------------------------------
    # the two forms of a node's entries
    # ------------------------------------------------------------------
    @property
    def entries(self) -> list:
        """The entries as objects, for writers and introspection."""
        entries = self._entries
        if entries is None:
            make = LeafEntry.from_row if self.level == 0 else InternalEntry.from_row
            entries = self._entries = [make(row) for row in self._rows]
        self._rows = self._sweep = self.payload_bytes = None
        return entries

    @entries.setter
    def entries(self, entries: list) -> None:
        self._entries = entries
        self._rows = self._sweep = self.payload_bytes = None

    @property
    def rows(self) -> list[tuple]:
        """The entries as :func:`payload_rows` tuples, in page order."""
        rows = self._rows
        if rows is None:
            rows = self._rows = [e.row for e in self._entries]
        return rows

    @rows.setter
    def rows(self, rows: list[tuple]) -> None:
        self._rows = rows
        self._entries = self._sweep = self.payload_bytes = None

    def append_row(self, row: tuple) -> None:
        """Add one row after the last (a TB-tree leaf's append); the
        caller keeps :attr:`payload_bytes`."""
        rows = self.rows
        self._entries = self._sweep = None
        rows.append(row)

    def rows_in_period(self, t_start: float, t_end: float) -> list[tuple]:
        """A leaf's rows sorted by ``t1``, cut to those that may overlap
        ``(t_start, t_end)``: every row starting at or after ``t_end``
        is gone, and on a chained leaf every row ending at or before
        ``t_start`` too.

        A chained leaf is stored in time order — by ``t1`` and by
        ``t2`` — so both ends are cut by bisection and nothing is
        sorted.  Any other leaf, and a chained one whose rows are out
        of order, is sorted by ``t1`` (stably) and cut at ``t_end``
        only.  The order check and the sort run once per decoded (or
        rewritten) leaf.
        """
        sweep = self._sweep
        if sweep is None:
            rows = self.rows
            if self.chained and _time_ordered(rows):
                sweep = (rows, True)
            else:
                sweep = (sorted(rows, key=_T1), False)
            self._sweep = sweep
        rows, by_end = sweep
        first = bisect_right(rows, t_start, key=_T2) if by_end else 0
        return rows[first : bisect_left(rows, t_end, first, key=_T1)]

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        rows = self._rows
        return len(rows) if rows is not None else len(self._entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self)})"

    def mbr(self) -> MBR3D:
        """Bounding box of all entries; raises on an empty node."""
        entries = self.entries
        if not entries:
            raise IndexError_(f"node {self.page_id} is empty, no MBR")
        out = entries[0].mbr
        for e in entries[1:]:
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
        rows = self.rows
        if self.chained and self.is_leaf:
            body = _chained_body(rows)
            if NODE_OVERHEAD_BYTES + len(body) > page_size:
                raise PageOverflowError(
                    f"chained leaf {self.page_id} payload of {len(body)} "
                    f"bytes exceeds page size {page_size}"
                )
            kind = _KIND_TB_LEAF
        else:
            cap = node_capacity(page_size)
            if len(rows) > cap:
                raise PageOverflowError(
                    f"node {self.page_id} holds {len(rows)} entries, "
                    f"page capacity is {cap}"
                )
            body = b"".join([ENTRY_FMT.pack(*row) for row in rows])
            kind = _KIND_LEAF if self.is_leaf else _KIND_INTERNAL
        header = _HEADER_FMT.pack(
            kind,
            self.level,
            len(rows),
            0,
            self.owner_id,
            self.prev_leaf,
            self.next_leaf,
        )
        return header + body

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
        kind, level, owner, prev_leaf, next_leaf, rows = _decode(page_id, data)
        if kind == _KIND_INTERNAL:
            entries = [InternalEntry.from_row(row) for row in rows]
            return cls(page_id, level, entries, owner, prev_leaf, next_leaf)
        return cls(
            page_id,
            0,
            None,
            owner,
            prev_leaf,
            next_leaf,
            chained=kind == _KIND_TB_LEAF,
            rows=rows,
        )


def _time_ordered(rows: list[tuple]) -> bool:
    """True when ``rows`` ascend by ``t1`` and by ``t2``."""
    t1 = list(map(_T1, rows))
    t2 = list(map(_T2, rows))
    return t1 == sorted(t1) and t2 == sorted(t2)


def _chained_body(rows: list[tuple]) -> bytes:
    """A chained leaf's entry payload: maximal runs of
    endpoint-sharing segments, each as a length and a point chain."""
    chains: list[list[tuple]] = []
    prev_end = None
    for _tid, x1, y1, t1, x2, y2, t2 in rows:
        start = (x1, y1, t1)
        end = (x2, y2, t2)
        if prev_end is not None and start == prev_end:
            chains[-1].append(end)
        else:
            chains.append([start, end])
        prev_end = end
    parts = []
    for chain in chains:
        parts.append(_CHAIN_LEN_FMT.pack(len(chain) - 1))
        parts.extend(_POINT_FMT.pack(*p) for p in chain)
    return b"".join(parts)


def _decode(page_id: int, data) -> tuple[int, int, int, int, int, list[tuple]]:
    """``(kind, level, owner, prev_leaf, next_leaf, rows)`` of a node
    payload, every header and chain field checked against its length
    and every leaf segment against its time span."""
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
    if kind == _KIND_TB_LEAF:
        rows = [
            (owner, *a, *b)
            for chain in _chains(page_id, data, count)
            for a, b in zip(chain, chain[1:])
        ]
    else:
        stop = HEADER_BYTES + count * ENTRY_BYTES
        if len(data) < stop:
            raise IndexError_(
                f"page {page_id}: {count} entries do not fit the page data"
            )
        rows = list(ENTRY_FMT.iter_unpack(data[HEADER_BYTES:stop]))
    if kind != _KIND_INTERNAL and not all(
        map(lt, map(_T1, rows), map(_T2, rows))
    ):
        raise IndexError_(
            f"page {page_id}: a segment does not span positive time"
        )
    return kind, level, owner, prev_leaf, next_leaf, rows


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
    """Read a node payload as rows — the one page decoder.

    Returns ``(level, rows)``: a leaf's rows are ``(trajectory_id, x1,
    y1, t1, x2, y2, t2)``, one per segment in page order; an internal
    node's are ``(child_page, xmin, ymin, tmin, xmax, ymax, tmax)``.
    :meth:`Node.from_payload` caches a leaf's rows as they come from
    here; readers that want the numbers of many pages and no node
    (:func:`~repro.index.traversal.leaf_points`) call it directly.
    """
    _kind, level, _owner, _prev, _next, rows = _decode(page_id, data)
    return level, rows
