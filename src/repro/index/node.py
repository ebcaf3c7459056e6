"""Index nodes and their page serialisation.

A node is one page worth of *rows*, the seven numbers of an entry's
fixed 56-byte layout (:mod:`repro.index.entry`): a leaf row is
``(trajectory_id, x1, y1, t1, x2, y2, t2)``, one per trajectory
segment, and an internal row is ``(child_page, xmin, ymin, tmin, xmax,
ymax, tmax)``, a child pointer and the child subtree's box.  The
TB-tree additionally stamps each leaf with the single trajectory it
bundles and doubly links the leaves of one trajectory
(``prev_leaf``/``next_leaf``).

Rows are the only form a node keeps and a writer touches; a leaf
decoded from a page is read through a *compact* form until something
writes to it (:class:`Node`).  :attr:`Node.entries` is a read-only
view of the rows as :class:`~repro.index.entry.LeafEntry` or
:class:`~repro.index.entry.InternalEntry` values.  :func:`payload_rows`
reads a page straight into rows.

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
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import itemgetter, lt

from ..exceptions import IndexError_, PageOverflowError
from ..geometry import MBR3D
from ..storage.format import KIND_NODE, PAGE_HEADER_BYTES, frame_page, unframe_page
from .entry import ENTRY_BYTES, ENTRY_FMT, InternalEntry, LeafEntry

__all__ = [
    "Node",
    "node_capacity",
    "tb_leaf_payload_size",
    "row_box",
    "same_point",
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

#: ``array('d')`` holds native doubles; pages hold little-endian ones.
_SWAP = sys.byteorder != "little"


def node_capacity(page_size: int) -> int:
    """Maximum entries per node for the given page size."""
    cap = (page_size - NODE_OVERHEAD_BYTES) // ENTRY_BYTES
    if cap < 2:
        raise IndexError_(
            f"page size {page_size} too small for a node (capacity {cap})"
        )
    return cap


def tb_leaf_payload_size(rows: list[tuple]) -> int:
    """Serialized byte size of a TB-tree chained leaf's rows.

    A TB leaf bundles segments of *one* trajectory in temporal order,
    so consecutive segments normally share an endpoint; each maximal
    contiguous run is stored as a point chain (``n`` segments cost
    ``n + 1`` points instead of ``2n``) — this sharing is why the
    paper's TB-tree indexes come out roughly half the 3D R-tree's
    size (Table 2).
    """
    size = 0
    prev_end = None
    for row in rows:
        if prev_end is not None and same_point(row[1:4], prev_end):
            size += TB_CHAIN_STEP_BYTES
        else:
            size += TB_CHAIN_START_BYTES
        prev_end = row[4:]
    return size


def row_box(row: tuple) -> tuple:
    """``(xmin, ymin, tmin, xmax, ymax, tmax)`` of a leaf row, by
    :meth:`repro.geometry.STSegment.mbr`'s arithmetic."""
    _tid, x1, y1, t1, x2, y2, t2 = row
    return (min(x1, x2), min(y1, y2), t1, max(x1, x2), max(y1, y2), t2)


def same_point(a: tuple, b: tuple) -> bool:
    """True when two ``(x, y, t)`` points are the same doubles — the
    test for a segment starting where the last one ended, which a chain
    then stores once.  Equal by value, and, where a coordinate is zero,
    by bits too: ``-0.0 == 0.0``, but one stored point reads back as
    one of them."""
    return a == b and (0.0 not in a or _POINT_FMT.pack(*a) == _POINT_FMT.pack(*b))


class Node:
    """One index node, always resident behind the buffer manager.

    A node holds its rows in one of two forms, and every reader sees
    the same rows whichever it reads:

    * *compact* — a leaf as decoded from a page: a :class:`_PackedLeaf`
      (the entry bytes of an R-leaf) or :class:`_ChainedLeaf` (the
      point chain of a TB-tree leaf of one chain) that holds the page's
      numbers flat, with the time columns a period is bisected on, and
      builds only the rows :meth:`rows_in_period` returns;
    * *rows* — :attr:`rows`, the full list of row tuples in page order:
      what a writer builds, what an internal node and a TB-tree leaf of
      several chains decode into, and what a compact leaf builds once
      when something asks for the whole list (and then keeps beside
      its compact form, so a reader on another thread never finds
      neither).

    Every write — the :attr:`rows` setter, :meth:`append_row`,
    :meth:`replace_row` — drops the compact form and the caches derived
    from the rows: the sorted rows :meth:`rows_in_period` bisects, an
    internal node's :meth:`child_columns`, and :attr:`payload_bytes`,
    a growing TB-tree leaf's payload size as
    :func:`tb_leaf_payload_size` counts it (``None`` until counted),
    which the writer sets again after its write.  Nothing else changes
    a node's rows.
    """

    __slots__ = (
        "page_id",
        "level",
        "owner_id",
        "prev_leaf",
        "next_leaf",
        "chained",
        "_rows",
        "_page",
        "_sweep",
        "_columns",
        "payload_bytes",
    )

    def __init__(
        self,
        page_id: int,
        level: int,
        rows: list[tuple] | None = None,
        owner_id: int = NO_PAGE,
        prev_leaf: int = NO_PAGE,
        next_leaf: int = NO_PAGE,
        chained: bool = False,
        *,
        page: "_PackedLeaf | _ChainedLeaf | None" = None,
    ) -> None:
        self.page_id = page_id
        self.level = level
        # TB-tree leaf metadata; unused (-1) for plain R-tree nodes.
        self.owner_id = owner_id
        self.prev_leaf = prev_leaf
        self.next_leaf = next_leaf
        # Chained leaves (TB-tree) use the shared-endpoint layout.
        self.chained = chained
        if rows is None and page is None:
            rows = []
        self._rows: list[tuple] | None = rows
        self._page = page
        self._sweep: tuple[list[tuple], bool] | None = None
        self._columns: tuple | None = None
        self.payload_bytes: int | None = None

    # ------------------------------------------------------------------
    # rows: the one form a writer touches
    # ------------------------------------------------------------------
    @property
    def rows(self) -> list[tuple]:
        """The rows (:func:`payload_rows` tuples), in page order.  A
        reader must not change the list: writes go through the setter,
        :meth:`append_row` and :meth:`replace_row`."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._page.rows()
        return rows

    @rows.setter
    def rows(self, rows: list[tuple]) -> None:
        self._rows = rows
        self._invalidate()

    def append_row(self, row: tuple) -> None:
        """Add one row after the last."""
        rows = self.rows
        self._invalidate()
        rows.append(row)

    def replace_row(self, i: int, row: tuple) -> None:
        """Put ``row`` in place of row ``i``."""
        rows = self.rows
        self._invalidate()
        rows[i] = row

    def _invalidate(self) -> None:
        """Forget the compact form and every cache of the rows."""
        self._page = self._sweep = self._columns = None
        self.payload_bytes = None

    @property
    def entries(self) -> list:
        """The rows as :class:`~repro.index.entry.LeafEntry` or
        :class:`~repro.index.entry.InternalEntry` values, for
        introspection: a fresh list on each call, built without
        changing the node."""
        rows = self._rows
        if rows is None:
            rows = self._page.rows()
        make = LeafEntry.from_row if self.level == 0 else InternalEntry.from_row
        return [make(row) for row in rows]

    def boxes(self) -> list[tuple]:
        """Each row's ``(xmin, ymin, tmin, xmax, ymax, tmax)`` box, in
        row order."""
        if self.level == 0:
            return list(map(row_box, self.rows))
        return [row[1:] for row in self.rows]

    def box(self) -> tuple:
        """The box covering every row, folded in row order with
        :meth:`MBR3D.union <repro.geometry.MBR3D.union>`'s ``min`` and
        ``max``; raises on an empty node."""
        boxes = self.boxes()
        if not boxes:
            raise IndexError_(f"node {self.page_id} is empty, no MBR")
        xmin, ymin, tmin, xmax, ymax, tmax = boxes[0]
        for x0, y0, t0, x1, y1, t1 in boxes[1:]:
            xmin = min(xmin, x0)
            ymin = min(ymin, y0)
            tmin = min(tmin, t0)
            xmax = max(xmax, x1)
            ymax = max(ymax, y1)
            tmax = max(tmax, t1)
        return (xmin, ymin, tmin, xmax, ymax, tmax)

    def mbr(self) -> MBR3D:
        """Bounding box of all rows (:meth:`box`); raises on an empty
        node."""
        return MBR3D(*self.box())

    def child_columns(self, np) -> tuple:
        """An internal node's children as ``(pages, page_ids, boxes)``:
        the child page ids as a list and as an ``int64`` array, and a
        ``[6, children]`` float64 array of the boxes' ``xmin, ymin,
        tmin, xmax, ymax, tmax``, in row order.  Built on first use
        and kept until the node is written (threads racing the first
        call each build equal columns, and one set wins)."""
        columns = self._columns
        if columns is None:
            rows = self._rows
            pages = [row[0] for row in rows]
            boxes = np.array([row[1:] for row in rows]).reshape(len(rows), 6)
            columns = self._columns = (
                pages,
                np.array(pages, dtype=np.int64),
                np.ascontiguousarray(boxes.T),
            )
        return columns

    def rows_in_period(self, t_start: float, t_end: float) -> list[tuple]:
        """A leaf's rows sorted by ``t1``, cut to those that may overlap
        ``(t_start, t_end)``: every row starting at or after ``t_end``
        is gone, and on a chained leaf every row ending at or before
        ``t_start`` too.

        A chained leaf is stored in time order — by ``t1`` and by
        ``t2`` — so both ends are cut by bisection and nothing is
        sorted.  Any other leaf, and a chained one whose rows are out
        of order, is sorted by ``t1`` (stably) and cut at ``t_end``
        only.  A compact leaf bisects the time columns it keeps (an
        R-leaf puts its entries in ``t1`` order at its first cut) and
        builds only the rows it returns; a leaf in list form sorts or
        checks its order once per decoded (or rewritten) leaf.
        """
        page = self._page
        if page is not None:
            return page.in_period(t_start, t_end)
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
        return len(rows) if rows is not None else len(self._page)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self)})"

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
        :meth:`from_bytes` finds inside a verified page frame.  A leaf
        comes back compact, except a chained leaf of several chains;
        that one and an internal node come back as their rows."""
        kind, level, owner, prev_leaf, next_leaf, body = _decode(page_id, data)
        if isinstance(body, list):
            # an internal node, or a chained leaf of several chains
            rows, page = body, None
        else:
            rows, page = None, body
        return cls(
            page_id,
            level,
            rows,
            owner,
            prev_leaf,
            next_leaf,
            chained=kind == _KIND_TB_LEAF,
            page=page,
        )


class _PackedLeaf:
    """A decoded R-leaf: ``form``, a tuple ``(body, t1, order)`` of its
    entry bytes, their ``t1`` column and where the entries sit on the
    page.  It is in page order (``order`` is ``None``) until a period
    is first cut, which puts it in stable ``t1`` order for good, with
    each entry's page position in ``order``.  The form is swapped
    whole, so a reader on another thread sees one form or the other."""

    __slots__ = ("form",)

    def __init__(self, page_id: int, body: bytes) -> None:
        cols = _doubles(body)  # seven doubles a row; the id slot unused
        t1 = cols[3::7]
        _check_spans(page_id, t1, cols[6::7])
        self.form = (body, t1, None)

    def __len__(self) -> int:
        return len(self.form[1])

    def rows(self) -> list[tuple]:
        """Every row, in page order."""
        body, _t1, order = self.form
        rows = list(ENTRY_FMT.iter_unpack(body))
        if order is None:
            return rows
        out = [None] * len(rows)
        for i, row in zip(order, rows):
            out[i] = row
        return out

    def in_period(self, t_start: float, t_end: float) -> list[tuple]:
        """The rows starting before ``t_end``, in ``t1`` order."""
        body, t1, order = self.form
        if order is None:
            order = sorted(range(len(t1)), key=t1.__getitem__)
            body = b"".join(
                [body[i * ENTRY_BYTES : (i + 1) * ENTRY_BYTES] for i in order]
            )
            t1 = _doubles(body)[3::7]
            self.form = (body, t1, array("H", order))
        stop = bisect_left(t1, t_end) * ENTRY_BYTES
        return list(ENTRY_FMT.iter_unpack(body[:stop]))


class _ChainedLeaf:
    """A decoded one-chain TB-tree leaf: its points back to back as
    ``x, y, t`` doubles, and the segments' ``t1``/``t2`` columns as
    views of the points' times.  Segment ``i`` runs from point ``i`` to
    the next, so the times rise point by point and the segments are in
    order by ``t1`` and by ``t2``."""

    __slots__ = ("owner", "points", "t1", "t2")

    def __init__(self, page_id: int, points: array, owner: int) -> None:
        times = memoryview(points)[2::3]
        t1, t2 = times[:-1], times[1:]
        _check_spans(page_id, t1, t2)
        self.owner = owner
        self.points = points
        self.t1 = t1
        self.t2 = t2

    def __len__(self) -> int:
        return len(self.t1)

    def rows(self, first: int = 0, last: int | None = None) -> list[tuple]:
        """The rows of segments ``first`` to ``last`` (exclusive)."""
        if last is None:
            last = len(self.t1)
        points, lo, hi = self.points, 3 * first, 3 * last
        return list(
            zip(
                repeat(self.owner, last - first),
                *[points[lo + j : hi + j : 3] for j in range(6)],
            )
        )

    def in_period(self, t_start: float, t_end: float) -> list[tuple]:
        first = bisect_right(self.t2, t_start)
        return self.rows(first, bisect_left(self.t1, t_end, first))


def _doubles(data) -> array:
    """The little-endian doubles of ``data`` as an ``array('d')``."""
    out = array("d")
    out.frombytes(data)
    if _SWAP:
        out.byteswap()
    return out


def _check_spans(page_id: int, t1, t2) -> None:
    if not all(map(lt, t1, t2)):
        raise IndexError_(
            f"page {page_id}: a segment does not span positive time"
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
        if prev_end is not None and same_point(start, prev_end):
            chains[-1].append(end)
        else:
            chains.append([start, end])
        prev_end = end
    parts = []
    for chain in chains:
        parts.append(_CHAIN_LEN_FMT.pack(len(chain) - 1))
        parts.extend(_POINT_FMT.pack(*p) for p in chain)
    return b"".join(parts)


def _decode(page_id: int, data):
    """``(kind, level, owner, prev_leaf, next_leaf, body)`` of a node
    payload, every header and chain field checked against its length
    and every leaf segment against its time span.  ``body`` is a list
    of rows for an internal node and for a chained leaf of several
    chains, and the compact form of any other leaf."""
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
        chains = [
            data[offset : offset + (segs + 1) * _POINT_FMT.size]
            for offset, segs in _chains(page_id, data, count)
        ]
        if len(chains) == 1:
            body = _ChainedLeaf(page_id, _doubles(chains[0]), owner)
        else:
            body = _chain_rows(page_id, chains, owner)
    else:
        stop = HEADER_BYTES + count * ENTRY_BYTES
        if len(data) < stop:
            raise IndexError_(
                f"page {page_id}: {count} entries do not fit the page data"
            )
        entries = bytes(data[HEADER_BYTES:stop])
        if kind == _KIND_LEAF:
            body = _PackedLeaf(page_id, entries)
        else:
            body = list(ENTRY_FMT.iter_unpack(entries))
    return kind, level, owner, prev_leaf, next_leaf, body


def _chain_rows(page_id: int, chains: list, owner: int) -> list[tuple]:
    """The rows of a chained leaf's point ``chains``, spans checked."""
    rows = []
    for chain in chains:
        points = list(_POINT_FMT.iter_unpack(chain))
        rows += [(owner, *a, *b) for a, b in zip(points, points[1:])]
    _check_spans(page_id, map(_T1, rows), map(_T2, rows))
    return rows


def _chains(page_id: int, data, count: int):
    """``(offset, segments)`` of each point chain of a chained leaf
    holding ``count`` segments; the chain's ``segments + 1`` points
    start at ``offset``."""
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
        yield offset, segs
        offset += need
        seen += segs
    if seen != count:
        raise IndexError_(
            f"page {page_id}: chained leaf decoded {seen} of {count} entries"
        )


def payload_rows(page_id: int, data) -> tuple[int, list[tuple]]:
    """Read a node payload as rows.

    Returns ``(level, rows)``: a leaf's rows are ``(trajectory_id, x1,
    y1, t1, x2, y2, t2)``, one per segment in page order; an internal
    node's are ``(child_page, xmin, ymin, tmin, xmax, ymax, tmax)``.
    It runs the decoder :meth:`Node.from_payload` runs, with every
    check; readers that want the numbers of many pages and no node
    (:func:`~repro.index.traversal.leaf_points`) call it directly.
    """
    _kind, level, _owner, _prev, _next, body = _decode(page_id, data)
    return level, body if isinstance(body, list) else body.rows()
