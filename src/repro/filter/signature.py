"""Building per-trajectory signatures from a finished index.

The builder reads each trajectory's sample sequence back from the
tree's leaf segments (one walk over the pages) and distils one thing
per object: a TD-TR-simplified polyline (knots) with a certified
radius per kept segment — the maximum Synchronized Euclidean Distance
of the dropped samples, so the true position at time ``t`` is always
within ``radius`` of the simplified position at ``t``.  A signature is
a few hundred bytes.

The builder also records, per leaf page, the distinct trajectory ids
stored on it, so the search can skip reading a leaf whose candidates
are all already settled.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import NamedTuple

from ..compression.tdtr import td_tr_columns
from ..exceptions import IndexError_
from ..index.traversal import leaf_points

__all__ = ["TrajectorySignatures", "build_signatures"]

#: Default TD-TR tolerance as a fraction of each trajectory's travelled
#: length (the paper's ``p`` parameterisation; 2 % keeps signatures tiny
#: while the radii stay small enough to prune with).
DEFAULT_SIMPLIFY_P = 0.02


class PassColumns(NamedTuple):
    """What the bound pass and the page lookups derive from a store
    alone (:meth:`TrajectorySignatures.pass_columns`); each a fresh
    array, none a view of a backing buffer."""

    #: The rows of two knots or more, and their first and last knot times.
    rows: object
    first: object
    last: object
    #: The row each knot belongs to.
    knot_row: object
    #: Per knot, the difference to the next knot's ``t``/``x``/``y`` (the
    #: subtractions the pass would do per probe, so the same bits), and
    #: the radius of the segment the knot starts.  The last knot of a row
    #: starts no segment, and nothing reads its slots.
    dt: object
    dx: object
    dy: object
    radius: object
    #: The row of each leaf page's tids, ``len(store)`` for a tid the
    #: store has no signature for.
    page_rows: object
    #: Where each non-empty leaf page's tids start, and which pages have any.
    page_starts: object
    page_filled: object
    #: The leaf page ids, ascending.
    leaf_pages: object


class TrajectorySignatures:
    """Column-oriented signature store for one index.

    All per-trajectory data lives in flat CSR-style arrays so the store
    round-trips through the binary sidecar without per-object parsing
    and serves straight out of an mmap.  ``binding`` ties the sidecar
    to the exact index it was built from.
    """

    __slots__ = (
        "binding",
        "simplify_p",
        "tids",
        "knot_offsets",
        "knot_t",
        "knot_x",
        "knot_y",
        "radii",
        "leaf_pages",
        "leaf_tid_offsets",
        "leaf_tids",
        "_tid_pos",
        "_leaf_pos",
        "_knot_columns",
        "_pass_columns",
        "_close",
    )

    def __init__(
        self,
        binding: tuple[int, int, int],
        simplify_p: float,
        tids,
        knot_offsets,
        knot_t,
        knot_x,
        knot_y,
        radii,
        leaf_pages,
        leaf_tid_offsets,
        leaf_tids,
        close=None,
    ) -> None:
        self.binding = binding
        self.simplify_p = simplify_p
        self.tids = tids
        self.knot_offsets = knot_offsets
        self.knot_t = knot_t
        self.knot_x = knot_x
        self.knot_y = knot_y
        self.radii = radii
        self.leaf_pages = leaf_pages
        self.leaf_tid_offsets = leaf_tid_offsets
        self.leaf_tids = leaf_tids
        self._tid_pos = {tid: i for i, tid in enumerate(tids)}
        self._leaf_pos = {page: i for i, page in enumerate(leaf_pages)}
        self._knot_columns = None
        self._pass_columns = None
        self._close = close

    def __len__(self) -> int:
        return len(self.tids)

    def __contains__(self, tid: int) -> bool:
        return tid in self._tid_pos

    def position(self, tid: int) -> int | None:
        return self._tid_pos.get(tid)

    def knots(self, tid: int) -> tuple[list, list, list, list] | None:
        """``(t, x, y, radii)`` of one trajectory's simplified polyline
        (plain lists — detached from any backing buffer)."""
        i = self._tid_pos.get(tid)
        if i is None:
            return None
        a, b = self.knot_offsets[i], self.knot_offsets[i + 1]
        ra, rb = a - i, b - 1 - i  # radii arrays omit one slot per object
        return (
            list(self.knot_t[a:b]),
            list(self.knot_x[a:b]),
            list(self.knot_y[a:b]),
            list(self.radii[ra:rb]),
        )

    def knot_columns(self, np) -> tuple:
        """``(knot_t, knot_x, knot_y, radii, knot_offsets)`` of the whole
        store as zero-copy ndarray views over the backing buffers,
        memoised until :meth:`close`.  Threads racing the first call
        each build equivalent views and one tuple wins.  Callers must
        not keep a view (or a slice of one) past their own call: an
        exported buffer cannot be released."""
        columns = self._knot_columns
        if columns is None:
            columns = self._knot_columns = (
                np.frombuffer(self.knot_t, dtype=np.float64),
                np.frombuffer(self.knot_x, dtype=np.float64),
                np.frombuffer(self.knot_y, dtype=np.float64),
                np.frombuffer(self.radii, dtype=np.float64),
                np.frombuffer(self.knot_offsets, dtype=np.int64),
            )
        return columns

    def pass_columns(self, np) -> PassColumns:
        """The store's :class:`PassColumns`, memoised until
        :meth:`close` like :meth:`knot_columns`."""
        columns = self._pass_columns
        if columns is None:
            kt, kx, ky, radii, offsets = self.knot_columns(np)
            counts = np.diff(offsets)
            rows = np.flatnonzero(counts >= 2)
            radius = np.zeros(len(kt))
            # Every knot but a row's last starts a segment, in order.
            starts_segment = np.ones(len(kt), dtype=bool)
            starts_segment[offsets[1:][counts > 0] - 1] = False
            radius[starts_segment] = radii
            leaf_tids = np.frombuffer(self.leaf_tids, dtype=np.int64)
            tids = np.frombuffer(self.tids, dtype=np.int64)
            page_rows = np.searchsorted(tids, leaf_tids)
            known = page_rows < len(tids)
            known[known] = tids[page_rows[known]] == leaf_tids[known]
            page_rows[~known] = len(tids)
            leaf_offsets = np.frombuffer(self.leaf_tid_offsets, dtype=np.int64)
            page_filled = np.diff(leaf_offsets) > 0
            columns = self._pass_columns = PassColumns(
                rows=rows,
                first=kt[offsets[rows]],
                last=kt[offsets[rows + 1] - 1],
                knot_row=np.repeat(np.arange(len(counts)), counts),
                dt=np.diff(kt),
                dx=np.diff(kx),
                dy=np.diff(ky),
                radius=radius,
                page_rows=page_rows,
                page_starts=leaf_offsets[:-1][page_filled],
                page_filled=page_filled,
                leaf_pages=np.array(self.leaf_pages, dtype=np.int64),
            )
        return columns

    def page_slot(self, page_id: int) -> int | None:
        """A leaf page's position among :attr:`leaf_pages` (``None``
        when the page is unknown)."""
        return self._leaf_pos.get(page_id)

    def page_tids(self, page_id: int) -> list[int] | None:
        """Distinct trajectory ids on a leaf page (``None`` when the
        page is unknown — the caller must then read the page)."""
        i = self._leaf_pos.get(page_id)
        if i is None:
            return None
        a, b = self.leaf_tid_offsets[i], self.leaf_tid_offsets[i + 1]
        return list(self.leaf_tids[a:b])

    def close(self) -> None:
        """Release the mmap backing (no-op for in-memory stores).  The
        ndarray views go first — they export the buffers they wrap."""
        self._knot_columns = self._pass_columns = None
        if self._close is not None:
            close, self._close = self._close, None
            close()


def build_signatures(
    index, *, simplify_p: float = DEFAULT_SIMPLIFY_P
) -> TrajectorySignatures:
    """Build signatures for every trajectory of a finished index.

    Reads each trajectory's samples back from the tree's leaves
    (:func:`repro.index.leaf_points` — one walk over the pages) and
    TD-TR-simplifies them with certified radii.  Works the same on a
    tree built a moment ago and on one loaded from disk.
    """
    if getattr(index, "num_entries", 0) <= 0:
        raise IndexError_("cannot build signatures for an empty index")

    points, page_tid_sets = leaf_points(index)
    tids = array("q", sorted(points))
    knot_offsets = array("q", [0])
    knot_t = array("d")
    knot_x = array("d")
    knot_y = array("d")
    radii = array("d")
    for tid in tids:
        x, y, t = zip(*points[tid])
        length = sum(
            math.hypot(x0 - x1, y0 - y1)
            for x0, y0, x1, y1 in zip(x, y, x[1:], y[1:])
        )
        kept, seg_radii = td_tr_columns(t, x, y, simplify_p * length)
        knot_t.extend(t[i] for i in kept)
        knot_x.extend(x[i] for i in kept)
        knot_y.extend(y[i] for i in kept)
        radii.extend(seg_radii)
        knot_offsets.append(len(knot_t))

    leaf_pages = array("q", sorted(page_tid_sets))
    leaf_tid_offsets = array("q", [0])
    leaf_tids = array("q")
    for page in leaf_pages:
        leaf_tids.extend(sorted(page_tid_sets[page]))
        leaf_tid_offsets.append(len(leaf_tids))

    return TrajectorySignatures(
        binding=(index.num_nodes, index.num_entries, index.root_page),
        simplify_p=simplify_p,
        tids=tids,
        knot_offsets=knot_offsets,
        knot_t=knot_t,
        knot_x=knot_x,
        knot_y=knot_y,
        radii=radii,
        leaf_pages=leaf_pages,
        leaf_tid_offsets=leaf_tid_offsets,
        leaf_tids=leaf_tids,
    )


def segment_index(knot_t, t: float) -> int:
    """Index of the simplified segment containing time ``t`` (clamped
    to the polyline, matching ``numpy.searchsorted(side='right') - 1``
    with the same clamp on the vectorised path)."""
    idx = bisect_right(knot_t, t) - 1
    if idx < 0:
        return 0
    last = len(knot_t) - 2
    return last if idx > last else idx
