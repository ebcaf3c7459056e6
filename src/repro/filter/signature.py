"""Building per-trajectory signatures from a finished index.

The builder takes each trajectory's sample sequence — read back from
the tree's leaf segments (one walk over the pages), or handed over by
whoever packed the tree from samples in hand — and distils one thing
per object: a TD-TR-simplified polyline (knots) with a certified
radius per kept segment — the maximum Synchronized Euclidean Distance
of the dropped samples, so the true position at time ``t`` is always
within ``radius`` of the simplified position at ``t``.  A signature is
a few hundred bytes.

The builder also records, per leaf page, the distinct trajectory ids
stored on it, so the search can skip reading a leaf whose candidates
are all already settled.

The bound pass prices a stack of stores (:class:`StackedSignatures`,
built by :func:`stack_signatures`): one store's rows alone, or those of
several parts' sidecars, numbered one store after another, in one
pass.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from math import hypot
from operator import sub, truediv
from typing import NamedTuple

from ..compression.tdtr import td_tr_columns
from ..exceptions import IndexError_
from ..index.traversal import leaf_points

__all__ = [
    "StackedSignatures",
    "TrajectorySignatures",
    "build_signatures",
    "signatures_from_points",
    "stack_signatures",
]

#: Default TD-TR tolerance as a fraction of each trajectory's travelled
#: length (the paper's ``p`` parameterisation; 2 % keeps signatures tiny
#: while the radii stay small enough to prune with).
DEFAULT_SIMPLIFY_P = 0.02


class PassColumns(NamedTuple):
    """What the bound pass and the page lookups derive from the stores
    of a stack alone (:meth:`StackedSignatures.pass_columns`); each a
    fresh array, none a view of a backing buffer."""

    #: The rows of two knots or more, and their first and last knot times.
    rows: object
    first: object
    last: object
    #: The row each knot belongs to.
    knot_row: object
    #: Per row, the trajectory's maximum segment speed.
    speed: object
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
    #: Where each row's knots start, and one past the last row's end.
    offsets: object
    #: The leaf pages a seed may read (:meth:`~repro.filter.runtime.SignatureFilter.seed_pages`),
    #: ascending: each holds one tid, which no other page holds and whose
    #: polyline has two knots or more.  Per page, that tid and its first
    #: and last knot times.
    seed_pages: object
    seed_tids: object
    seed_first: object
    seed_last: object


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
        "speeds",
        "leaf_pages",
        "leaf_tid_offsets",
        "leaf_tids",
        "_tid_pos",
        "_leaf_pos",
        "_knot_columns",
        "_stacked",
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
        speeds,
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
        self.speeds = speeds
        self.leaf_pages = leaf_pages
        self.leaf_tid_offsets = leaf_tid_offsets
        self.leaf_tids = leaf_tids
        self._tid_pos = {tid: i for i, tid in enumerate(tids)}
        self._leaf_pos = {page: i for i, page in enumerate(leaf_pages)}
        self._knot_columns = None
        self._stacked = None
        self._close = close

    def __len__(self) -> int:
        return len(self.tids)

    def __contains__(self, tid: int) -> bool:
        return tid in self._tid_pos

    def position(self, tid: int) -> int | None:
        return self._tid_pos.get(tid)

    def speed(self, tid: int) -> float | None:
        """One trajectory's maximum segment speed (``None`` when the
        store has no signature for it)."""
        i = self._tid_pos.get(tid)
        return None if i is None else self.speeds[i]

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
        self._knot_columns = self._stacked = None
        if self._close is not None:
            close, self._close = self._close, None
            close()


def _derive_pass_columns(np, store) -> PassColumns:
    """One store's :class:`PassColumns`, computed (not memoised)."""
    kt, kx, ky, radii, offsets = store.knot_columns(np)
    counts = np.diff(offsets)
    rows = np.flatnonzero(counts >= 2)
    radius = np.zeros(len(kt))
    # Every knot but a row's last starts a segment, in order.
    starts_segment = np.ones(len(kt), dtype=bool)
    starts_segment[offsets[1:][counts > 0] - 1] = False
    radius[starts_segment] = radii
    leaf_tids = np.frombuffer(store.leaf_tids, dtype=np.int64)
    tids = np.frombuffer(store.tids, dtype=np.int64)
    page_rows = np.searchsorted(tids, leaf_tids)
    known = page_rows < len(tids)
    known[known] = tids[page_rows[known]] == leaf_tids[known]
    page_rows[~known] = len(tids)
    leaf_offsets = np.frombuffer(store.leaf_tid_offsets, dtype=np.int64)
    tids_per_page = np.diff(leaf_offsets)
    page_filled = tids_per_page > 0
    lone = np.flatnonzero(tids_per_page == 1)
    lone_rows = page_rows.take(leaf_offsets.take(lone))
    pages_of_row = np.bincount(page_rows, minlength=len(tids) + 1)
    counts_of_row = np.append(counts, 0)  # the unknown tid's row: none
    seed = (pages_of_row.take(lone_rows) == 1) & (
        counts_of_row.take(lone_rows) >= 2
    )
    seed_rows = lone_rows[seed]
    return PassColumns(
        rows=rows,
        first=kt[offsets[rows]],
        last=kt[offsets[rows + 1] - 1],
        speed=np.array(store.speeds, dtype=np.float64),
        knot_row=np.repeat(np.arange(len(counts)), counts),
        dt=np.diff(kt),
        dx=np.diff(kx),
        dy=np.diff(ky),
        radius=radius,
        page_rows=page_rows,
        page_starts=leaf_offsets[:-1][page_filled],
        page_filled=page_filled,
        leaf_pages=np.array(store.leaf_pages, dtype=np.int64),
        offsets=offsets.copy(),
        seed_pages=lone[seed],
        seed_tids=tids.take(seed_rows),
        seed_first=kt[offsets[seed_rows]],
        seed_last=kt[offsets[seed_rows + 1] - 1],
    )


class StackedSignatures:
    """One or more stores' rows as one, so that one bound pass prices
    them all.

    Store ``i``'s rows are the stack's rows from ``row_base[i]``, its
    knots from ``knot_base[i]`` and its leaf pages (in its own
    ascending order) from ``page_base[i]``; ``row_base[-1]`` is the
    row a leaf tid without a signature maps to.  The derived
    :class:`PassColumns` are built for the stack and memoised on its
    first store (see :func:`stack_signatures`); no member store
    memoises columns of its own.  The knots themselves are not
    copied: :meth:`knot_times` and :meth:`knot_gather` read them from
    each store's own columns.
    Built by :func:`stack_signatures`.
    """

    __slots__ = ("stores", "row_base", "knot_base", "page_base", "_pass_columns")

    def __init__(self, stores) -> None:
        self.stores = tuple(stores)
        self.row_base = [0]
        self.knot_base = [0]
        self.page_base = [0]
        for store in self.stores:
            self.row_base.append(self.row_base[-1] + len(store))
            self.knot_base.append(self.knot_base[-1] + len(store.knot_t))
            self.page_base.append(self.page_base[-1] + len(store.leaf_pages))
        self._pass_columns = None

    def __len__(self) -> int:
        return self.row_base[-1]

    def pass_columns(self, np) -> PassColumns:
        """The stores' :class:`PassColumns` end to end, renumbered into
        the stack, memoised with the stack and on its first store."""
        columns = self._pass_columns
        if columns is None:
            columns = self._pass_columns = self._derive(np)
            self.stores[0]._stacked = (self.stores[1:], columns)
        return columns

    def _derive(self, np) -> PassColumns:
        """:meth:`pass_columns`, computed (not memoised)."""
        if len(self.stores) == 1:  # nothing to renumber
            return _derive_pass_columns(np, self.stores[0])
        tid_base = [0]
        for store in self.stores:
            tid_base.append(tid_base[-1] + len(store.leaf_tids))
        knots, pages = self.knot_base[-1], self.page_base[-1]
        # The per-knot and per-page columns are filled in place, one
        # store's derived columns at a time; the per-row ones are short.
        out = {
            "knot_row": np.empty(knots, dtype=np.int64),
            "dt": np.zeros(knots),
            "dx": np.zeros(knots),
            "dy": np.zeros(knots),
            "radius": np.empty(knots),
            "page_rows": np.empty(tid_base[-1], dtype=np.int64),
            "page_filled": np.empty(pages, dtype=bool),
            "leaf_pages": np.empty(pages, dtype=np.int64),
            "offsets": np.empty(len(self) + 1, dtype=np.int64),
            "speed": np.empty(len(self)),
        }
        short = {
            name: []
            for name in (
                "rows", "first", "last", "page_starts",
                "seed_pages", "seed_tids", "seed_first", "seed_last",
            )
        }
        for i, store in enumerate(self.stores):
            part = _derive_pass_columns(np, store)
            row_base, knot_base = self.row_base[i], self.knot_base[i]
            rows = slice(row_base, self.row_base[i + 1])
            knot = slice(knot_base, self.knot_base[i + 1])
            page = slice(self.page_base[i], self.page_base[i + 1])
            tid = slice(tid_base[i], tid_base[i + 1])
            short["rows"].append(part.rows + row_base)
            short["first"].append(part.first)
            short["last"].append(part.last)
            short["page_starts"].append(part.page_starts + tid_base[i])
            short["seed_pages"].append(part.seed_pages + self.page_base[i])
            short["seed_tids"].append(part.seed_tids)
            short["seed_first"].append(part.seed_first)
            short["seed_last"].append(part.seed_last)
            np.add(part.knot_row, row_base, out=out["knot_row"][knot])
            # The slot of a store's last knot starts no segment: the
            # differences leave it at zero, and nothing reads it.
            for name in ("dt", "dx", "dy"):
                out[name][knot][:-1] = getattr(part, name)
            out["radius"][knot] = part.radius
            page_rows = out["page_rows"][tid]
            np.add(part.page_rows, row_base, out=page_rows)
            page_rows[part.page_rows == len(store)] = len(self)
            out["page_filled"][page] = part.page_filled
            out["leaf_pages"][page] = part.leaf_pages
            out["speed"][rows] = part.speed
            np.add(part.offsets[:-1], knot_base, out=out["offsets"][rows])
        out["offsets"][-1] = knots
        return PassColumns(
            **out,
            **{name: np.concatenate(pieces) for name, pieces in short.items()},
        )

    def knot_times(self, np, knots=None):
        """Every stacked knot's time, or those at the ascending stacked
        positions ``knots``, gathered store by store; for a stack of
        one and every knot, a view of the store's column, valid only
        for the caller's call (see
        :meth:`TrajectorySignatures.knot_columns`)."""
        if len(self.stores) == 1:  # the store's own column
            kt = self.stores[0].knot_columns(np)[0]
            return kt if knots is None else kt.take(knots)
        if knots is None:
            return np.concatenate(
                [store.knot_columns(np)[0] for store in self.stores]
            )
        cuts = np.searchsorted(knots, self.knot_base).tolist()
        return np.concatenate(
            [
                store.knot_columns(np)[0].take(knots[a:b] - base)
                for store, base, a, b in zip(
                    self.stores, self.knot_base, cuts, cuts[1:]
                )
            ]
        )

    def knot_gather(self, np, seg, rows):
        """A function of ``0``, ``1`` or ``2`` that returns the knots'
        ``t``, ``x`` or ``y`` at stacked knot positions ``seg`` as a
        fresh array.  ``seg`` is ``[probes, len(rows)]``, its column
        ``j`` holding knots of row ``rows[j]`` (ascending), so each
        store's knots are a run of columns, gathered from the store's
        own column."""
        if len(self.stores) == 1:  # the store's own columns
            columns = self.stores[0].knot_columns(np)
            return lambda column: columns[column].take(seg)
        cuts = np.searchsorted(rows, self.row_base).tolist()
        runs = [
            (store.knot_columns(np), base, a, b)
            for store, base, a, b in zip(
                self.stores, self.knot_base, cuts, cuts[1:]
            )
            if a < b
        ]

        def gather(column):
            out = np.empty(seg.shape)
            for columns, base, a, b in runs:
                out[:, a:b] = columns[column].take(seg[:, a:b] - base)
            return out

        return gather


def stack_signatures(stores) -> StackedSignatures:
    """A :class:`StackedSignatures` of ``stores``, in that order (one
    store or several).  Its derived columns are memoised on the first
    store, keyed by the stores after it, until the first store is
    closed.  The memo holds no reference back to that store, so a store
    nobody holds any more is freed at once, not by the cycle collector.
    A different list starting with the same store replaces the memo,
    so a store priced alone and as the first of several, query by
    query, would rebuild the columns each time; a search over a fixed
    set of parts builds them once.  Threads racing the first pass each
    build equal columns, and one memo wins."""
    stack = StackedSignatures(stores)
    memo = stack.stores[0]._stacked
    # Stores compare by identity: a reopened store is a new one.
    if memo is not None and memo[0] == stack.stores[1:]:
        stack._pass_columns = memo[1]
    return stack


def build_signatures(
    index, *, simplify_p: float = DEFAULT_SIMPLIFY_P
) -> TrajectorySignatures:
    """Build signatures for every trajectory of a finished index.

    Reads each trajectory's samples back from the tree's leaves
    (:func:`repro.index.leaf_points` — one walk over the pages) and
    hands them to :func:`signatures_from_points`.  Works the same on a
    tree built a moment ago and on one loaded from disk.
    """
    if getattr(index, "num_entries", 0) <= 0:
        raise IndexError_("cannot build signatures for an empty index")
    points, leaf_tids = leaf_points(index)
    return signatures_from_points(
        index, points, leaf_tids, simplify_p=simplify_p
    )


def signatures_from_points(
    index, points, leaf_tids, *, simplify_p: float = DEFAULT_SIMPLIFY_P
) -> TrajectorySignatures:
    """The signatures of ``index`` from its samples in hand: ``points``
    maps every indexed trajectory id to its ``(x, y, t)`` samples in
    time order, ``leaf_tids`` every leaf page to the ids stored on it —
    what :func:`repro.index.leaf_points` reads back, or what the pack
    was given and returned (:meth:`~repro.index.base.TrajectoryIndex.pack`).
    Each trajectory is TD-TR-simplified with certified radii, and its
    maximum segment speed is taken with the index's own arithmetic
    (:func:`repro.index.packing.row_speeds`), so the largest is the
    index's ``max_speed``.  Equal inputs give equal stores, byte for
    byte, whichever route made them.
    """
    tids = array("q", sorted(points))
    knot_offsets = array("q", [0])
    knot_t = array("d")
    knot_x = array("d")
    knot_y = array("d")
    radii = array("d")
    speeds = array("d")
    for tid in tids:
        x, y, t = zip(*points[tid])
        # the travelled length, leg by leg in time order
        length = sum(map(hypot, map(sub, x, x[1:]), map(sub, y, y[1:])))
        # the fastest leg, each as row_speeds takes it
        dt = list(map(sub, t[1:], t))
        vx = map(truediv, map(sub, x[1:], x), dt)
        vy = map(truediv, map(sub, y[1:], y), dt)
        speeds.append(max(map(hypot, vx, vy)))
        kept, seg_radii = td_tr_columns(t, x, y, simplify_p * length)
        knot_t.extend(t[i] for i in kept)
        knot_x.extend(x[i] for i in kept)
        knot_y.extend(y[i] for i in kept)
        radii.extend(seg_radii)
        knot_offsets.append(len(knot_t))

    leaf_pages = array("q", sorted(leaf_tids))
    leaf_tid_offsets = array("q", [0])
    page_tids = array("q")
    for page in leaf_pages:
        page_tids.extend(sorted(leaf_tids[page]))
        leaf_tid_offsets.append(len(page_tids))

    return TrajectorySignatures(
        binding=(index.num_nodes, index.num_entries, index.root_page),
        simplify_p=simplify_p,
        tids=tids,
        knot_offsets=knot_offsets,
        knot_t=knot_t,
        knot_x=knot_x,
        knot_y=knot_y,
        radii=radii,
        speeds=speeds,
        leaf_pages=leaf_pages,
        leaf_tid_offsets=leaf_tid_offsets,
        leaf_tids=page_tids,
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
