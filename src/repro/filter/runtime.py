"""Query-time signature evaluation: a provable DISSIM lower bound.

For one query ``Q`` over period ``[t1, tn]`` with relative speed bound
``V_max``, :class:`SignatureFilter` turns a trajectory's signature into
a number ``lb`` with ``lb <= DISSIM(Q, S, t1, tn)``.

**Probe bound.**  The covered stretch ``[lo, hi]`` (period ∩ signature
span) is cut into ``M`` equal subintervals probed at their midpoints
``t_j``.  The true position at ``t_j`` lies within the segment radius
``r_j`` of the simplified polyline (the TD-TR radii are certified), so
``d_j = max(0, |Q(t_j) - P(t_j)| - r_j) <= d(t_j)``, and the distance
function is ``V_max``-Lipschitz, so over the whole subinterval
``d(t) >= max(0, d_j - V_max |t - t_j|)``.  Integrating that hinge
exactly gives, with ``L`` the subinterval length and ``c = V_max L/2``:
``d_j L - V_max L^2/4`` when ``d_j >= c``, else ``d_j^2 / V_max``.
Summing the ``M`` pieces lower-bounds the integral over ``[lo, hi]``,
and the integrand is non-negative elsewhere, so the sum lower-bounds
the full DISSIM.

The bound is valid for *partial* candidates too: a candidate's
reported value is always an upper bound on (or the exact value of) its
full-period DISSIM, which the signature bound lower-bounds.

On the first lookup of a query the filter evaluates *every* row of the
sidecar in one numpy pass — a few dozen array operations over the
stacked knot columns instead of one interpreter round trip per
candidate.  It performs the same IEEE operations in the same order as
the one-row scalar reference :meth:`SignatureFilter._evaluate` (probe
times as ``lo + (j + 0.5) * L``, the knot index
``bisect_right(knots, t) - 1`` clamped to the polyline, interpolation as ``x_i + frac * (x_{i+1} - x_i)``, ``sqrt(dx*dx +
dy*dy)``, per-probe hinge, the ``M`` contributions added left to
right), so the two are bit-equal; the tests hold the pass to it.

**Knot counts without bisection.**  The pass needs, per probe, the
number of its row's knots at or below it (``bisect_right``).  It counts
the other way round, once per knot: how many of its row's probe times
lie strictly below the knot.  The inverse of the probe formula,
``ceil((t_k - lo) / L - 0.5)`` clipped to ``[0, M]``, estimates it, and
exact comparisons against the probe times, computed as the pass
computes them, move the estimate until it is exact (on the benchmark's
stores it always is already).  Probe times rise with ``j``, so a knot
is at or below probe ``j`` exactly when its count is at most ``j``: a
histogram of the counts per row (``bincount`` into ``[M + 1, rows]``),
summed down the probes, gives every probe its bisection result.  This
relies on knot times ascending strictly within a row, which the sidecar
loader checks.  When every covered row shares one window ``(lo, hi)``
— rows spanning the whole period, the common case — the probe times
and query positions are one ``[M, 1]`` column.  What depends on the
store alone (the per-segment differences, the knot-aligned radii, the
row of each knot) is memoised with the store
(:meth:`TrajectorySignatures.pass_columns`).

**Page minima.**  The same pass reduces the bounds to each leaf page's
least (``np.minimum.reduceat`` over the sidecar's leaf-tid CSR; ``-inf``
when a tid on the page has no signature, ``inf`` for a page of none).
A page whose least bound exceeds the threshold holds no trajectory the
signature tier would let through, except a live candidate (one the
search is already accumulating, which its per-trajectory check admits
whatever its bound): the search refuses such a leaf with one compare
(:meth:`SignatureFilter.page_min`, and :meth:`~SignatureFilter.page_minima`
for all of an expanded node's leaf children at once), and checks the
live candidates only on the pages that compare refuses.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ..exceptions import QueryError
from .signature import TrajectorySignatures

__all__ = ["SignatureFilter", "DEFAULT_PROBES"]

#: Number of midpoint probes per bound evaluation.  More probes tighten
#: the Lipschitz slack (the subintervals shrink) at linear cost.
DEFAULT_PROBES = 32

#: Sidecar rows per numpy pass: bounds the ``[probes, rows]`` work
#: arrays at a few hundred kilobytes each however large the store is.
_ROW_BLOCK = 1024


class SignatureFilter:
    """Per-query evaluator of the signature lower bound.

    One instance is built per ``(query, period, vmax)`` triple — the
    engine creates it at the top of each search — and memoises the
    per-trajectory bounds, so repeated checks against a tightening
    threshold cost one lookup.
    """

    __slots__ = (
        "sigs",
        "query",
        "t_start",
        "t_end",
        "vmax",
        "probes",
        "checks",
        "pruned",
        "_bounds",
        "_page_min",
        "_qpos",
    )

    def __init__(
        self,
        sigs: TrajectorySignatures,
        query,
        t_start: float,
        t_end: float,
        vmax: float,
        *,
        probes: int = DEFAULT_PROBES,
    ) -> None:
        if not vmax >= 0.0:  # NaN too
            raise QueryError(f"vmax must be a non-negative number, got {vmax}")
        if probes < 1:
            raise QueryError(f"probes must be >= 1, got {probes}")
        self.sigs = sigs
        self.query = query
        self.t_start = t_start
        self.t_end = t_end
        self.vmax = vmax
        self.probes = probes
        self.checks = 0
        self.pruned = 0
        # One bound per sidecar row and the least per leaf page, all
        # computed on the first lookup.
        self._bounds: list[float] | None = None
        self._page_min = None  # ndarray, one slot per leaf page and one past
        self._qpos: dict[tuple[float, float], tuple[list, list]] = {}

    # ------------------------------------------------------------------
    # pruning interface
    # ------------------------------------------------------------------
    def should_prune(self, tid: int, threshold: float) -> bool:
        """True when the signature certifies ``DISSIM > threshold``.

        Strict comparison: equality never prunes, mirroring the strict
        inequalities of Heuristics 1/2, so a pruned candidate provably
        cannot displace any answer-set member.
        """
        self.checks += 1
        lb = self.bound(tid)
        if lb is not None and lb > threshold:
            self.pruned += 1
            return True
        return False

    def page_tids(self, page_id: int):
        return self.sigs.page_tids(page_id)

    def bound(self, tid: int) -> float | None:
        """Memoised lower bound for one trajectory (``None`` when the
        sidecar has no signature for it — never prune then)."""
        pos = self.sigs.position(tid)
        if pos is None:
            return None
        if self._bounds is None:
            self._bounds, self._page_min = self._probe_bounds()
        return self._bounds[pos]

    def page_min(self, page_id: int) -> float | None:
        """The least bound of a leaf page's trajectories: ``None`` for
        a page the sidecar does not know, ``-inf`` when one of its
        trajectories has no signature, ``inf`` for a page of none.
        Above the threshold, every trajectory on the page is settled
        or certified out, unless it is a live candidate."""
        slot = self.sigs.page_slot(page_id)
        if slot is None:
            return None
        return self._minima()[slot]

    def page_minima(self, page_ids):
        """:meth:`page_min` of many pages at once (an ``int64`` array
        in, a float64 array out), ``-inf`` for a page the sidecar does
        not know, so that no compare refuses it."""
        import numpy as np

        leaf_pages = self.sigs.pass_columns(np).leaf_pages
        slots = np.searchsorted(leaf_pages, page_ids)
        known = slots < len(leaf_pages)
        known[known] = leaf_pages[slots[known]] == page_ids[known]
        slots[~known] = len(leaf_pages)
        return self._minima().take(slots)

    def _minima(self):
        if self._page_min is None:
            self._bounds, self._page_min = self._probe_bounds()
        return self._page_min

    # ------------------------------------------------------------------
    # bound evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, kt, kx, ky, radii) -> float:
        """One row's bound, one probe at a time: the scalar reference
        :meth:`_probe_bounds` is held to, bit for bit."""
        if len(kt) < 2:
            return 0.0
        lo = kt[0] if kt[0] > self.t_start else self.t_start
        hi = kt[-1] if kt[-1] < self.t_end else self.t_end
        if lo >= hi:
            return 0.0
        return self._probe_bound_python(kt, kx, ky, radii, lo, hi)

    def _probe_times(self, lo: float, hi: float) -> tuple[float, list[float]]:
        span = hi - lo
        m = self.probes
        length = span / m
        return length, [lo + (j + 0.5) * length for j in range(m)]

    def _query_positions(self, lo: float, hi: float) -> tuple[list, list]:
        # Scalar interpolation against the query polyline at the probe
        # times of ``[lo, hi]``, for the numpy pass and the reference
        # alike — identical values by construction.  Memoised by probe
        # window:
        # trajectories spanning the whole query period (the common
        # case) share one evaluation.
        cached = self._qpos.get((lo, hi))
        if cached is not None:
            return cached
        qx: list[float] = []
        qy: list[float] = []
        for t in self._probe_times(lo, hi)[1]:
            p = self.query.position_at(t)
            qx.append(p.x)
            qy.append(p.y)
        self._qpos[(lo, hi)] = (qx, qy)
        return qx, qy

    def _probe_bound_python(self, kt, kx, ky, radii, lo, hi) -> float:
        length, times = self._probe_times(lo, hi)
        qx, qy = self._query_positions(lo, hi)
        vmax = self.vmax
        cap = vmax * length * 0.5
        last = len(kt) - 2
        contributions = []
        for j, t in enumerate(times):
            idx = bisect_right(kt, t) - 1
            if idx < 0:
                idx = 0
            elif idx > last:
                idx = last
            frac = (t - kt[idx]) / (kt[idx + 1] - kt[idx])
            px = kx[idx] + frac * (kx[idx + 1] - kx[idx])
            py = ky[idx] + frac * (ky[idx + 1] - ky[idx])
            dx = qx[j] - px
            dy = qy[j] - py
            d = math.sqrt(dx * dx + dy * dy) - radii[idx]
            if d < 0.0:
                d = 0.0
            if vmax > 0.0:
                if d >= cap:
                    c = d * length - vmax * length * length * 0.25
                else:
                    c = d * d / vmax
            else:
                c = d * length
            contributions.append(c)
        total = 0.0
        for c in contributions:
            total += c
        return total

    def _probe_bounds(self) -> tuple[list[float], "numpy.ndarray"]:
        """The bound of every sidecar row, each value bit-equal to
        :meth:`_evaluate` on that row's knots, and the least bound of
        each leaf page's trajectories (and ``-inf`` in one slot past
        them, for a page the sidecar does not know).  Work arrays are
        probe-major — ``[probes, rows]`` — so each per-probe step runs
        over contiguous rows; rows go through in blocks of
        ``_ROW_BLOCK``.  Nothing returned or kept views the columns."""
        import numpy as np

        sigs = self.sigs
        kt, kx, ky, _radii, offsets = sigs.knot_columns(np)
        columns = sigs.pass_columns(np)
        rows, knot_row = columns.rows, columns.knot_row
        dt, dx, dy, radius = columns.dt, columns.dx, columns.dy, columns.radius
        m = self.probes
        vmax = self.vmax
        bounds = np.zeros(len(offsets))
        bounds[-1] = -np.inf  # the row of a leaf tid without a signature
        first, last = columns.first, columns.last
        lo = np.where(first > self.t_start, first, self.t_start)
        hi = np.where(last < self.t_end, last, self.t_end)
        covered = lo < hi
        if not covered.all():
            rows, lo, hi = rows[covered], lo[covered], hi[covered]
        length = (hi - lo) / m

        # Every knot of a covered row, with the row's place in ``rows``
        # (ascending, as the knots are stored), and how many of its
        # row's probe times lie strictly below it.
        if len(rows) == len(offsets) - 1:  # every row: places are rows
            knot_place, knot_t = knot_row, kt
        else:
            place = np.full(len(offsets) - 1, -1)
            place[rows] = np.arange(len(rows))
            knot_place = place.take(knot_row)
            knots = np.flatnonzero(knot_place >= 0)
            knot_place = knot_place.take(knots)
            knot_t = kt.take(knots)
        if len(rows) and lo.min() == lo.max() and hi.min() == hi.max():
            below = self._probes_below(knot_t, lo[0], length[0])
        else:
            below = self._probes_below(
                knot_t, lo.take(knot_place), length.take(knot_place)
            )

        steps = (np.arange(m) + 0.5)[:, None]
        for at in range(0, len(rows), _ROW_BLOCK):
            block = slice(at, at + _ROW_BLOCK)
            row, b_lo, b_length = rows[block], lo[block], length[block]
            width = len(row)
            qx, qy = self._query_positions_block(b_lo, hi[block])
            if qx.shape[1] == 1:  # one window: probe times as a column
                b_length = b_length[0]
                times = b_lo[0] + steps * b_length
            else:
                times = b_lo + steps * b_length

            # bisect_right(row's knots, t) for every probe at once: a
            # knot is at or below probe ``j`` exactly when at most ``j``
            # of its row's probes lie strictly below it, so the counts
            # are running sums over a histogram of ``below``.
            k0, k1 = np.searchsorted(knot_place, (at, at + width))
            slots = below[k0:k1] * width + (knot_place[k0:k1] - at)
            known = np.bincount(slots, minlength=(m + 1) * width)
            known = known.reshape(m + 1, width).cumsum(axis=0)[:m]
            known -= 1
            seg = np.maximum(known, 0, out=known)
            np.minimum(seg, offsets[row + 1] - offsets[row] - 2, out=seg)
            seg += offsets[row]

            # x_i + frac * (x_{i+1} - x_i), as the scalar path; the
            # in-place steps only reuse buffers.
            frac = np.subtract(times, kt.take(seg), out=np.empty(seg.shape))
            frac /= dt.take(seg)
            ex = dx.take(seg)
            ex *= frac
            ex += kx.take(seg)
            np.subtract(qx, ex, out=ex)
            ey = dy.take(seg)
            ey *= frac
            ey += ky.take(seg)
            np.subtract(qy, ey, out=ey)
            ex *= ex
            ey *= ey
            ex += ey
            d = np.sqrt(ex, out=ex)
            d -= radius.take(seg)
            np.maximum(d, 0.0, out=d)
            if vmax > 0.0:
                far = d * b_length - vmax * b_length * b_length * 0.25
                near = d * d / vmax
                contributions = np.where(d >= vmax * b_length * 0.5, far, near)
            else:
                contributions = d * b_length
            # Probe by probe, matching the scalar path's left-to-right
            # accumulation (numpy's pairwise summation would reorder it).
            total = np.zeros(width)
            for contribution in contributions:
                total += contribution
            bounds[row] = total

        # One slot past the pages: a page the sidecar does not know.
        page_min = np.full(len(columns.page_filled) + 1, np.inf)
        page_min[-1] = -np.inf
        if len(columns.page_starts):
            page_min[:-1][columns.page_filled] = np.minimum.reduceat(
                bounds.take(columns.page_rows), columns.page_starts
            )
        return bounds[:-1].tolist(), page_min

    def _probes_below(self, t, lo, length):
        """For each knot time in ``t``, how many of its row's probe
        times ``lo + (j + 0.5) * length`` lie strictly below it: the
        inverse of that formula rounded up, then moved a probe at a
        time until exact comparisons against the probe times, computed
        as the pass computes them, agree.  Returns ``int64`` counts."""
        import numpy as np

        m = self.probes
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            below = np.ceil((t - lo) / length - 0.5)
        # fmax/fmin drop a NaN (a zero-length window): the loop fixes it.
        below = np.fmin(np.fmax(below, 0.0), m)
        while True:
            # ``(below - 1) + 0.5`` and ``below - 0.5`` are one double.
            over = (below > 0.0) & (lo + (below - 0.5) * length >= t)
            under = (below < m) & (lo + (below + 0.5) * length < t)
            if not (over.any() or under.any()):
                return below.astype(np.int64)
            below += under
            below -= over

    def _query_positions_block(self, lo, hi):
        """Query coordinates at a block's probe times: one scalar
        evaluation per distinct ``(lo, hi)`` window (the memo of
        :meth:`_query_positions`), fanned out to ``[probes, rows]`` —
        or, when every row shares one window (rows spanning the whole
        query period, the common case, told by two min/max compares
        without visiting the rows), ``[probes, 1]`` columns that
        broadcast against the rows."""
        import numpy as np

        if lo.min() == lo.max() and hi.min() == hi.max():
            qx, qy = self._query_positions(float(lo[0]), float(hi[0]))
            return np.array(qx)[:, None], np.array(qy)[:, None]
        windows = list(zip(lo.tolist(), hi.tolist()))
        slots = {w: i for i, w in enumerate(dict.fromkeys(windows))}
        qpos = [self._query_positions(*window) for window in slots]
        qx = np.array([x for x, _y in qpos]).T
        qy = np.array([y for _x, y in qpos]).T
        if len(slots) == 1:
            return qx, qy
        fan = [slots[window] for window in windows]
        return qx[:, fan], qy[:, fan]
