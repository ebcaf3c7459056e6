"""Pruning bounds on the dissimilarity of partially retrieved
trajectories (Sections 3.1-3.2 of the paper).

During a best-first index traversal the search has only seen *some* of
each candidate's line segments.  :class:`PartialDissim` is the
bookkeeping record for one candidate: which sub-intervals of the query
period have been retrieved (with their dissimilarity contribution and
endpoint distances) and which are still gaps.  From it we compute:

* ``OPTDISSIM`` (Definition 3, Lemma 2) — a lower bound assuming the
  object raced towards the query at the maximum possible relative speed
  ``V_max`` inside every gap,
* ``PESDISSIM`` (Definition 4, Lemma 3) — an upper bound assuming it
  fled at ``V_max``,
* ``OPTDISSIMINC`` (Definition 5) — a speed-independent lower bound
  valid when index nodes are visited in increasing MINDIST order: no
  unseen segment can be closer than the current node's MINDIST,
* ``MINDISSIMINC`` (Definition 6, Lemma 4) — the node-level lower bound
  that powers Heuristic 2 / early termination.

Sign note: the paper's printed formula for the V-shape meeting time
``t_k^o`` has the distance difference reversed; we use the derived form
``mid + (D(t_k) - D(t_{k+1})) / (2 V_max)`` (see DESIGN.md).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from ..exceptions import QueryError
from .ldd import ldd
from .trinomial import IntegralResult

__all__ = ["CoveredInterval", "PartialDissim", "mindissim_inc"]

# Two interval endpoints closer than this (relative to the query period)
# are considered identical when checking completeness.
_REL_EPS = 1e-9

_LO = itemgetter(0)


@dataclass(frozen=True, slots=True)
class CoveredInterval:
    """One retrieved stretch ``[t_lo, t_hi]`` of a candidate trajectory:
    its dissimilarity contribution and the inter-object distances at the
    two endpoints."""

    t_lo: float
    t_hi: float
    integral: IntegralResult
    d_lo: float
    d_hi: float


class PartialDissim:
    """Dissimilarity knowledge about one partially retrieved candidate.

    Intervals are added as their segments are fetched from the index
    (in any order); they must be non-overlapping (each line segment is
    stored once).  Adjacent intervals are coalesced so gap enumeration
    stays linear.

    The coverage is kept as sorted rows of plain floats
    ``(lo, hi, approx, error_bound, d_lo, d_hi)``; every bound and
    every inspection method is a view of those rows.
    """

    __slots__ = ("t_start", "t_end", "_rows", "_eps")

    def __init__(self, t_start: float, t_end: float) -> None:
        if not t_start < t_end:
            raise QueryError(f"empty query period [{t_start}, {t_end}]")
        self.t_start = t_start
        self.t_end = t_end
        self._rows: list[tuple[float, float, float, float, float, float]] = []
        self._eps = (t_end - t_start) * _REL_EPS

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_interval(
        self,
        t_lo: float,
        t_hi: float,
        integral: IntegralResult,
        d_lo: float,
        d_hi: float,
    ) -> bool:
        """:meth:`add` with the contribution as an :class:`IntegralResult`."""
        return self.add(
            t_lo, t_hi, integral.approx, integral.error_bound, d_lo, d_hi
        )

    def add(
        self,
        t_lo: float,
        t_hi: float,
        approx: float,
        error_bound: float,
        d_lo: float,
        d_hi: float,
    ) -> bool:
        """Record a retrieved stretch; raises on overlap with existing
        coverage beyond floating-point slack.  Returns ``True`` when the
        interval was actually added, ``False`` when it was a duplicate
        or a sub-resolution sliver absorbed by earlier coalescing (so
        callers tracking the retrieved windows never double-count).

        A new row merges with a neighbour closer than the slack; the
        merged contribution is ``(prev + new) + next``."""
        eps = self._eps
        if not (self.t_start - eps <= t_lo < t_hi <= self.t_end + eps):
            raise QueryError(
                f"interval [{t_lo}, {t_hi}] outside query period "
                f"[{self.t_start}, {self.t_end}]"
            )
        rows = self._rows
        idx = bisect_right(rows, t_lo, key=_LO)
        prev = rows[idx - 1] if idx else None
        if prev is not None:
            if t_hi <= prev[1] + eps:
                # A sub-resolution sliver already swallowed by earlier
                # coalescing (timestamps one ulp apart): absorb it.
                return False
            if prev[1] > t_lo + eps:
                raise QueryError(
                    f"interval [{t_lo}, {t_hi}] overlaps already retrieved "
                    f"[{prev[0]}, {prev[1]}]"
                )
        nxt = rows[idx] if idx < len(rows) else None
        if nxt is not None and nxt[0] < t_hi - eps:
            if t_lo >= nxt[0] - eps and t_hi <= nxt[1] + eps:
                return False  # duplicate of an existing interval
            raise QueryError(
                f"interval [{t_lo}, {t_hi}] overlaps already retrieved "
                f"[{nxt[0]}, {nxt[1]}]"
            )
        start = end = idx
        if prev is not None and t_lo - prev[1] <= eps:
            start -= 1
            t_lo, approx, error_bound, d_lo = (
                prev[0], prev[2] + approx, prev[3] + error_bound, prev[4]
            )
        if nxt is not None and nxt[0] - t_hi <= eps:
            end += 1
            t_hi, approx, error_bound, d_hi = (
                nxt[1], approx + nxt[2], error_bound + nxt[3], nxt[5]
            )
        rows[start:end] = ((t_lo, t_hi, approx, error_bound, d_lo, d_hi),)
        return True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> list[CoveredInterval]:
        return [
            CoveredInterval(lo, hi, IntegralResult(a, e), d_lo, d_hi)
            for lo, hi, a, e, d_lo, d_hi in self._rows
        ]

    def covered_duration(self) -> float:
        return sum(row[1] - row[0] for row in self._rows)

    def is_complete(self) -> bool:
        """True when the coverage spans the whole query period."""
        rows = self._rows
        if len(rows) != 1:
            return False
        row = rows[0]
        return (
            row[0] <= self.t_start + self._eps
            and row[1] >= self.t_end - self._eps
        )

    def _sums(self) -> tuple[float, float]:
        """The retrieved ``(approx, error_bound)`` totals, summed in
        time order from ``0.0``."""
        approx = error_bound = 0.0
        for row in self._rows:
            approx += row[2]
            error_bound += row[3]
        return approx, error_bound

    def retrieved_integral(self) -> IntegralResult:
        """Sum of the retrieved contributions (the fixed part of every
        bound)."""
        return IntegralResult(*self._sums())

    def gaps(self) -> list[tuple[float, float, float | None, float | None]]:
        """The uncovered stretches as ``(lo, hi, d_at_lo, d_at_hi)``;
        a distance is ``None`` at the query-period boundary where no
        sample has been seen (the one-sided gap cases of Definition 3).
        """
        out: list[tuple[float, float, float | None, float | None]] = []
        eps = self._eps
        cursor = self.t_start
        prev_d: float | None = None
        for lo, hi, _a, _e, d_lo, d_hi in self._rows:
            if lo - cursor > eps:
                out.append((cursor, lo, prev_d, d_lo))
            cursor = hi
            prev_d = d_hi
        if self.t_end - cursor > eps:
            out.append((cursor, self.t_end, prev_d, None))
        return out

    # ------------------------------------------------------------------
    # speed-dependent bounds
    # ------------------------------------------------------------------
    def bounds(
        self, vmax: float, opt_vmax: float | None = None
    ) -> tuple[float, float]:
        """``(OPTDISSIM, PESDISSIM)`` in one pass over the rows and
        their gaps (Definitions 3-4, Lemmas 2-3); OPTDISSIM under
        ``opt_vmax`` when it is given (a tighter speed bound that holds
        for this pair), else both under ``vmax``.

        Each starts from the *certified* end of the retrieved integral
        — lower for OPTDISSIM, upper for PESDISSIM — so the bracket
        survives the trapezoid approximation error; the gap terms
        follow left to right."""
        if opt_vmax is None:
            opt_vmax = vmax
        if not (vmax >= 0.0 and opt_vmax >= 0.0):
            raise QueryError(f"negative vmax {vmax} or {opt_vmax}")
        approx, error_bound = self._sums()
        opt = approx - error_bound
        pes = approx
        eps = self._eps
        cursor = self.t_start
        prev_d = None
        for lo, hi, _a, _e, d_lo, d_hi in self._rows:
            if lo - cursor > eps:
                opt += _optimistic_gap(cursor, lo, prev_d, d_lo, opt_vmax)
                pes += _pessimistic_gap(cursor, lo, prev_d, d_lo, vmax)
            cursor = hi
            prev_d = d_hi
        if self.t_end - cursor > eps:
            opt += _optimistic_gap(cursor, self.t_end, prev_d, None, opt_vmax)
            pes += _pessimistic_gap(cursor, self.t_end, prev_d, None, vmax)
        return max(opt, 0.0), pes

    def optdissim(self, vmax: float) -> float:
        """Lower bound on DISSIM (Definition 3 / Lemma 2); see
        :meth:`bounds`."""
        return self.bounds(vmax)[0]

    def pesdissim(self, vmax: float) -> float:
        """Upper bound on DISSIM (Definition 4 / Lemma 3); see
        :meth:`bounds`."""
        return self.bounds(vmax)[1]

    # ------------------------------------------------------------------
    # speed-independent bounds
    # ------------------------------------------------------------------
    def optdissim_inc(self, mindist: float) -> float:
        """Lower bound on DISSIM given that every unseen segment is at
        least ``mindist`` away (Definition 5): retrieved parts count
        with their certified lower value, every gap as
        ``mindist * gap_length``."""
        if not mindist >= 0.0:
            raise QueryError(f"negative mindist {mindist}")
        approx, error_bound = self._sums()
        total = approx - error_bound
        for lo, hi, _d1, _d2 in self.gaps():
            total += mindist * (hi - lo)
        return max(total, 0.0)


def mindissim_inc(
    mindist: float,
    t_start: float,
    t_end: float,
    partials: list[PartialDissim] | None = None,
) -> float:
    """MINDISSIMINC of an index node (Definition 6).

    ``mindist`` is MINDIST(Q, N) of the node being processed; nodes are
    assumed to be visited in increasing MINDIST order.  ``partials`` is
    the set ``S_C`` of not-yet-completed candidates (their
    OPTDISSIMINC's participate in the minimum).
    """
    best = mindist * (t_end - t_start)
    if partials:
        best = min(
            best, min(p.optdissim_inc(mindist) for p in partials)
        )
    return best


# ----------------------------------------------------------------------
# gap evaluation helpers
# ----------------------------------------------------------------------
def _meeting_time(
    lo: float, hi: float, d1: float, d2: float, vmax: float
) -> float:
    """Time at which two ``V_max``-sloped legs anchored at ``(lo, d1)``
    and ``(hi, d2)`` meet: ``mid + (d1 - d2) / (2 vmax)``, clamped into
    the gap (the clamp only matters for user-supplied speeds smaller
    than the true maximum)."""
    mid = (lo + hi) / 2.0
    if vmax <= 0.0:
        return mid
    return min(max(mid + (d1 - d2) / (2.0 * vmax), lo), hi)


def _optimistic_gap(
    lo: float, hi: float, d1: float | None, d2: float | None, vmax: float
) -> float:
    """Smallest possible distance-integral over a gap ``[lo, hi]`` whose
    boundary distances are ``d1`` (at ``lo``, None if unknown) and
    ``d2`` (at ``hi``, None if unknown)."""
    span = hi - lo
    if d1 is None and d2 is None:
        # Nothing retrieved at all: the object may sit on the query.
        return 0.0
    if d1 is None:
        # Leading gap: approach read backwards from the known end.
        return ldd(d2, -vmax, span)
    if d2 is None:
        # Trailing gap: approach forwards from the known start.
        return ldd(d1, -vmax, span)
    t_meet = _meeting_time(lo, hi, d1, d2, vmax)
    return ldd(d1, -vmax, t_meet - lo) + ldd(d2, -vmax, hi - t_meet)


def _pessimistic_gap(
    lo: float, hi: float, d1: float | None, d2: float | None, vmax: float
) -> float:
    """Largest possible distance-integral over a gap (diverging at
    ``V_max``).  With no boundary distance known at all, nothing
    constrains where the object is, so the bound is infinite (the
    search only evaluates PESDISSIM for candidates it has seen at
    least one segment of)."""
    span = hi - lo
    if d1 is None and d2 is None:
        return math.inf
    if d1 is None:
        return ldd(d2, vmax, span)
    if d2 is None:
        return ldd(d1, vmax, span)
    mid = (lo + hi) / 2.0
    if vmax <= 0.0:
        t_peak = mid
    else:
        t_peak = min(max(mid + (d2 - d1) / (2.0 * vmax), lo), hi)
    return ldd(d1, vmax, t_peak - lo) + ldd(d2, vmax, hi - t_peak)
