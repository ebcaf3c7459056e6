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
times as ``lo + (j + 0.5) * L``, the knot index by bisection,
interpolation as ``x_i + frac * (x_{i+1} - x_i)``, ``sqrt(dx*dx +
dy*dy)``, per-probe hinge, the ``M`` contributions added left to
right), so the two are bit-equal; the tests hold the pass to it.
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
        # One bound per sidecar row, all computed on the first lookup.
        self._bounds: list[float] | None = None
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
            self._bounds = self._probe_bounds()
        return self._bounds[pos]

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

    def _probe_bounds(self) -> list[float]:
        """The bound of every sidecar row, each value bit-equal to
        :meth:`_evaluate` on that row's knots.  Work arrays are
        probe-major — ``[probes, rows]`` — so each per-probe step runs
        over contiguous rows; rows go through in blocks of
        ``_ROW_BLOCK``.  Nothing returned or kept views the columns."""
        import numpy as np

        kt, kx, ky, radii, offsets = self.sigs.knot_columns(np)
        m = self.probes
        vmax = self.vmax
        starts = offsets[:-1]
        counts = offsets[1:] - starts
        bounds = np.zeros(len(counts))
        rows = np.flatnonzero(counts >= 2)
        first = kt[starts[rows]]
        last = kt[offsets[1:][rows] - 1]
        lo = np.where(first > self.t_start, first, self.t_start)
        hi = np.where(last < self.t_end, last, self.t_end)
        covered = lo < hi
        rows, lo, hi = rows[covered], lo[covered], hi[covered]
        steps = (np.arange(m) + 0.5)[:, None]
        for at in range(0, len(rows), _ROW_BLOCK):
            block = slice(at, at + _ROW_BLOCK)
            row, b_lo, b_hi = rows[block], lo[block], hi[block]
            start, count = starts[row], counts[row]
            length = (b_hi - b_lo) / m
            times = b_lo + steps * length
            qx, qy = self._query_positions_block(b_lo, b_hi)

            # bisect_right(row's knots, t) for every probe at once, as
            # a count: ``known`` knots are <= t, and each halving step
            # asks whether ``step`` more are (knots ascend, so looking
            # at the last of them answers for all).
            known = np.zeros(times.shape, dtype=np.int64)
            before_row = start - 1
            step = 1 << (int(count.max()).bit_length() - 1)
            while step:
                reach = known + step
                # Past the row's end the clamped read is masked out.
                more = kt[before_row + np.minimum(reach, count)] <= times
                more &= reach <= count
                known += step * more
                step >>= 1
            idx = np.clip(known - 1, 0, count - 2)

            seg = start + idx
            t0 = kt[seg]
            frac = (times - t0) / (kt[seg + 1] - t0)
            x0 = kx[seg]
            y0 = ky[seg]
            dx = qx - (x0 + frac * (kx[seg + 1] - x0))
            dy = qy - (y0 + frac * (ky[seg + 1] - y0))
            # The radii column omits one slot per row.
            d = np.sqrt(dx * dx + dy * dy) - radii[seg - row]
            np.maximum(d, 0.0, out=d)
            if vmax > 0.0:
                far = d * length - vmax * length * length * 0.25
                near = d * d / vmax
                contributions = np.where(d >= vmax * length * 0.5, far, near)
            else:
                contributions = d * length
            # Probe by probe, matching the scalar path's left-to-right
            # accumulation (numpy's pairwise summation would reorder it).
            total = np.zeros(len(row))
            for contribution in contributions:
                total += contribution
            bounds[row] = total
        return bounds.tolist()

    def _query_positions_block(self, lo, hi):
        """Query coordinates at a block's probe times: one scalar
        evaluation per distinct ``(lo, hi)`` window (the memo of
        :meth:`_query_positions`), fanned out to ``[probes, rows]`` —
        or, when every row shares one window (rows spanning the whole
        query period, the common case), ``[probes, 1]`` columns that
        broadcast against the rows."""
        import numpy as np

        windows = list(zip(lo.tolist(), hi.tolist()))
        slots = {w: i for i, w in enumerate(dict.fromkeys(windows))}
        qpos = [self._query_positions(*window) for window in slots]
        qx = np.array([x for x, _y in qpos]).T
        qy = np.array([y for _x, y in qpos]).T
        if len(slots) == 1:
            return qx, qy
        fan = [slots[window] for window in windows]
        return qx[:, fan], qy[:, fan]
