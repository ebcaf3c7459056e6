"""Hot-path kernels for the BFMST search.

The scalar DISSIM machinery (:mod:`repro.distance.dissim`,
:mod:`repro.distance.trinomial`) evaluates one merged-timestamp piece
at a time through segment and trinomial objects; during a search that
cost dominates — every qualifying leaf row needs a segment DISSIM and
every node expansion a string of MINDIST evaluations.  This module
holds the former's one kernel; the latter lives in
:mod:`repro.index.mindist`.

A *window* is the kernel's unit of work: ``(lo, hi, x1, y1, t1, x2, y2,
t2)`` — integrate the distance between the query and the segment
``(x1, y1, t1) -> (x2, y2, t2)`` over ``[lo, hi]``.  It is a leaf row
(:func:`repro.index.node.payload_rows`) clipped to the query period:
the BFMST sweep builds it, a candidate keeps it for the exact
refinement, and a shard answer ships it as it is.
:func:`segment_dissim_batch` takes ``(segment, lo, hi)`` items instead
and runs the window kernel on their windows.

:func:`window_dissim_batch` is one fused scalar loop over the pieces of
every window: the trinomial coefficients, the trapezoid value and its
Lemma 1 bound (or, with ``exact=True``, the closed-form integral) are
computed inline on plain floats, with the operations of
:func:`repro.distance.dissim.segment_dissim` in the same order — so
the numbers agree with that reference to the last bit.  There is no
numpy twin: at the few windows per call a search sends, a vectorised
pass costs more than the loop it replaces.

Each search pass has one implementation, and the other two are numpy
passes: MINDIST (:func:`repro.index.mindist.mindist_batch`, one batch
per expanded node) and the signature filter's bound
(:class:`repro.filter.SignatureFilter`, one pass over the whole
sidecar).  Each beat a loop over its scalar reference on some
workload, so numpy is a dependency and the loops are gone; the scalar
references stay for the tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from ..exceptions import QueryError, TemporalCoverageError
from ..geometry import STPoint, STSegment
from ..obs import state as _obs
from ..trajectory import Trajectory
from .trinomial import _A_EPS, DistanceTrinomial, IntegralResult

__all__ = [
    "segment_window",
    "window_dissim_batch",
    "segment_dissim_batch",
]


# ----------------------------------------------------------------------
# segment DISSIM
# ----------------------------------------------------------------------

def segment_window(seg: STSegment, t_lo: float, t_hi: float) -> tuple:
    """The window of ``seg`` over ``[t_lo, t_hi]``."""
    s, e = seg.start, seg.end
    return (t_lo, t_hi, s.x, s.y, s.t, e.x, e.y, e.t)


def segment_dissim_batch(
    q: Trajectory, items: Sequence[tuple[STSegment, float, float]]
) -> list[tuple[IntegralResult, float, float]]:
    """:func:`window_dissim_batch` over ``(segment, t_lo, t_hi)`` items:
    the same windows, the same bits."""
    return window_dissim_batch(q, [segment_window(*item) for item in items])


def window_dissim_batch(
    q: Trajectory, windows: Sequence[tuple], exact: bool = False
) -> list[tuple[IntegralResult, float, float]]:
    """:func:`repro.distance.dissim.segment_dissim` of many windows.

    Returns one ``(integral, d_start, d_end)`` triple per window,
    bit-equal to the scalar function on the window's segment, its
    typed errors included.  Each window is split at the query's
    interior sampling instants; a piece whose midpoint rounds onto an
    endpoint is dropped, as the scalar loop drops it.  ``exact=True``
    sums the closed-form integral per piece (error bound zero) — the
    refinement's mode.
    """
    reg = _obs.ACTIVE.registry if _obs.ACTIVE is not None else None
    if reg is not None:
        if exact:
            reg.inc("distance.segment_windows_exact", len(windows))
        else:
            reg.inc("distance.kernel_batches")
            reg.inc("distance.kernel_segments", len(windows))
            reg.inc("distance.segment_windows", len(windows))

    cols = q.columns()
    qt, qx, qy = cols.t, cols.x, cols.y
    q_start, q_end = q.t_start, q.t_end
    sqrt = math.sqrt
    isfinite = math.isfinite
    trapezoids = 0
    out: list[tuple[IntegralResult, float, float]] = []
    for window in windows:
        t_lo, t_hi, sx0, sy0, sts, sxe, sye, ste = window
        if not (sts <= t_lo < t_hi <= ste):
            raise QueryError(
                f"window [{t_lo}, {t_hi}] outside segment span [{sts}, {ste}]"
            )
        if not (q_start <= t_lo and t_hi <= q_end):
            raise TemporalCoverageError(
                f"query {q.object_id!r} does not cover [{t_lo}, {t_hi}]"
            )
        sdur = ste - sts
        total_a = 0.0
        total_e = 0.0
        d_start = d_end = math.nan
        # Piece k spans query segment k: the first starts at t_lo, the
        # last ends at t_hi, the ones between are whole query segments.
        last = bisect_left(qt, t_hi) - 1
        lo = t_lo
        for k in range(bisect_right(qt, t_lo) - 1, last + 1):
            hi = t_hi if k == last else qt[k + 1]
            mid = (lo + hi) / 2.0
            if not (lo < mid < hi):
                lo = hi
                continue
            # Both sides clipped to [lo, hi], with STSegment.position_at's
            # exact endpoint cases.
            qts = qt[k]
            qte = qt[k + 1]
            qx0 = qx[k]
            qy0 = qy[k]
            qxe = qx[k + 1]
            qye = qy[k + 1]
            qdur = qte - qts
            if lo == qts:
                qx_lo = qx0
                qy_lo = qy0
            else:
                frac = (lo - qts) / qdur
                qx_lo = qx0 + frac * (qxe - qx0)
                qy_lo = qy0 + frac * (qye - qy0)
            if hi == qte:
                qx_hi = qxe
                qy_hi = qye
            else:
                frac = (hi - qts) / qdur
                qx_hi = qx0 + frac * (qxe - qx0)
                qy_hi = qy0 + frac * (qye - qy0)
            if lo == sts:
                sx_lo = sx0
                sy_lo = sy0
            else:
                frac = (lo - sts) / sdur
                sx_lo = sx0 + frac * (sxe - sx0)
                sy_lo = sy0 + frac * (sye - sy0)
            if hi == ste:
                sx_hi = sxe
                sy_hi = sye
            else:
                frac = (hi - sts) / sdur
                sx_hi = sx0 + frac * (sxe - sx0)
                sy_hi = sy0 + frac * (sye - sy0)

            # Trinomial of the clipped pair (velocities over the
            # clipped span, as distance_trinomial_coefficients).
            span = hi - lo
            dx0 = qx_lo - sx_lo
            dy0 = qy_lo - sy_lo
            dvx = (qx_hi - qx_lo) / span - (sx_hi - sx_lo) / span
            dvy = (qy_hi - qy_lo) / span - (sy_hi - sy_lo) / span
            a = dvx * dvx + dvy * dvy
            b = 2.0 * (dx0 * dvx + dy0 * dvy)
            c = dx0 * dx0 + dy0 * dy0
            lo = hi

            # D(0) and D(span) as DistanceTrinomial.value_at evaluates
            # them (``0.0 if f < 0.0 else f`` is ``max(f, 0.0)``, NaN
            # included).
            f0 = (a * 0.0 + b) * 0.0 + c
            d0 = sqrt(0.0 if f0 < 0.0 else f0)
            f1 = (a * span + b) * span + c
            d1 = sqrt(0.0 if f1 < 0.0 else f1)
            if d_start != d_start:
                d_start = d0
            d_end = d1
            if exact:
                total_a += DistanceTrinomial(a, b, c).exact_integral(0.0, span)
                continue

            # One-panel trapezoid with the Lemma 1 bound.
            approx = 0.5 * (d0 + d1) * span
            bound = 0.0
            if not a <= _A_EPS:
                flex = -b / (2.0 * a)
                disc = 4.0 * a * c - b * b
                if disc <= 0.0 and 0.0 < flex < span:
                    # Perfect square with an interior flex: D has a
                    # kink there, the curvature bound does not apply —
                    # the scalar code certifies the piece against the
                    # (cheap) closed-form integral.
                    res = DistanceTrinomial(a, b, c).trapezoid_integral(0.0, span)
                    total_a += res.approx
                    total_e += res.error_bound
                    continue
                if disc <= 0.0:
                    curvature = 0.0
                else:
                    if 0.0 <= flex <= span:
                        tau = flex
                    else:
                        tau = 0.0 if flex < 0.0 else span
                    f = (a * tau + b) * tau + c
                    if f < 0.0:
                        f = 0.0
                    f15 = f * sqrt(f)
                    curvature = math.inf if f15 == 0.0 else disc / (4.0 * f15)
                bound = span * span * span / 12.0 * curvature
                if not isfinite(bound):
                    # Objects collide inside the piece: the trapezoid
                    # value itself is always a valid width.
                    bound = approx
                if approx < bound:
                    bound = approx
            trapezoids += 1
            total_a += approx
            total_e += bound
        if d_start != d_start:
            d_start, d_end = _degenerate_window(q, window)
        out.append((IntegralResult(total_a, total_e), d_start, d_end))
    if reg is not None and trapezoids:
        reg.inc("distance.trapezoid_integrals", trapezoids)
    return out


def _degenerate_window(q: Trajectory, window: tuple) -> tuple[float, float]:
    """The scalar fallback endpoint distances, taken directly: for a
    window where every piece sits at float resolution (its integral
    stays zero), or whose first distance overflowed to NaN."""
    t_lo, t_hi, x1, y1, t1, x2, y2, t2 = window
    seg = STSegment(STPoint(x1, y1, t1), STPoint(x2, y2, t2))
    d_start = q.position_at(t_lo).distance_to(seg.position_at(t_lo))
    d_end = q.position_at(t_hi).distance_to(seg.position_at(t_hi))
    return d_start, d_end
