"""Vectorised hot-path kernels for the BFMST search.

The scalar DISSIM machinery (:mod:`repro.distance.dissim`,
:mod:`repro.distance.trinomial`) evaluates one merged-timestamp piece
at a time in pure Python; during a search that cost dominates — every
qualifying leaf row triggers a :func:`segment_dissim` and every node
expansion a string of MINDIST evaluations.  This module batches the
former (the latter lives in :mod:`repro.index.mindist`): the trinomial
coefficients, the trapezoid integral and its Lemma 1 error bound for
*all* pieces of *many* leaf windows are computed in a handful of numpy
passes over the query's columnar view (:meth:`Trajectory.columns`).

A *window* is the kernels' unit of work: ``(lo, hi, x1, y1, t1, x2, y2,
t2)`` — integrate the distance between the query and the segment
``(x1, y1, t1) -> (x2, y2, t2)`` over ``[lo, hi]``.  It is a leaf row
(:func:`repro.index.node.payload_rows`) clipped to the query period:
the BFMST sweep builds it, a candidate keeps it for the exact
refinement, and a shard answer ships it as it is.
:func:`segment_dissim_batch` takes ``(segment, lo, hi)`` items instead
and runs the window kernel on their windows.

The vectorised path replays the scalar arithmetic operation for
operation (same clipping special cases, same accumulation order), so
the numbers agree to the last bit on the regular path; the one
exception is the rare perfect-square piece with an interior flex,
which is delegated to the scalar code.

numpy stays an *optional* extra — the same deferral idiom as
:mod:`repro.distance.fast`.  ``kernels="python"`` (and ``"auto"``
without numpy) selects loop-based batch functions built on the scalar
reference implementations, so the batched call plumbing is exercised,
and trivially answer-identical, on interpreters without numpy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from ..exceptions import QueryError, TemporalCoverageError
from ..geometry import STPoint, STSegment
from ..obs import state as _obs
from ..trajectory import Trajectory
from .dissim import segment_dissim
from .trinomial import _A_EPS, DistanceTrinomial, IntegralResult

__all__ = [
    "KERNEL_MODES",
    "have_numpy",
    "resolve_kernels",
    "segment_window",
    "window_segment",
    "window_dissim_batch",
    "window_dissim_batch_python",
    "segment_dissim_batch",
    "segment_dissim_batch_python",
    "make_segment_dissim_batch",
]

KERNEL_MODES = ("auto", "numpy", "python")

_np = None


def _numpy():
    """Import numpy on first use, memoised; raises an actionable
    :class:`ImportError` when it is not installed."""
    global _np
    if _np is None:
        try:
            import numpy

            # A concurrent *failed* import can hand this thread the
            # half-initialized module object (CPython returns the
            # sys.modules entry it read before waiting on the import
            # lock); probing an attribute rejects it instead of
            # memoising a broken module for the rest of the process.
            numpy.ndarray
        except (ImportError, AttributeError) as exc:
            raise ImportError(
                "kernels='numpy' needs numpy, which is an optional extra: "
                "install it with `pip install numpy` (or the project's "
                "`[test]` extra), or select kernels='python' (or 'auto') "
                "to use the pure-Python reference path."
            ) from exc
        _np = numpy
    return _np


def have_numpy() -> bool:
    """``True`` when the vectorised kernels can run (numpy importable)."""
    try:
        _numpy()
    except ImportError:
        return False
    return True


def resolve_kernels(mode: str) -> str:
    """Resolve a ``kernels=`` choice to a concrete implementation.

    ``"auto"`` picks ``"numpy"`` when numpy is importable and
    ``"python"`` otherwise; ``"numpy"`` raises the actionable
    :class:`ImportError` when numpy is missing rather than silently
    degrading.
    """
    if mode == "auto":
        return "numpy" if have_numpy() else "python"
    if mode == "python":
        return "python"
    if mode == "numpy":
        _numpy()
        return "numpy"
    raise ValueError(
        f"unknown kernels mode {mode!r}; expected one of {KERNEL_MODES}"
    )


# ----------------------------------------------------------------------
# batched segment DISSIM
# ----------------------------------------------------------------------

def segment_window(seg: STSegment, t_lo: float, t_hi: float) -> tuple:
    """The window of ``seg`` over ``[t_lo, t_hi]``."""
    s, e = seg.start, seg.end
    return (t_lo, t_hi, s.x, s.y, s.t, e.x, e.y, e.t)


def window_segment(window) -> STSegment:
    """A window's segment, as the object the scalar code takes."""
    _lo, _hi, x1, y1, t1, x2, y2, t2 = window
    return STSegment(STPoint(x1, y1, t1), STPoint(x2, y2, t2))


def window_dissim_batch_python(
    q: Trajectory, windows: Sequence[tuple]
) -> list[tuple[IntegralResult, float, float]]:
    """Loop-based reference batch: one scalar :func:`segment_dissim`
    per window."""
    return [segment_dissim(q, window_segment(w), w[0], w[1]) for w in windows]


def segment_dissim_batch_python(
    q: Trajectory, items: Sequence[tuple[STSegment, float, float]]
) -> list[tuple[IntegralResult, float, float]]:
    """Loop-based reference batch: one scalar :func:`segment_dissim`
    per ``(segment, t_lo, t_hi)`` item."""
    return [segment_dissim(q, seg, lo, hi) for seg, lo, hi in items]


def segment_dissim_batch(
    q: Trajectory, items: Sequence[tuple[STSegment, float, float]]
) -> list[tuple[IntegralResult, float, float]]:
    """:func:`window_dissim_batch` over ``(segment, t_lo, t_hi)`` items:
    the same windows, the same bits."""
    return window_dissim_batch(q, [segment_window(*item) for item in items])


def window_dissim_batch(
    q: Trajectory, windows: Sequence[tuple]
) -> list[tuple[IntegralResult, float, float]]:
    """Vectorised batch of :func:`repro.distance.dissim.segment_dissim`.

    Computes the dissimilarity contribution of many windows against
    the query in one numpy pass over all their merged-timestamp pieces.
    Returns one ``(integral, d_start, d_end)`` triple per window,
    matching the scalar function's values (bit-equal on the regular
    path; the perfect-square interior-flex piece is delegated to the
    scalar code, so it is bit-equal too).
    """
    np = _numpy()
    reg = _obs.ACTIVE.registry if _obs.ACTIVE is not None else None
    if reg is not None:
        reg.inc("distance.kernel_batches")
        reg.inc("distance.kernel_segments", len(windows))
        reg.inc("distance.segment_windows", len(windows))

    cols = q.columns()
    qt_buf = cols.t

    # Enumerate the non-degenerate pieces of every window, exactly as
    # the scalar loop does: split at the query's interior sampling
    # instants, drop float-resolution slivers.
    piece_lo: list[float] = []
    piece_hi: list[float] = []
    counts: list[int] = []
    per_piece: list[tuple] = []  # each piece's window
    for window in windows:
        t_lo, t_hi, _x0, _y0, ts, _xe, _ye, te = window
        if not (ts <= t_lo < t_hi <= te):
            raise QueryError(
                f"window [{t_lo}, {t_hi}] outside segment span [{ts}, {te}]"
            )
        if not q.covers(t_lo, t_hi):
            raise TemporalCoverageError(
                f"query {q.object_id!r} does not cover [{t_lo}, {t_hi}]"
            )
        n_before = len(piece_lo)
        prev = t_lo
        i0 = bisect_right(qt_buf, t_lo)
        i1 = bisect_left(qt_buf, t_hi)
        for t in qt_buf[i0:i1]:
            mid = (prev + t) / 2.0
            if prev < mid < t:
                piece_lo.append(prev)
                piece_hi.append(t)
            prev = t
        mid = (prev + t_hi) / 2.0
        if prev < mid < t_hi:
            piece_lo.append(prev)
            piece_hi.append(t_hi)
        n = len(piece_lo) - n_before
        counts.append(n)
        if n:
            per_piece.extend([window] * n)

    n_pieces = len(piece_lo)
    if n_pieces == 0:
        # Every window collapsed to float-resolution slivers; the
        # scalar fallback distances are cheap, reuse them directly.
        return [_degenerate_window(q, w) for w in windows]

    lo_a = np.asarray(piece_lo)
    hi_a = np.asarray(piece_hi)
    span = hi_a - lo_a
    mid = (lo_a + hi_a) / 2.0

    # Query segment covering each piece (bisect_right semantics, like
    # Trajectory.segment_covering; no clamp needed — the midpoint is
    # strictly inside the query lifetime).
    qt = cols.t_view()
    qx = cols.x_view()
    qy = cols.y_view()
    k = np.searchsorted(qt, mid, side="right") - 1
    np.minimum(k, len(qt) - 2, out=k)
    qts = qt[k]
    qte = qt[k + 1]
    qx0 = qx[k]
    qxe = qx[k + 1]
    qy0 = qy[k]
    qye = qy[k + 1]
    qdur = qte - qts

    # Interpolated endpoints with STSegment.position_at's exact
    # endpoint special cases (t == ts / t == te return the samples).
    frac_lo = (lo_a - qts) / qdur
    frac_hi = (hi_a - qts) / qdur
    qx_lo = np.where(lo_a == qts, qx0, qx0 + frac_lo * (qxe - qx0))
    qy_lo = np.where(lo_a == qts, qy0, qy0 + frac_lo * (qye - qy0))
    qx_hi = np.where(hi_a == qte, qxe, qx0 + frac_hi * (qxe - qx0))
    qy_hi = np.where(hi_a == qte, qye, qy0 + frac_hi * (qye - qy0))

    # One transpose gives the six per-piece segment columns.
    _lo, _hi, sx0, sy0, sts, sxe, sye, ste = np.array(per_piece).T
    sdur = ste - sts
    sfrac_lo = (lo_a - sts) / sdur
    sfrac_hi = (hi_a - sts) / sdur
    sx_lo = np.where(lo_a == sts, sx0, sx0 + sfrac_lo * (sxe - sx0))
    sy_lo = np.where(lo_a == sts, sy0, sy0 + sfrac_lo * (sye - sy0))
    sx_hi = np.where(hi_a == ste, sxe, sx0 + sfrac_hi * (sxe - sx0))
    sy_hi = np.where(hi_a == ste, sye, sy0 + sfrac_hi * (sye - sy0))

    # Trinomial coefficients of the clipped pair (velocities measured
    # over the clipped span, as STSegment.clipped + velocity do).
    dx0 = qx_lo - sx_lo
    dy0 = qy_lo - sy_lo
    dvx = (qx_hi - qx_lo) / span - (sx_hi - sx_lo) / span
    dvy = (qy_hi - qy_lo) / span - (sy_hi - sy_lo) / span
    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dx0 * dvx + dy0 * dvy)
    c = dx0 * dx0 + dy0 * dy0

    # One-panel trapezoid with the Lemma 1 bound, vectorised.
    d0 = np.sqrt(c)  # f(0) = c exactly, and c >= 0 (sum of squares)
    d1 = np.sqrt(np.maximum((a * span + b) * span + c, 0.0))
    approx = 0.5 * (d0 + d1) * span

    has_flex = a > _A_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        flex = np.where(has_flex, -b / (2.0 * a), 0.0)
    disc = 4.0 * a * c - b * b
    tau_eval = np.clip(flex, 0.0, span)
    disc2 = np.maximum(disc, 0.0)
    f = np.maximum((a * tau_eval + b) * tau_eval + c, 0.0)
    f15 = f * np.sqrt(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = np.where(
            disc2 == 0.0, 0.0, np.where(f15 == 0.0, np.inf, disc2 / (4.0 * f15))
        )
    bound = span * span * span / 12.0 * curvature
    bound = np.where(np.isfinite(bound), bound, approx)
    bound = np.minimum(bound, approx)
    bound = np.where(has_flex, bound, 0.0)

    # Perfect square with an interior flex: D has a kink there, the
    # curvature bound does not apply — the scalar code certifies those
    # pieces against the (cheap) closed-form integral.
    ps = has_flex & (disc <= 0.0) & (0.0 < flex) & (flex < span)
    ps_idx = np.flatnonzero(ps)
    if reg is not None:
        reg.inc("distance.trapezoid_integrals", n_pieces - len(ps_idx))
    for i in ps_idx:
        tri = DistanceTrinomial(float(a[i]), float(b[i]), float(c[i]))
        res = tri.trapezoid_integral(0.0, float(span[i]))
        approx[i] = res.approx
        bound[i] = res.error_bound

    approx_l = approx.tolist()
    bound_l = bound.tolist()
    d0_l = d0.tolist()
    d1_l = d1.tolist()
    out: list[tuple[IntegralResult, float, float]] = []
    pos = 0
    for window, n in zip(windows, counts):
        if n == 0:
            out.append(_degenerate_window(q, window))
            continue
        total_a = 0.0
        total_e = 0.0
        for j in range(pos, pos + n):
            total_a += approx_l[j]
            total_e += bound_l[j]
        out.append((IntegralResult(total_a, total_e), d0_l[pos], d1_l[pos + n - 1]))
        pos += n
    return out


def _degenerate_window(
    q: Trajectory, window: tuple
) -> tuple[IntegralResult, float, float]:
    """The scalar fallback for a window where every sub-interval sits
    at float resolution: zero integral, direct endpoint distances."""
    t_lo, t_hi = window[0], window[1]
    seg = window_segment(window)
    d_start = q.position_at(t_lo).distance_to(seg.position_at(t_lo))
    d_end = q.position_at(t_hi).distance_to(seg.position_at(t_hi))
    return (IntegralResult(0.0, 0.0), d_start, d_end)


def make_segment_dissim_batch(mode: str = "auto"):
    """The batched segment-DISSIM implementation for ``mode``
    (``"auto" | "numpy" | "python"``)."""
    if resolve_kernels(mode) == "numpy":
        return segment_dissim_batch
    return segment_dissim_batch_python
