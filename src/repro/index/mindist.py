"""MINDIST between a query trajectory and an index node (from [6]).

``MINDIST(Q, N)`` is the minimum, over the time interval where the
query period, the query trajectory and the node's temporal extent all
overlap, of the spatial distance between the (interpolated) query
position and the node's spatial bounding rectangle.  It lower-bounds
the distance between the query and *any* segment stored under the node
during that interval, which is what Definitions 5-6 rely on.

Computed exactly: each query segment contributes the minimum of a
piecewise-quadratic (see
:func:`repro.geometry.segment.min_moving_point_rect_distance`).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..geometry import MBR3D, min_moving_point_rect_distance
from ..obs import state as _obs
from ..trajectory import Trajectory

__all__ = ["mindist", "mindist_batch", "mindist_columns"]


def mindist(
    query: Trajectory,
    box: MBR3D,
    t_start: float,
    t_end: float,
) -> float | None:
    """MINDIST(Q, N) over the query period ``[t_start, t_end]``.

    Returns ``None`` when the node's temporal extent does not intersect
    the (query-period-clipped) query lifetime — such nodes hold no
    segment relevant to the query and are skipped by the search
    (Figure 7, line 33).
    """
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.registry.inc("index.mindist_evaluations")
    lo = max(box.tmin, t_start, query.t_start)
    hi = min(box.tmax, t_end, query.t_end)
    if lo > hi:
        return None
    rect = box.spatial
    if lo == hi:
        return rect.mindist_to_point(query.position_at(lo))
    best = math.inf
    for seg in query.segments_overlapping(lo, hi):
        d = min_moving_point_rect_distance(seg, rect, lo, hi)
        if d < best:
            best = d
            if best == 0.0:
                break
    return best


def mindist_batch(
    query: Trajectory,
    boxes: Sequence[MBR3D],
    t_start: float,
    t_end: float,
) -> list[float | None]:
    """MINDIST of the query against many node-entry MBBs at once.

    Vectorised equivalent of calling :func:`mindist` per box, by the
    two steps :func:`mindist_columns` runs: a box whose temporal extent
    misses the (query-period-clipped) query lifetime comes back
    ``None``, like the scalar path's early return, and only the boxes
    left have their spatial bounds gathered.
    """
    import numpy as np

    results: list[float | None] = [None] * len(boxes)
    order, lo, hi = _overlapping(
        query,
        np.array([b.tmin for b in boxes]),
        np.array([b.tmax for b in boxes]),
        t_start,
        t_end,
    )
    sel = [boxes[j] for j in order.tolist()]
    dists = _scored(
        query,
        lo,
        hi,
        np.array([b.xmin for b in sel]),
        np.array([b.ymin for b in sel]),
        np.array([b.xmax for b in sel]),
        np.array([b.ymax for b in sel]),
    )
    for j, d in zip(order.tolist(), dists.tolist()):
        results[j] = d
    return results


def mindist_columns(
    query: Trajectory, tmin, tmax, xmin, ymin, xmax, ymax, t_start, t_end
):
    """MINDIST of the query against boxes given as six float64 columns:
    ``(order, dists)``, the positions of the boxes whose temporal extent
    meets the (query-period-clipped) query lifetime and their MINDIST.

    Node expansion, which keeps its children as columns, calls this;
    :func:`mindist_batch` runs the same two steps on its boxes.  A
    traced call counts one batch and one evaluation per box.
    """
    order, lo, hi = _overlapping(query, tmin, tmax, t_start, t_end)
    if len(order) < len(tmin):
        xmin, ymin, xmax, ymax = xmin[order], ymin[order], xmax[order], ymax[order]
    return order, _scored(query, lo, hi, xmin, ymin, xmax, ymax)


def _overlapping(query: Trajectory, tmin, tmax, t_start, t_end):
    """``(order, lo, hi)``: the positions of the boxes whose time extent
    meets the query period clipped to the query's lifetime, and that
    overlap's ends, per box left (one vector pass; counted as one
    MINDIST batch and one evaluation per box)."""
    import numpy as np

    reg = _obs.ACTIVE.registry if _obs.ACTIVE is not None else None
    if reg is not None:
        reg.inc("index.mindist_batched")
        reg.inc("index.mindist_evaluations", len(tmin))
    qt = query.columns().t
    lo = np.maximum(tmin, max(t_start, qt[0]))
    hi = np.minimum(tmax, min(t_end, qt[-1]))
    order = np.flatnonzero(lo <= hi)
    if len(order) < len(tmin):
        lo, hi = lo[order], hi[order]
    return order, lo, hi


def _scored(query: Trajectory, lo, hi, xmin, ymin, xmax, ymax):
    """MINDIST per box over its overlap ``[lo, hi]`` with the query.

    All (query segment, box) pairs are evaluated in a handful of numpy
    passes; per pair the piecewise-quadratic minimum uses the same
    fixed candidate set as
    :func:`~repro.geometry.segment.min_moving_point_rect_distance`
    (breakpoints padded to six slots, vertex of each adjacent piece),
    so the values match the scalar path bit for bit.
    """
    import numpy as np

    if not len(lo):
        return np.empty(0)
    cols = query.columns()
    n = len(cols.t)
    qt = cols.t_view()
    qx = cols.x_view()
    qy = cols.y_view()

    # Exactly the segments Trajectory.segments_overlapping yields
    # (every k in the range has ts <= hi and te >= lo), plus the
    # covering segment(s) when the window is a single instant;
    # searchsorted == bisect on the same buffer.
    k0a = np.maximum(np.searchsorted(qt, lo, side="left") - 1, 0)
    k1a = np.minimum(np.searchsorted(qt, hi, side="right") - 1, n - 2)

    # Expand per-box rows to per-(segment, box) pairs without a Python
    # inner loop: box attributes repeat by their segment count, and the
    # pair's segment index is its offset inside the box's group.
    counts = k1a - k0a + 1
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    total = int(starts[-1] + counts[-1])
    k = k0a.repeat(counts) + (np.arange(total) - starts.repeat(counts))

    sts = qt[k]
    ste = qt[k + 1]
    sx0 = qx[k]
    sxe = qx[k + 1]
    sy0 = qy[k]
    sye = qy[k + 1]
    p_lo = lo.repeat(counts)
    p_hi = hi.repeat(counts)
    xmin = xmin.repeat(counts)
    ymin = ymin.repeat(counts)
    xmax = xmax.repeat(counts)
    ymax = ymax.repeat(counts)
    # Pathological segments (subnormal durations) overflow the velocity
    # to inf and turn positions into nan, exactly like the scalar code
    # — which warns for neither, so neither do we.  The scalar
    # comparison-based clearance treats a nan position as "inside the
    # rectangle" (both sides compare False -> clearance 0); np.fmax
    # reproduces that, where np.maximum would propagate the nan.
    err = np.errstate(divide="ignore", over="ignore", invalid="ignore")
    with err:
        wlo = np.maximum(sts, p_lo)
        whi = np.minimum(ste, p_hi)
        dur = ste - sts
        vx = (sxe - sx0) / dur
        vy = (sye - sy0) / dur
        span = whi - wlo
        instant = span == 0.0
        has_instant = bool(instant.any())

        # Moving pairs: breakpoints where a coordinate crosses a
        # rectangle side, padded with 0.0 to a fixed six-slot row (the
        # padding sorts into a zero prefix; duplicate taus yield
        # zero-length pieces whose vertex test below cannot fire, so
        # the candidate set is unchanged).  The four side crossings are
        # one stacked elementwise pass.
        x0 = sx0 + vx * (wlo - sts)
        y0 = sy0 + vy * (wlo - sts)
        taus = np.zeros((len(k), 6))
        taus[:, 1] = span
        coord0s = np.stack((x0, x0, y0, y0))
        side_vs = np.stack((vx, vx, vy, vy))
        sides = np.stack((xmin, xmax, ymin, ymax))
        tau = (sides - coord0s) / side_vs
        ok = (side_vs != 0.0) & (tau > 0.0) & (tau < span)
        taus[:, 2:] = np.where(ok, tau, 0.0).T
        taus.sort(axis=1)

        def dist_sq(tau):
            posx = x0[:, None] + vx[:, None] * tau
            posy = y0[:, None] + vy[:, None] * tau
            dxv = np.fmax(np.fmax(xmin[:, None] - posx, 0.0), posx - xmax[:, None])
            dyv = np.fmax(np.fmax(ymin[:, None] - posy, 0.0), posy - ymax[:, None])
            return dxv * dxv + dyv * dyv

        # Vertex of the quadratic on each (non-empty) piece, located
        # from the clearance value/slope at the midpoint.  Invalid
        # vertices fall back to tau = 0.0, which the breakpoint rows
        # already cover, so one dist_sq pass scores breakpoints and
        # vertices together without changing the candidate set.
        ta = taus[:, :-1]
        tb = taus[:, 1:]
        mid = (ta + tb) / 2.0
        posx = x0[:, None] + vx[:, None] * mid
        posy = y0[:, None] + vy[:, None] * mid
        below_x = posx < xmin[:, None]
        above_x = posx > xmax[:, None]
        below_y = posy < ymin[:, None]
        above_y = posy > ymax[:, None]
        dxv = np.where(below_x, xmin[:, None] - posx, np.where(above_x, posx - xmax[:, None], 0.0))
        dxs = np.where(below_x, -vx[:, None], np.where(above_x, vx[:, None], 0.0))
        dyv = np.where(below_y, ymin[:, None] - posy, np.where(above_y, posy - ymax[:, None], 0.0))
        dys = np.where(below_y, -vy[:, None], np.where(above_y, vy[:, None], 0.0))
        a2 = dxs * dxs + dys * dys
        vertex = mid - (dxv * dxs + dyv * dys) / a2
        valid = (a2 > 0.0) & (ta < vertex) & (vertex < tb)
        cand = np.concatenate((taus, np.where(valid, vertex, 0.0)), axis=1)
        best_sq = dist_sq(cand).min(axis=1)

        pair_dist = np.sqrt(best_sq)
        if has_instant:
            # Boundary-touching pairs collapse to a single instant:
            # plain point-to-rect distance at the (exact-endpoint)
            # position.
            frac = (wlo - sts) / dur
            px = np.where(wlo == sts, sx0, np.where(wlo == ste, sxe, sx0 + frac * (sxe - sx0)))
            py = np.where(wlo == sts, sy0, np.where(wlo == ste, sye, sy0 + frac * (sye - sy0)))
            pdx = np.maximum(np.maximum(xmin - px, 0.0), px - xmax)
            pdy = np.maximum(np.maximum(ymin - py, 0.0), py - ymax)
            pair_dist = np.where(instant, np.hypot(pdx, pdy), pair_dist)
        box_best = np.minimum.reduceat(pair_dist, starts)
    return box_best
