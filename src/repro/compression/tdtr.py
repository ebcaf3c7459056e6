"""Trajectory compression: TD-TR (Meratnia & By [12]), spatial
Douglas-Peucker, and uniform downsampling.

TD-TR is the time-ratio top-down algorithm the paper's quality study
uses to manufacture under-sampled queries: keep the endpoints, find the
sample with the largest *Synchronized Euclidean Distance* (the distance
between the recorded position and where the object would be at that
timestamp if it moved straight between the kept endpoints), and recurse
while that error exceeds the tolerance.  In the experiments the
tolerance is ``p`` (0.1 % ... 10 %) of each trajectory's travelled
length, matching Section 5.2.
"""

from __future__ import annotations

import math

from ..exceptions import TrajectoryError
from ..trajectory import Trajectory

__all__ = [
    "synchronized_euclidean_distance",
    "td_tr",
    "td_tr_fraction",
    "td_tr_with_radii",
    "td_tr_columns",
    "douglas_peucker",
    "uniform_downsample",
]


def synchronized_euclidean_distance(traj: Trajectory, i: int, a: int, b: int) -> float:
    """SED of sample ``i`` against the straight movement from sample
    ``a`` to sample ``b`` (all indexes into ``traj``)."""
    pa, pb, pi = traj[a], traj[b], traj[i]
    span = pb.t - pa.t
    frac = 0.0 if span <= 0.0 else (pi.t - pa.t) / span
    sx = pa.x + frac * (pb.x - pa.x)
    sy = pa.y + frac * (pb.y - pa.y)
    return math.hypot(pi.x - sx, pi.y - sy)


def td_tr(traj: Trajectory, tolerance: float) -> Trajectory:
    """Top-Down Time-Ratio compression with an absolute SED tolerance.

    Always keeps the first and last samples, so the compressed
    trajectory spans the same time window as the original.
    """
    if tolerance < 0.0:
        raise TrajectoryError(f"negative tolerance {tolerance}")
    x, y, t = traj.coordinate_arrays()
    keep, _errors = _select_spans(t, x, y, tolerance, _worst_sed)
    return Trajectory(traj.object_id, [traj[i] for i in keep])


def td_tr_fraction(traj: Trajectory, p: float) -> Trajectory:
    """TD-TR with the paper's parameterisation: tolerance = ``p`` times
    the trajectory's travelled length (``p`` = 0.001 for "0.1 %")."""
    if p < 0.0:
        raise TrajectoryError(f"negative compression parameter {p}")
    if p == 0.0:
        return traj
    return td_tr(traj, p * traj.length())


def td_tr_with_radii(
    traj: Trajectory, tolerance: float
) -> tuple[list[int], list[float]]:
    """TD-TR selection plus a certified per-segment error radius
    (:func:`td_tr_columns` on the trajectory's samples)."""
    x, y, t = traj.coordinate_arrays()
    return td_tr_columns(t, x, y, tolerance)


def td_tr_columns(t, x, y, tolerance: float) -> tuple[list[int], list[float]]:
    """TD-TR over the ``t``/``x``/``y`` columns of one trajectory.

    Returns ``(kept, radii)`` where ``kept`` is the sorted list of kept
    sample indexes and ``radii[j]`` is the maximum SED of the samples
    dropped between ``kept[j]`` and ``kept[j+1]`` (0.0 when none were
    dropped).  Because both the original trajectory and the simplified
    polyline move linearly between samples, their distance at any time
    ``t`` is a piecewise-linear function of ``t`` whose breakpoints are
    the original sample times — so the maximum over the whole segment
    equals the maximum SED at the dropped samples, and every point of
    the original path stays within ``radii[j]`` of the simplified
    segment at the synchronized timestamp.

    Every SED is the expression of
    :func:`synchronized_euclidean_distance`, term for term, so the
    kept indexes and radii are the ones that function would give.
    Each radius is the error the selection measured on the span it
    kept, so no span is walked twice.
    """
    if tolerance < 0.0:
        raise TrajectoryError(f"negative tolerance {tolerance}")
    kept, errors = _select_spans(t, x, y, tolerance, _worst_sed)
    return kept, [max(errors[a], 0.0) for a in kept[:-1]]


def douglas_peucker(traj: Trajectory, tolerance: float) -> Trajectory:
    """Classic spatial Douglas-Peucker (perpendicular distance to the
    chord, time ignored) — included for comparison with TD-TR."""
    if tolerance < 0.0:
        raise TrajectoryError(f"negative tolerance {tolerance}")
    x, y, t = traj.coordinate_arrays()
    keep, _errors = _select_spans(t, x, y, tolerance, _worst_perpendicular)
    return Trajectory(traj.object_id, [traj[i] for i in keep])


def uniform_downsample(traj: Trajectory, keep_every: int) -> Trajectory:
    """Keep every ``keep_every``-th sample (endpoints always kept)."""
    if keep_every < 1:
        raise TrajectoryError(f"keep_every must be >= 1, got {keep_every}")
    idx = list(range(0, len(traj), keep_every))
    if idx[-1] != len(traj) - 1:
        idx.append(len(traj) - 1)
    return Trajectory(traj.object_id, [traj[i] for i in idx])


# ----------------------------------------------------------------------
# Span searches: the sample strictly between ``a`` and ``b`` with the
# largest error against the chord a -> b (the first one on ties), as
# ``(index, error)``; ``(-1, -1.0)`` for a span with nothing inside.
def _worst_sed(t, x, y, a: int, b: int) -> tuple[int, float]:
    ta, xa, ya = t[a], x[a], y[a]
    span = t[b] - ta
    dx = x[b] - xa
    dy = y[b] - ya
    hypot = math.hypot
    worst_i = -1
    worst_err = -1.0
    if span > 0.0:
        for i in range(a + 1, b):
            frac = (t[i] - ta) / span
            err = hypot(x[i] - (xa + frac * dx), y[i] - (ya + frac * dy))
            if err > worst_err:
                worst_err = err
                worst_i = i
    else:  # a span of no time: every sample is compared with its start
        frac = 0.0
        for i in range(a + 1, b):
            err = hypot(x[i] - (xa + frac * dx), y[i] - (ya + frac * dy))
            if err > worst_err:
                worst_err = err
                worst_i = i
    return worst_i, worst_err


def _worst_perpendicular(t, x, y, a: int, b: int) -> tuple[int, float]:
    xa, ya = x[a], y[a]
    dx = x[b] - xa
    dy = y[b] - ya
    norm_sq = dx * dx + dy * dy
    worst_i = -1
    worst_err = -1.0
    for i in range(a + 1, b):
        if norm_sq == 0.0:
            err = math.hypot(x[i] - xa, y[i] - ya)
        else:
            u = ((x[i] - xa) * dx + (y[i] - ya) * dy) / norm_sq
            u = min(max(u, 0.0), 1.0)
            err = math.hypot(x[i] - (xa + u * dx), y[i] - (ya + u * dy))
        if err > worst_err:
            worst_err = err
            worst_i = i
    return worst_i, worst_err


def _select_spans(
    t, x, y, tolerance: float, worst_in_span
) -> tuple[list[int], dict[int, float]]:
    """Shared top-down recursion; returns the sorted kept indexes and,
    per kept span ``kept[j] -> kept[j+1]``, keyed by ``kept[j]``, the
    error of its worst inner sample (-1.0 when it has none)."""
    keep = {0, len(t) - 1}
    errors = {}
    stack = [(0, len(t) - 1)]
    while stack:
        a, b = stack.pop()
        worst_i, worst_err = worst_in_span(t, x, y, a, b)
        if worst_err > tolerance:
            keep.add(worst_i)
            stack.append((a, worst_i))
            stack.append((worst_i, b))
        else:
            errors[a] = worst_err
    return sorted(keep), errors
