"""Vectorised LCSS / EDR / DTW (numpy row-sweep dynamic programs).

The pure-Python implementations in :mod:`repro.distance.lcss` /
:mod:`.edr` / :mod:`.dtw` are the readable reference; these produce the
same values orders of magnitude faster, which the Figure 9 quality
bench needs (hundreds of full DP matrices per data point).

numpy is imported inside the functions, so importing this module (and
``repro``) does not load it.

The sequential in-row dependency of the edit DPs is eliminated with the
classic running-extremum trick: for EDR,
``cur[j] = min(cand[j], cur[j-1] + 1)`` equals
``min over j' <= j of cand[j'] + (j - j')``, i.e.
``accumulate-min(cand - j) + j``; LCSS's ``max(cand[j], cur[j-1])`` is
a plain accumulated maximum.
"""

from __future__ import annotations

from ..trajectory import Trajectory

__all__ = [
    "coords",
    "lcss_distance_fast",
    "edr_distance_fast",
    "dtw_distance_fast",
]


def coords(traj: Trajectory):
    """``(n, 2)`` float array of the trajectory's spatial samples.

    Served from the trajectory's memoised columnar view
    (:meth:`~repro.trajectory.Trajectory.columns`), so repeat calls for
    the same trajectory — every metric x eps combination of the Figure
    9 bench — cost a lookup, not a rebuild.  The array is shared and
    read-only; callers needing a private mutable copy must ``.copy()``.
    """
    return traj.columns().xy()


def _match_matrix(a, b, eps: float):
    """Boolean ``(n, m)``: per-axis differences both within eps."""
    import numpy as np

    dx = np.abs(a[:, None, 0] - b[None, :, 0]) <= eps
    dy = np.abs(a[:, None, 1] - b[None, :, 1]) <= eps
    return dx & dy


def lcss_distance_fast(a, b, eps: float) -> float:
    """``1 - LCSS/min(n, m)``, equal to
    :func:`repro.distance.lcss.lcss_distance` with ``delta=None``."""
    import numpy as np

    n, m = len(a), len(b)
    match = _match_matrix(a, b, eps)
    prev = np.zeros(m + 1, dtype=np.int64)
    cur = np.zeros(m + 1, dtype=np.int64)
    for i in range(n):
        cand = np.maximum(prev[1:], prev[:-1] + match[i])
        np.maximum.accumulate(cand, out=cand)
        cur[1:] = cand
        prev, cur = cur, prev
    return 1.0 - prev[m] / min(n, m)


def edr_distance_fast(a, b, eps: float) -> int:
    """Raw EDR count, equal to :func:`repro.distance.edr.edr_distance`."""
    import numpy as np

    n, m = len(a), len(b)
    match = _match_matrix(a, b, eps)
    idx = np.arange(1, m + 1, dtype=np.int64)
    prev = np.arange(m + 1, dtype=np.int64)
    cur = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        cand = np.minimum(prev[:-1] + (1 - match[i - 1]), prev[1:] + 1)
        # Fold in the left-to-right insert chain seeded by cur[0] = i:
        # cur[j] - j is the running minimum of cand[j'] - j' with the
        # seed value i (= cur[0] - 0) merged into the first slot.
        shifted = cand - idx
        if shifted[0] > i:
            shifted[0] = i
        np.minimum.accumulate(shifted, out=shifted)
        cur[0] = i
        cur[1:] = shifted + idx
        prev, cur = cur, prev
    return int(prev[m])


#: Block width of the DTW in-row min-plus scan.  Within one block the
#: left-to-right chain ``cur[j-1] + row[j]`` is rewritten over prefix
#: sums (``cumsum`` + ``minimum.accumulate``), which reassociates the
#: additions — a small block keeps the float drift well under the 1e-9
#: the equality tests allow while still amortising the Python loop.
_DTW_BLOCK = 64


def dtw_distance_fast(a, b) -> float:
    """Unconstrained DTW, equal to
    :func:`repro.distance.dtw.dtw_distance` with ``band=None``.

    The in-row dependency ``cur[j] = row[j-1] + min(d[j-1], cur[j-1])``
    is a min-plus prefix scan: unrolled, ``cur[j]`` is the cheapest way
    of entering the row at some ``j0 <= j`` and paying the row costs
    from there on.  Over a block with ``T = cumsum(row)`` that is
    ``T + min(accumulate-min(d - shift(T)), cur[block_start])`` — three
    vector ops per block instead of a Python iteration per cell.
    """
    import numpy as np

    n, m = len(a), len(b)
    cost = np.hypot(
        a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1]
    )
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    cur = np.empty(m + 1)
    for i in range(n):
        cur[0] = np.inf
        row = cost[i]
        diag_or_up = np.minimum(prev[:-1], prev[1:])
        for js in range(0, m, _DTW_BLOCK):
            je = min(js + _DTW_BLOCK, m)
            T = np.cumsum(row[js:je])
            w = diag_or_up[js:je].copy()
            w[1:] -= T[:-1]
            np.minimum.accumulate(w, out=w)
            cur[js + 1 : je + 1] = T + np.minimum(w, cur[js])
        prev, cur = cur, prev
    return float(prev[m])
