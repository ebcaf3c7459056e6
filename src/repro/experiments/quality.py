"""The quality experiment — Figure 9 (and Figure 8) of the paper.

Protocol (Section 5.2): compress every trajectory of the Trucks
dataset with TD-TR at parameter ``p`` (a fraction of the trajectory's
length), use each compressed copy as a 1-MST query against the original
dataset, and count how often a measure fails to return the original
trajectory as the most similar.  Measures: DISSIM (ours), LCSS and EDR
plus their interpolation-improved variants, with ``eps`` set to a
quarter of the maximum coordinate standard deviation over the
z-normalised dataset, as [5] prescribes.  DTW is offered as an optional
extra (the paper excludes it as dominated).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..compression import td_tr_fraction
from ..distance import fast as _fast
from ..search import linear_scan_kmst
from ..trajectory import Trajectory, TrajectoryDataset

__all__ = [
    "DEFAULT_P_VALUES",
    "DEFAULT_MEASURES",
    "QualityPoint",
    "quality_experiment",
    "compression_profile",
]

DEFAULT_P_VALUES = (0.001, 0.01, 0.02, 0.05, 0.10)
DEFAULT_MEASURES = ("DISSIM", "LCSS", "LCSS-I", "EDR", "EDR-I")


@dataclass(frozen=True, slots=True)
class QualityPoint:
    """One point of Figure 9."""

    measure: str
    p: float
    queries: int
    failures: int

    @property
    def failure_rate(self) -> float:
        return self.failures / self.queries if self.queries else 0.0


def _interpolated(query: Trajectory, target: Trajectory) -> Trajectory:
    """The "-I" enrichment: resample the query at the target's
    timestamps inside the query lifetime."""
    stamps = sorted(
        set(p.t for p in query.samples)
        | set(
            t
            for t in (p.t for p in target.samples)
            if query.t_start <= t <= query.t_end
        )
    )
    return query.resampled(stamps) if len(stamps) >= 2 else query


def _dp_value_fast(measure, query, q_arr, tr, eps: float) -> float:
    """One (query, candidate) DP value via the numpy row-sweeps."""
    t_arr = _fast.coords(tr)
    if measure == "LCSS":
        return _fast.lcss_distance_fast(q_arr, t_arr, eps)
    if measure == "EDR":
        return float(_fast.edr_distance_fast(q_arr, t_arr, eps))
    if measure == "LCSS-I":
        return _fast.lcss_distance_fast(
            _fast.coords(_interpolated(query, tr)), t_arr, eps
        )
    if measure == "EDR-I":
        return float(
            _fast.edr_distance_fast(
                _fast.coords(_interpolated(query, tr)), t_arr, eps
            )
        )
    if measure == "DTW":
        return _fast.dtw_distance_fast(q_arr, t_arr)
    raise ValueError(f"unknown measure {measure!r}")


def _most_similar_dp(
    measure: str,
    query: Trajectory,
    dataset: TrajectoryDataset,
    eps: float,
) -> int:
    """Argmin trajectory id under a DP-based measure (lower id wins
    ties, making failures deterministic)."""
    best_id = None
    best_val = None
    q_arr = _fast.coords(query)
    for tr in dataset:
        val = _dp_value_fast(measure, query, q_arr, tr, eps)
        key = (val, tr.object_id)
        if best_val is None or key < best_val:
            best_val = key
            best_id = tr.object_id
    assert best_id is not None
    return best_id


def quality_experiment(
    dataset: TrajectoryDataset,
    p_values=DEFAULT_P_VALUES,
    measures=DEFAULT_MEASURES,
    max_queries: int | None = None,
    seed: int = 99,
) -> list[QualityPoint]:
    """Run the Figure 9 protocol and return one :class:`QualityPoint`
    per (measure, p) pair.

    ``max_queries`` caps how many trajectories are used as queries (a
    seeded sample); ``None`` uses all of them, like the paper.
    """
    ids = dataset.ids()
    if max_queries is not None and max_queries < len(ids):
        rng = random.Random(seed)
        ids = rng.sample(ids, max_queries)

    normalised = dataset.normalised()
    eps = normalised.max_spatial_std() / 4.0

    points: list[QualityPoint] = []
    for p in p_values:
        compressed = {oid: td_tr_fraction(dataset[oid], p) for oid in ids}
        norm_compressed = {
            oid: td_tr_fraction(normalised[oid], p) for oid in ids
        }
        for measure in measures:
            failures = 0
            for oid in ids:
                if measure == "DISSIM":
                    query = compressed[oid]
                    result = linear_scan_kmst(
                        None, dataset, query,
                        period=(query.t_start, query.t_end), k=1,
                    )
                    winner = result.ids[0] if result.matches else None
                else:
                    winner = _most_similar_dp(
                        measure, norm_compressed[oid], normalised, eps
                    )
                if winner != oid:
                    failures += 1
            points.append(QualityPoint(measure, p, len(ids), failures))
    return points


def compression_profile(
    trajectory: Trajectory, p_values=(0.0, 0.001, 0.01, 0.02)
) -> list[tuple[float, int]]:
    """Figure 8: vertex counts of one trajectory compressed at the
    paper's p values, as ``(p, num_vertices)`` pairs."""
    return [(p, len(td_tr_fraction(trajectory, p))) for p in p_values]
