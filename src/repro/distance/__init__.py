"""Dissimilarity metrics and pruning bounds.

The paper's contribution (DISSIM + bounds) lives here next to the
competitor measures it is evaluated against (LCSS, EDR, DTW, lock-step
Euclidean).
"""

from .bounds import CoveredInterval, PartialDissim, mindissim_inc
from .dissim import (
    dissim,
    dissim_exact,
    distance_at,
    merged_timestamps,
    resolve_period,
    segment_dissim,
)
from .dtw import dtw_distance
from .edr import edr_distance, edr_i_distance, edr_normalised_distance
from .erp import erp_distance
from .euclidean import euclidean_distance, mean_euclidean_distance
from .frechet import discrete_frechet_distance
from .kernels import segment_dissim_batch
from .lcss import lcss_distance, lcss_i_distance, lcss_length, lcss_similarity
from .ldd import ldd
from .profile import DistanceProfile, ProfilePiece, distance_profile
from .trinomial import DistanceTrinomial, IntegralResult

__all__ = [
    "DistanceTrinomial",
    "IntegralResult",
    "dissim",
    "dissim_exact",
    "distance_at",
    "merged_timestamps",
    "resolve_period",
    "segment_dissim",
    "segment_dissim_batch",
    "ldd",
    "DistanceProfile",
    "ProfilePiece",
    "distance_profile",
    "CoveredInterval",
    "PartialDissim",
    "mindissim_inc",
    "lcss_length",
    "lcss_similarity",
    "lcss_distance",
    "lcss_i_distance",
    "edr_distance",
    "edr_i_distance",
    "edr_normalised_distance",
    "dtw_distance",
    "erp_distance",
    "discrete_frechet_distance",
    "euclidean_distance",
    "mean_euclidean_distance",
]
