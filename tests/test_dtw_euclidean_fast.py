"""Tests for DTW, lock-step Euclidean, and the vectorised fast paths
(which must agree exactly with the pure-Python references)."""

import math

import pytest
from hypothesis import given, settings

from repro import Trajectory, dtw_distance, edr_distance, euclidean_distance, lcss_distance
from repro.distance import mean_euclidean_distance
from repro.distance.fast import (
    coords,
    dtw_distance_fast,
    edr_distance_fast,
    lcss_distance_fast,
)
from repro.exceptions import QueryError

from conftest import trajectories


def tr(points, id_=0):
    return Trajectory(id_, points)


class TestDTW:
    def test_identical_is_zero(self):
        a = tr([(0, 0, 0), (1, 1, 1), (2, 0, 2)])
        assert dtw_distance(a, a.with_id(1)) == pytest.approx(0.0)

    def test_warps_across_lengths(self):
        a = tr([(0, 0, 0), (1, 0, 1)])
        b = tr([(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 3)], id_=1)
        # The three zeros align with a's first sample at cost 0, the
        # final (1, 0) matches at cost 0.
        assert dtw_distance(a, b) == pytest.approx(0.0)

    def test_known_value(self):
        a = tr([(0, 0, 0), (0, 0, 1)])
        b = tr([(3, 4, 0), (3, 4, 1)], id_=1)
        assert dtw_distance(a, b) == pytest.approx(10.0)

    def test_band_too_narrow_rejected(self):
        a = tr([(0, 0, 0), (1, 1, 1)])
        b = tr([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)], id_=1)
        with pytest.raises(ValueError):
            dtw_distance(a, b, band=1)

    def test_band_wide_enough_matches_unbanded(self):
        a = tr([(0, 0, 0), (1, 0, 1), (2, 1, 2)])
        b = tr([(0, 1, 0), (2, 0, 1), (2, 2, 2)], id_=1)
        assert dtw_distance(a, b, band=3) == pytest.approx(dtw_distance(a, b))

    @given(trajectories(id_=0), trajectories(id_=1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))


class TestEuclidean:
    def test_requires_equal_lengths(self):
        a = tr([(0, 0, 0), (1, 1, 1)])
        b = tr([(0, 0, 0), (1, 1, 1), (2, 2, 2)], id_=1)
        with pytest.raises(QueryError):
            euclidean_distance(a, b)

    def test_known_value(self):
        a = tr([(0, 0, 0), (0, 0, 1)])
        b = tr([(3, 4, 0), (0, 1, 1)], id_=1)
        assert euclidean_distance(a, b) == pytest.approx(6.0)
        assert mean_euclidean_distance(a, b) == pytest.approx(3.0)

    @given(trajectories(min_samples=4, max_samples=4, id_=0))
    def test_self_distance_zero(self, a):
        assert euclidean_distance(a, a.with_id(1)) == 0.0


class TestFastAgreesWithReference:
    @given(trajectories(id_=0), trajectories(id_=1))
    @settings(max_examples=80, deadline=None)
    def test_lcss_fast(self, a, b):
        for eps in (0.01, 0.5, 5.0):
            assert lcss_distance_fast(coords(a), coords(b), eps) == pytest.approx(
                lcss_distance(a, b, eps)
            )

    @given(trajectories(id_=0), trajectories(id_=1))
    @settings(max_examples=80, deadline=None)
    def test_edr_fast(self, a, b):
        for eps in (0.01, 0.5, 5.0):
            assert edr_distance_fast(coords(a), coords(b), eps) == edr_distance(
                a, b, eps
            )

    @given(trajectories(id_=0), trajectories(id_=1))
    @settings(max_examples=40, deadline=None)
    def test_dtw_fast(self, a, b):
        got = dtw_distance_fast(coords(a), coords(b))
        want = dtw_distance(a, b)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
