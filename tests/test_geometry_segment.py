"""Unit + property tests for moving segments and their distance
machinery (trinomial coefficients, moving-point-vs-rectangle minimum)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import TrajectoryError
from repro.geometry import (
    MBR2D,
    Point,
    STPoint,
    STSegment,
    distance_trinomial_coefficients,
    min_moving_point_rect_distance,
)

from conftest import small_coord


def seg(x1, y1, t1, x2, y2, t2) -> STSegment:
    return STSegment(STPoint(x1, y1, t1), STPoint(x2, y2, t2))


@st.composite
def segments(draw, t_lo=0.0, t_hi=10.0):
    t1 = draw(st.floats(min_value=t_lo, max_value=t_hi - 0.5))
    t2 = draw(st.floats(min_value=t1 + 0.1, max_value=t_hi))
    return seg(
        draw(small_coord),
        draw(small_coord),
        t1,
        draw(small_coord),
        draw(small_coord),
        t2,
    )


@st.composite
def rects(draw):
    x1, x2 = sorted([draw(small_coord), draw(small_coord)])
    y1, y2 = sorted([draw(small_coord), draw(small_coord)])
    return MBR2D(x1, y1, x2, y2)


class TestSTSegment:
    def test_zero_duration_rejected(self):
        with pytest.raises(TrajectoryError):
            seg(0, 0, 1.0, 1, 1, 1.0)

    def test_backwards_time_rejected(self):
        with pytest.raises(TrajectoryError):
            seg(0, 0, 2.0, 1, 1, 1.0)

    def test_velocity_and_speed(self):
        s = seg(0, 0, 0, 3, 4, 1)
        assert s.velocity == (3.0, 4.0)
        assert s.speed == 5.0

    def test_position_interpolation(self):
        s = seg(0, 0, 0, 10, 20, 10)
        assert s.position_at(5.0) == Point(5.0, 10.0)
        assert s.position_at(0.0) == Point(0.0, 0.0)
        assert s.position_at(10.0) == Point(10.0, 20.0)

    def test_position_outside_span_rejected(self):
        with pytest.raises(TrajectoryError):
            seg(0, 0, 0, 1, 1, 1).position_at(1.5)

    def test_clipped_endpoints_interpolated(self):
        s = seg(0, 0, 0, 10, 0, 10)
        c = s.clipped(2.0, 6.0)
        assert c.start == STPoint(2.0, 0.0, 2.0)
        assert c.end == STPoint(6.0, 0.0, 6.0)

    def test_clipped_noop_when_window_covers(self):
        s = seg(0, 0, 0, 1, 1, 1)
        assert s.clipped(-5, 5) is s

    def test_clipped_empty_window_rejected(self):
        with pytest.raises(TrajectoryError):
            seg(0, 0, 0, 1, 1, 1).clipped(2.0, 3.0)

    def test_mbr_covers_endpoints(self):
        s = seg(3, -1, 0, -2, 4, 5)
        box = s.mbr()
        assert box.contains_point(s.start) and box.contains_point(s.end)
        assert box.tmin == 0 and box.tmax == 5

    @given(segments(), st.floats(min_value=0.0, max_value=1.0))
    # ts + 1.0 * duration rounds one ulp past te here
    @example(seg(0.0, 0.0, 1.639885220449171, 1.0, 1.0, 6.023450123915038), 1.0)
    def test_interpolated_point_inside_mbr(self, s, frac):
        t = min(s.ts + frac * s.duration, s.te)
        assert s.mbr().contains_point(s.st_point_at(t))


class TestDistanceTrinomial:
    def test_parallel_motion_constant_distance(self):
        a = seg(0, 0, 0, 10, 0, 10)
        b = seg(0, 3, 0, 10, 3, 10)
        coeff_a, coeff_b, coeff_c, lo, hi = distance_trinomial_coefficients(a, b)
        assert coeff_a == pytest.approx(0.0, abs=1e-12)
        assert coeff_b == pytest.approx(0.0, abs=1e-12)
        assert coeff_c == pytest.approx(9.0)
        assert (lo, hi) == (0.0, 10.0)

    def test_no_temporal_overlap_rejected(self):
        with pytest.raises(TrajectoryError):
            distance_trinomial_coefficients(
                seg(0, 0, 0, 1, 1, 1), seg(0, 0, 2, 1, 1, 3)
            )

    @given(segments(), segments())
    @settings(max_examples=200)
    def test_trinomial_matches_pointwise_distance(self, q, t):
        lo = max(q.ts, t.ts)
        hi = min(q.te, t.te)
        if lo >= hi:
            return
        a, b, c, t0, t1 = distance_trinomial_coefficients(q, t)
        assert a >= 0.0
        span = t1 - t0
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            tau = frac * span
            time = min(t0 + tau, t1)  # guard t0 + span rounding past t1
            expected = q.position_at(time).distance_to(t.position_at(time))
            got = math.sqrt(max(a * tau * tau + b * tau + c, 0.0))
            assert got == pytest.approx(expected, abs=1e-6)


class TestMovingPointRectDistance:
    def test_point_inside_rect_gives_zero(self):
        s = seg(0.5, 0.5, 0, 0.6, 0.6, 1)
        assert min_moving_point_rect_distance(s, MBR2D(0, 0, 1, 1)) == 0.0

    def test_flyby_minimum(self):
        # Crosses x = 0 at distance 2 below the unit square.
        s = seg(-5, -3, 0, 5, -3, 10)
        assert min_moving_point_rect_distance(s, MBR2D(-1, -1, 1, 1)) == pytest.approx(2.0)

    def test_window_restricts_search(self):
        # The close approach happens at t = 5; windowed out, the best
        # is the position at the window edge.
        s = seg(-5, -3, 0, 5, -3, 10)
        rect = MBR2D(-1, -1, 1, 1)
        d = min_moving_point_rect_distance(s, rect, 0.0, 1.0)
        expected = rect.mindist_to_point(s.position_at(1.0))
        assert d == pytest.approx(expected)

    def test_disjoint_window_rejected(self):
        with pytest.raises(TrajectoryError):
            min_moving_point_rect_distance(
                seg(0, 0, 0, 1, 1, 1), MBR2D(0, 0, 1, 1), 2.0, 3.0
            )

    def test_degenerate_instant_window(self):
        s = seg(-5, 0, 0, 5, 0, 10)
        d = min_moving_point_rect_distance(s, MBR2D(10, 10, 11, 11), 5.0, 5.0)
        assert d == pytest.approx(Point(0, 0).distance_to(Point(10, 10)))

    @given(segments(), rects())
    @settings(max_examples=200)
    def test_lower_bounds_dense_sampling(self, s, rect):
        analytic = min_moving_point_rect_distance(s, rect)
        sampled = min(
            rect.mindist_to_point(
                s.position_at(min(s.ts + f * s.duration / 64.0, s.te))
            )
            for f in range(65)
        )
        # 1e-7 absolute: the quadratic minimisation takes a sqrt of a
        # value subject to ~1e-16 cancellation noise.
        assert analytic <= sampled + 1e-7

    @given(segments(), rects())
    @settings(max_examples=100)
    def test_matches_dense_sampling_closely(self, s, rect):
        # With 1024 samples the discrete minimum should be within a
        # small gap of the analytic one (quadratic pieces are smooth).
        analytic = min_moving_point_rect_distance(s, rect)
        n = 1024
        sampled = min(
            rect.mindist_to_point(s.position_at(min(s.ts + i * s.duration / n, s.te)))
            for i in range(n + 1)
        )
        assert sampled - analytic >= -1e-7
        assert sampled - analytic <= s.speed * s.duration / n + 1e-7
