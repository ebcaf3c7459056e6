"""The one segment-DISSIM kernel equals the scalar specification bit for bit.

``window_dissim_batch`` is the only segment-DISSIM implementation the
searches run; ``segment_dissim`` in :mod:`repro.distance.dissim` is its
reference.  For hypothesis-drawn windows and for named cases that each
pin one branch of the kernel, in both the trapezoid and the exact mode:

* every ``(integral, d_start, d_end)`` float has the reference's bits;
* the kernel counts the trapezoid, exact-integral and window counters
  the per-window scalar calls count;
* the two typed errors are raised where the reference raises them.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Trajectory
from repro.distance import segment_dissim
from repro.distance.kernels import window_dissim_batch
from repro.exceptions import QueryError, TemporalCoverageError
from repro.geometry import STPoint, STSegment
from repro.obs import query_trace

MODES = [False, True]
MODE_IDS = ["trapezoid", "exact"]
COUNTERS = (
    "distance.trapezoid_integrals",
    "distance.exact_integrals",
    "distance.segment_windows",
    "distance.segment_windows_exact",
)


def window_of(x1, y1, t1, x2, y2, t2, lo, hi):
    return (lo, hi, x1, y1, t1, x2, y2, t2)


def segment_of(window) -> STSegment:
    _lo, _hi, x1, y1, t1, x2, y2, t2 = window
    return STSegment(STPoint(x1, y1, t1), STPoint(x2, y2, t2))


def bits(result) -> tuple[str, ...]:
    integral, d_start, d_end = result
    return tuple(
        float.hex(v)
        for v in (integral.approx, integral.error_bound, d_start, d_end)
    )


def counted(fn):
    """``fn()``'s result and the four segment counters it moved."""
    with query_trace(name="segment-kernel") as trace:
        result = fn()
    return result, {name: trace.registry.value(name) for name in COUNTERS}


def assert_like_scalar(query, windows, exact):
    """The kernel over ``windows`` against one scalar call per window:
    same bits, same counters.  Returns the kernel's results."""
    got, got_counts = counted(
        lambda: window_dissim_batch(query, windows, exact=exact)
    )
    want, want_counts = counted(
        lambda: [
            segment_dissim(query, segment_of(w), w[0], w[1], exact=exact)
            for w in windows
        ]
    )
    assert [bits(r) for r in got] == [bits(r) for r in want]
    assert got_counts == want_counts
    return got


# ----------------------------------------------------------------------
# hypothesis-drawn windows
# ----------------------------------------------------------------------
coord = st.floats(min_value=-50.0, max_value=50.0)


@st.composite
def queries_and_windows(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    query = Trajectory(-1, [(draw(coord), draw(coord), t) for t in times])
    inside = st.floats(min_value=times[0], max_value=times[-1])
    windows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        # Instants drawn from the query's own samples as well as from
        # its lifetime, so windows and segments often start or end on
        # a query sampling instant.
        instant = st.one_of(inside, st.sampled_from(times))
        t1, t2 = sorted(draw(st.lists(instant, min_size=2, max_size=2)))
        if not t1 < t2:
            continue
        cut = st.one_of(
            st.sampled_from([t1, t2]),
            st.sampled_from(times).filter(lambda t: t1 <= t <= t2),
            st.floats(min_value=t1, max_value=t2),
        )
        lo, hi = sorted((draw(cut), draw(cut)))
        if not lo < hi:
            continue
        windows.append(
            window_of(draw(coord), draw(coord), t1, draw(coord), draw(coord), t2, lo, hi)
        )
    return query, windows


@pytest.mark.parametrize("exact", MODES, ids=MODE_IDS)
@given(case=queries_and_windows())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_drawn_windows_equal_the_scalar_spec(exact, case):
    query, windows = case
    assert_like_scalar(query, windows, exact)


# ----------------------------------------------------------------------
# named cases: one branch of the kernel each
# ----------------------------------------------------------------------
SLIVER_LO = 5.0
SLIVER_HI = math.nextafter(5.0, math.inf)

NAMED = {
    # D(tau) = |tau - 5|: a perfect square whose flex (the kink) lies
    # inside the window; the curvature bound would certify 0.
    "perfect-square-interior-flex": (
        [(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)],
        [window_of(5.0, 0.0, 0.0, 5.0, 0.0, 10.0, 0.0, 10.0),
         window_of(5.0, 0.0, 0.0, 5.0, 0.0, 10.0, 1.5, 9.0)],
    ),
    # Windows starting and ending on query samples (t = 3 and 7), whose
    # non-round coordinates make interpolation at frac 1 round off the
    # sample.
    "on-query-instants": (
        [(0.1, 0.7, 0.0), (0.7, -0.3, 3.0), (-1.9, 2.3, 7.0), (0.3, 0.1, 10.0)],
        [window_of(2.2, 1.1, 1.0, -0.6, 0.9, 9.0, 3.0, 7.0),
         window_of(2.2, 1.1, 1.0, -0.6, 0.9, 9.0, 1.0, 3.0),
         window_of(2.2, 1.1, 1.0, -0.6, 0.9, 9.0, 7.0, 9.0)],
    ),
    # A segment sharing the query's sampling instants, so its clipped
    # pieces start and end on both sides' samples at once.
    "on-query-instants-shared": (
        [(0.1, 0.7, 0.0), (0.7, -0.3, 3.0), (-1.9, 2.3, 7.0)],
        [window_of(0.3, 0.9, 3.0, 1.1, -0.7, 7.0, 3.0, 7.0)],
    ),
    # Windows on the data segment's own endpoints, between query
    # samples and across one.
    "on-segment-endpoints": (
        [(0.1, 0.7, 0.0), (0.7, -0.3, 4.0), (-1.9, 2.3, 10.0)],
        [window_of(0.3, 0.1, 1.1, 2.9, -0.7, 3.7, 1.1, 3.7),
         window_of(0.3, 0.1, 1.1, 2.9, -0.7, 6.3, 1.1, 6.3)],
    ),
    # A sub-ulp window: every piece's midpoint rounds onto an endpoint,
    # so the endpoint distances are taken directly.
    "sub-ulp-sliver": (
        [(0.1, 0.7, 0.0), (0.7, -0.3, 5.0), (-1.9, 2.3, 10.0)],
        [window_of(1.0, 1.0, 0.0, 2.0, 3.0, 10.0, SLIVER_LO, SLIVER_HI),
         window_of(1.0, 1.0, 0.0, 2.0, 3.0, 10.0,
                   math.nextafter(5.0, -math.inf), SLIVER_HI)],
    ),
    # The objects meet inside the piece: D'' is infinite at the flex,
    # so the bound falls back to the trapezoid value.
    "colliding-objects": (
        [(0.8, 7.0, 0.0), (-0.9, -2.1, 10.0)],
        [window_of(6.29, 4.569999999999999, 0.0,
                   -13.71, 3.5699999999999994, 10.0, 0.0, 10.0)],
    ),
    # Lock-step motion: the relative velocity is zero, a <= _A_EPS.
    "parallel-motion": (
        [(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)],
        [window_of(0.0, 5.0, 0.0, 10.0, 5.0, 10.0, 2.0, 8.0)],
    ),
    # Coordinate differences overflow: the first distance is NaN, so
    # the endpoint distances are taken directly.
    "overflowing-coordinates": (
        [(-1e308, 0.0, 0.0), (1e308, 0.0, 10.0)],
        [window_of(-1e308, 1.0, 0.0, 1e308, 1.0, 10.0, 0.0, 10.0)],
    ),
}


@pytest.mark.parametrize("exact", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case_equals_the_scalar_spec(name, exact):
    samples, windows = NAMED[name]
    assert_like_scalar(Trajectory(-1, samples), windows, exact)


def test_perfect_square_is_certified_by_its_exact_integral():
    samples, windows = NAMED["perfect-square-interior-flex"]
    query = Trajectory(-1, samples)
    results, counts = counted(lambda: window_dissim_batch(query, windows))
    (whole, d0, d1), _part = results
    assert (whole.approx, whole.error_bound, d0, d1) == (50.0, 25.0, 5.0, 5.0)
    # the delegated trapezoid integral counts itself and its exact check
    assert counts["distance.exact_integrals"] == 2
    assert counts["distance.trapezoid_integrals"] == 2


def test_sliver_takes_the_degenerate_window():
    samples, windows = NAMED["sub-ulp-sliver"]
    query = Trajectory(-1, samples)
    for exact in MODES:
        results, counts = counted(
            lambda: window_dissim_batch(query, windows, exact=exact)
        )
        for integral, d_start, d_end in results:
            assert (integral.approx, integral.error_bound) == (0.0, 0.0)
            assert d_start > 0.0 and d_end > 0.0
        assert counts["distance.trapezoid_integrals"] == 0
        assert counts["distance.exact_integrals"] == 0


def test_collision_bound_is_the_trapezoid_value():
    samples, windows = NAMED["colliding-objects"]
    ((integral, _d0, _d1),) = window_dissim_batch(Trajectory(-1, samples), windows)
    assert integral.error_bound == integral.approx > 0.0


def test_parallel_motion_has_no_error():
    samples, windows = NAMED["parallel-motion"]
    ((integral, d0, d1),) = window_dissim_batch(Trajectory(-1, samples), windows)
    assert (integral.approx, integral.error_bound, d0, d1) == (30.0, 0.0, 5.0, 5.0)


# ----------------------------------------------------------------------
# typed errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exact", MODES, ids=MODE_IDS)
def test_window_outside_its_segment_is_a_query_error(exact):
    query = Trajectory(-1, [(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)])
    good = window_of(1.0, 1.0, 2.0, 3.0, 3.0, 6.0, 2.0, 6.0)
    for bad in (
        window_of(1.0, 1.0, 2.0, 3.0, 3.0, 6.0, 1.0, 6.0),
        window_of(1.0, 1.0, 2.0, 3.0, 3.0, 6.0, 2.0, 7.0),
        window_of(1.0, 1.0, 2.0, 3.0, 3.0, 6.0, 4.0, 4.0),
    ):
        with pytest.raises(QueryError):
            segment_dissim(query, segment_of(bad), bad[0], bad[1], exact=exact)
        with pytest.raises(QueryError):
            window_dissim_batch(query, [good, bad], exact=exact)


@pytest.mark.parametrize("exact", MODES, ids=MODE_IDS)
def test_window_outside_the_query_is_a_coverage_error(exact):
    query = Trajectory(-1, [(0.0, 0.0, 2.0), (10.0, 0.0, 8.0)])
    for bad in (
        window_of(1.0, 1.0, 0.0, 3.0, 3.0, 9.0, 1.0, 5.0),
        window_of(1.0, 1.0, 0.0, 3.0, 3.0, 9.0, 5.0, 9.0),
    ):
        with pytest.raises(TemporalCoverageError):
            segment_dissim(query, segment_of(bad), bad[0], bad[1], exact=exact)
        with pytest.raises(TemporalCoverageError):
            window_dissim_batch(query, [bad], exact=exact)
