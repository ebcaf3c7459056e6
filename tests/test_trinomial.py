"""Tests for the distance trinomial: exact integral vs numeric
quadrature, and the Lemma 1 trapezoid bound (the load-bearing math)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

quad = pytest.importorskip(
    "scipy.integrate", reason="quadrature oracle needs scipy"
).quad

from repro.distance import DistanceTrinomial, IntegralResult


@st.composite
def trinomials(draw):
    """Random valid trinomials built from relative motion so the
    discriminant constraint (b^2 <= 4ac) holds by construction."""
    dvx = draw(st.floats(min_value=-5, max_value=5))
    dvy = draw(st.floats(min_value=-5, max_value=5))
    dx = draw(st.floats(min_value=-10, max_value=10))
    dy = draw(st.floats(min_value=-10, max_value=10))
    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dx * dvx + dy * dvy)
    c = dx * dx + dy * dy
    return DistanceTrinomial(a, b, c)


@st.composite
def raw_trinomials(draw):
    """Random valid trinomials from *direct* coefficient draws: a and c
    non-negative over several orders of magnitude, b a signed fraction
    of the discriminant limit 2*sqrt(ac).  Covers corners the
    relative-motion construction reaches only by shrinking (a = 0
    exactly, |b| = 2*sqrt(ac) exactly, wildly unbalanced a vs c)."""
    magnitude = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-8, max_value=1e4),
    )
    a = draw(magnitude)
    c = draw(magnitude)
    frac = draw(st.floats(min_value=-1.0, max_value=1.0))
    b = frac * 2.0 * math.sqrt(a * c)
    return DistanceTrinomial(a, b, c)


intervals = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=10.0),
).map(lambda p: (p[0], p[0] + p[1]))

# Near-lock-step motion drawn by ``trinomials()`` itself: ``a tau^2`` is
# ~1e-16 of ``c`` while ``b tau`` is not negligible.  The closed form
# used to cancel catastrophically here (off by up to 2.8e-6 relative).
NEAR_LOCK_STEP = [
    (
        DistanceTrinomial(
            a=3.552713678800501e-15, b=5.960464477539062e-07, c=25.0
        ),
        (0.5, 1.0),
    ),
    (
        DistanceTrinomial(
            a=9.43689570931383e-16,
            b=4.6706917497487656e-07,
            c=100.5334488032944,
        ),
        (-5.0, -4.99),
    ),
]


def reference_integral(tri, lo, hi):
    """``exact_integral`` in 400-digit arithmetic — the arcsinh closed
    form where the float discriminant is positive (it cancels by a
    factor of up to ``b / 4a``, ~1e165 for the slowest relative motion
    hypothesis draws), quadrature of the clamped integrand otherwise."""
    mp = pytest.importorskip("mpmath", reason="high-precision oracle")
    with mp.workdps(400):
        a, b, c = mp.mpf(tri.a), mp.mpf(tri.b), mp.mpf(tri.c)
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        if a == 0:
            return mp.sqrt(c) * (hi - lo)
        disc = 4 * a * c - b * b
        if disc > 0:

            def anti(t):
                lin = 2 * a * t + b
                return lin * mp.sqrt((a * t + b) * t + c) / (4 * a) + disc / (
                    8 * a ** mp.mpf(1.5)
                ) * mp.asinh(lin / mp.sqrt(disc))

            return anti(hi) - anti(lo)
        root = mp.sqrt(-disc)
        roots = ((-b - root) / (2 * a), (-b + root) / (2 * a))
        cuts = sorted({lo, hi} | {r for r in roots if lo < r < hi})
        return mp.quad(lambda t: mp.sqrt(max((a * t + b) * t + c, 0)), cuts)


class TestConstruction:
    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            DistanceTrinomial(-1.0, 0.0, 1.0)

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            DistanceTrinomial(1.0, 0.0, -1.0)

    def test_value_at_clamps_rounding_noise(self):
        # b^2 == 4ac exactly: the minimum is 0, rounding may dip below.
        tri = DistanceTrinomial(1.0, -2.0, 1.0)
        assert tri.value_at(1.0) == 0.0

    def test_flex_location(self):
        assert DistanceTrinomial(2.0, -4.0, 3.0).flex == 1.0
        assert DistanceTrinomial(0.0, 0.0, 3.0).flex is None


class TestExactIntegral:
    def test_constant_distance(self):
        tri = DistanceTrinomial(0.0, 0.0, 9.0)
        assert tri.exact_integral(0.0, 4.0) == pytest.approx(12.0)

    def test_linear_motion_through_origin(self):
        # D(tau) = |tau - 1|: objects meet at tau = 1.
        tri = DistanceTrinomial(1.0, -2.0, 1.0)
        # integral of |tau - 1| over [0, 2] = 1.
        assert tri.exact_integral(0.0, 2.0) == pytest.approx(1.0)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            DistanceTrinomial(1.0, 0.0, 1.0).exact_integral(1.0, 0.0)

    def test_empty_interval_is_zero(self):
        assert DistanceTrinomial(1.0, 0.0, 1.0).exact_integral(2.0, 2.0) == 0.0

    @given(trinomials(), intervals)
    @settings(max_examples=200, deadline=None)
    def test_matches_numeric_quadrature(self, tri, interval):
        lo, hi = interval
        # A perfect square has a kink at the flex; without the
        # breakpoint quad misses it and under-reports its own error.
        flex = tri.flex
        kink = [flex] if flex is not None and lo < flex < hi else None
        expected, est_err = quad(tri.value_at, lo, hi, limit=200, points=kink)
        got = tri.exact_integral(lo, hi)
        assert got == pytest.approx(expected, rel=1e-6, abs=max(1e-7, 10 * est_err))

    @given(trinomials(), intervals)
    @example(*NEAR_LOCK_STEP[0])
    @example(*NEAR_LOCK_STEP[1])
    @settings(max_examples=100)
    def test_additive_over_subintervals(self, tri, interval):
        lo, hi = interval
        mid = (lo + hi) / 2.0
        whole = tri.exact_integral(lo, hi)
        parts = tri.exact_integral(lo, mid) + tri.exact_integral(mid, hi)
        assert whole == pytest.approx(parts, rel=1e-9, abs=1e-9)

    @given(st.one_of(trinomials(), raw_trinomials()), intervals)
    @example(*NEAR_LOCK_STEP[0])
    @example(*NEAR_LOCK_STEP[1])
    @settings(max_examples=300, deadline=None)
    def test_matches_high_precision_reference(self, tri, interval):
        lo, hi = interval
        expected = float(reference_integral(tri, lo, hi))
        # The absolute floor covers ``a <= 1e-30`` being integrated as
        # a constant: at most sqrt(a) tau^2 / 2 ~ 1e-13 on this domain.
        assert tri.exact_integral(lo, hi) == pytest.approx(
            expected, rel=1e-9, abs=1e-12
        )


class TestTrapezoidLemma1:
    @given(trinomials(), intervals)
    @settings(max_examples=300)
    def test_one_sided_error_bound(self, tri, interval):
        """Lemma 1 + convexity: exact in [approx - bound, approx]."""
        lo, hi = interval
        exact = tri.exact_integral(lo, hi)
        result = tri.trapezoid_integral(lo, hi)
        assert result.error_bound >= 0.0
        # 1e-7 relative: near-degenerate quadratics (a ~ 1e-16 * c)
        # cap the achievable precision of the closed form itself.
        slack = 1e-7 * max(1.0, abs(result.approx))
        assert exact <= result.approx + slack
        assert exact >= result.approx - result.error_bound - slack

    def test_exact_for_constant_distance(self):
        tri = DistanceTrinomial(0.0, 0.0, 4.0)
        r = tri.trapezoid_integral(0.0, 3.0)
        assert r.approx == pytest.approx(6.0)
        assert r.error_bound == 0.0

    def test_flex_inside_interval_uses_flex_curvature(self):
        # Symmetric V with smooth bottom: flex at 0 inside [-1, 1].
        tri = DistanceTrinomial(1.0, 0.0, 1.0)
        r = tri.trapezoid_integral(-1.0, 1.0)
        expected_bound = (2.0**3 / 12.0) * tri.second_derivative_at(0.0)
        assert r.error_bound == pytest.approx(expected_bound)

    def test_collision_inside_interval_bound_stays_finite(self):
        tri = DistanceTrinomial(1.0, -2.0, 1.0)  # zero at tau = 1
        r = tri.trapezoid_integral(0.0, 2.0)
        assert math.isfinite(r.error_bound)
        exact = tri.exact_integral(0.0, 2.0)
        assert r.approx - r.error_bound <= exact <= r.approx

    @given(trinomials(), intervals, st.integers(min_value=1, max_value=16))
    @settings(max_examples=100)
    def test_subdivision_tightens_the_bound(self, tri, interval, panels):
        lo, hi = interval
        one = tri.trapezoid_integral(lo, hi)
        many = tri.subdivided_integral(lo, hi, panels)
        exact = tri.exact_integral(lo, hi)
        # The closed-form arcsinh evaluation cancels catastrophically
        # when the quadratic term is ~1e-15 (a near-linear trinomial
        # over a short far-from-origin interval), so the fp slack must
        # absorb ~1e-6 relative noise from the *exact* side.
        slack = 1e-6 * max(1.0, abs(many.approx))
        assert exact <= many.approx + slack
        assert exact >= many.approx - many.error_bound - slack
        # More panels never give a wider certified interval (up to fp).
        assert many.error_bound <= one.error_bound + slack

    def test_subdivided_rejects_bad_panel_count(self):
        with pytest.raises(ValueError):
            DistanceTrinomial(1, 0, 1).subdivided_integral(0, 1, 0)


class TestLemma1RawCoefficients:
    """Lemma 1 one-sidedness over direct coefficient draws (not the
    relative-motion construction): D(tau) = sqrt(a tau^2 + b tau + c)
    is convex, so the one-panel trapezoid never under-estimates and
    over-estimates by at most the certified bound."""

    @given(raw_trinomials(), intervals)
    @settings(max_examples=300, deadline=None)
    def test_trapezoid_never_underestimates(self, tri, interval):
        lo, hi = interval
        exact = tri.exact_integral(lo, hi)
        result = tri.trapezoid_integral(lo, hi)
        assert result.error_bound >= 0.0
        slack = 1e-7 * max(1.0, abs(result.approx))
        assert exact <= result.approx + slack
        assert exact >= result.approx - result.error_bound - slack

    @given(raw_trinomials())
    @settings(max_examples=100, deadline=None)
    def test_discriminant_extremes_are_valid(self, tri):
        # by construction b^2 <= 4ac, including the |b| = 2*sqrt(ac)
        # boundary where D touches (but never crosses) zero.
        assert tri.b * tri.b <= 4.0 * tri.a * tri.c * (1.0 + 1e-12) + 1e-300
        r = tri.trapezoid_integral(0.0, 1.0)
        assert math.isfinite(r.approx) and math.isfinite(r.error_bound)


class TestIntegralResult:
    def test_addition_accumulates_both_fields(self):
        total = IntegralResult(1.0, 0.1) + IntegralResult(2.0, 0.2)
        assert total.approx == pytest.approx(3.0)
        assert total.error_bound == pytest.approx(0.3)

    def test_lower_upper(self):
        r = IntegralResult(5.0, 1.0)
        assert r.lower == 4.0 and r.upper == 5.0
