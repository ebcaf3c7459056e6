"""The metric facts about exact DISSIM that the search leans on.

* **Additivity over time.**  DISSIM is an integral of distance, so
  over ``[a, c]`` it is the sum over ``[a, b]`` and ``[b, c]``.  A
  candidate's coverage record (:class:`repro.PartialDissim`) adds its
  retrieved windows on exactly this fact, and splitting a part by time
  would too.
* **Symmetry.**  ``DISSIM(Q, T) == DISSIM(T, Q)``, bit for bit.
* **The triangle inequality** over a common period, which a pivot
  bound ``|D(Q, P) - D(P, T)| <= D(Q, T)`` needs.

Each is checked on ``dissim_exact`` (the closed-form integral).  The
tolerances come from that integral's accuracy: every closed-form
piece is within ``rel=1e-9, abs=1e-12`` of a 400-digit reference
(``tests/test_trinomial.py``), and a DISSIM is a sum of at most ~20
non-negative pieces.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import dissim_exact

from conftest import cotemporal_trajectories, cotemporal_trajectory_pairs

# Two sides, each a sum of pieces within 1e-9 relative (+ 1e-12
# absolute per piece) of the true integral: the sides may differ by
# twice the relative error, plus the pieces' absolute floors.
PIECE_REL = 2e-9
PIECE_ABS = 1e-10


def _period(lo_frac: float, hi_frac: float, total: float) -> tuple[float, float]:
    lo, hi = sorted((lo_frac, hi_frac))
    return lo * total, hi * total


class TestAdditivity:
    @given(
        cotemporal_trajectory_pairs(),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_inside_period(self, pair, f_lo, f_hi, f_cut):
        """Cutting at an arbitrary instant ``b`` splits the piece
        around it in two: both sides carry their own rounding."""
        q, t = pair
        a, c = _period(f_lo, f_hi, q.t_end)
        b = a + f_cut * (c - a)
        assume(a < b < c)
        whole = dissim_exact(q, t, (a, c))
        parts = dissim_exact(q, t, (a, b)) + dissim_exact(q, t, (b, c))
        assert parts == pytest.approx(whole, rel=PIECE_REL, abs=PIECE_ABS)

    @given(cotemporal_trajectory_pairs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_split_at_sample_instant(self, pair, data):
        """Cutting at a sampling instant keeps every piece as it was;
        only the grouping of the sum changes, so the sides agree to
        summation rounding: ``n`` additions, each within one ulp."""
        q, t = pair
        instants = sorted(
            {p.t for tr in (q, t) for p in tr if q.t_start < p.t < q.t_end}
        )
        assume(instants)
        b = data.draw(st.sampled_from(instants))
        a, c = q.t_start, q.t_end
        whole = dissim_exact(q, t, (a, c))
        parts = dissim_exact(q, t, (a, b)) + dissim_exact(q, t, (b, c))
        assert parts == pytest.approx(whole, rel=1e-13, abs=1e-13)


class TestSymmetry:
    @given(cotemporal_trajectory_pairs(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_exact(self, pair, f_lo, f_hi):
        """Swapping the arguments negates every relative position and
        velocity; the trinomial squares them, so each piece and the sum
        are the same floats."""
        q, t = pair
        period = _period(f_lo, f_hi, q.t_end)
        assume(period[0] < period[1])
        assert dissim_exact(q, t, period).hex() == dissim_exact(t, q, period).hex()


class TestTriangleInequality:
    @given(cotemporal_trajectories(3), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_over_common_period(self, triple, f_lo, f_hi):
        """The distance obeys it at every instant, so its integral does
        over any common period, up to each side's own rounding."""
        p, q, r = triple
        period = _period(f_lo, f_hi, p.t_end)
        assume(period[0] < period[1])
        pr = dissim_exact(p, r, period)
        pq = dissim_exact(p, q, period)
        qr = dissim_exact(q, r, period)
        slack = PIECE_REL * (pr + pq + qr) + 3 * PIECE_ABS
        assert pr <= pq + qr + slack
