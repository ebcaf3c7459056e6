"""Tests for the pruning bounds (Definitions 3-6, Lemmas 2-4).

The headline properties, checked on randomly generated partial
retrievals:

* ``OPTDISSIM <= exact DISSIM <= PESDISSIM`` with the true ``V_max``,
* ``OPTDISSIMINC <= exact DISSIM`` whenever ``mindist`` really lower
  bounds the distance over the unretrieved gaps,
* ``MINDISSIMINC`` is the minimum of its two ingredients.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PartialDissim, dissim_exact, distance_at, mindissim_inc
from repro.distance import IntegralResult, segment_dissim
from repro.distance.bounds import _optimistic_gap, _pessimistic_gap
from repro.exceptions import QueryError

from conftest import cotemporal_trajectory_pairs


def build_partial(q, t, keep_segments):
    """A PartialDissim for t with only ``keep_segments`` (by index)
    retrieved."""
    partial = PartialDissim(q.t_start, q.t_end)
    for k in sorted(keep_segments):
        seg = t.segment(k)
        total, d_lo, d_hi = segment_dissim(q, seg, seg.ts, seg.te)
        partial.add_interval(seg.ts, seg.te, total, d_lo, d_hi)
    return partial


class TestRecordKeeping:
    @pytest.mark.parametrize(
        "t_start, t_end",
        [(5.0, 5.0), (0.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)],
    )
    def test_empty_period_rejected(self, t_start, t_end):
        with pytest.raises(QueryError):
            PartialDissim(t_start, t_end)

    def test_interval_outside_period_rejected(self):
        p = PartialDissim(0.0, 10.0)
        with pytest.raises(QueryError):
            p.add_interval(8.0, 12.0, IntegralResult(1.0, 0.0), 1.0, 1.0)

    def test_overlapping_interval_rejected(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(2.0, 5.0, IntegralResult(1.0, 0.0), 1.0, 1.0)
        with pytest.raises(QueryError):
            p.add_interval(4.0, 6.0, IntegralResult(1.0, 0.0), 1.0, 1.0)
        with pytest.raises(QueryError):
            p.add_interval(0.0, 3.0, IntegralResult(1.0, 0.0), 1.0, 1.0)

    def test_adjacent_intervals_coalesce(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(0.0, 4.0, IntegralResult(1.0, 0.1), 2.0, 3.0)
        p.add_interval(4.0, 10.0, IntegralResult(2.0, 0.2), 3.0, 1.0)
        assert len(p.intervals) == 1
        iv = p.intervals[0]
        assert (iv.t_lo, iv.t_hi) == (0.0, 10.0)
        assert iv.integral.approx == pytest.approx(3.0)
        assert iv.integral.error_bound == pytest.approx(0.3)
        assert (iv.d_lo, iv.d_hi) == (2.0, 1.0)
        assert p.is_complete()

    def test_bridge_sums_left_to_right(self):
        """A stretch that bridges two rows merges as ``(prev + new) +
        next`` — the order every earlier bound was computed in."""
        p = PartialDissim(0.0, 6.0)
        p.add_interval(0.0, 2.0, IntegralResult(0.1, 0.1), 1.0, 1.0)
        p.add_interval(4.0, 6.0, IntegralResult(0.3, 0.3), 1.0, 1.0)
        p.add_interval(2.0, 4.0, IntegralResult(0.2, 0.2), 1.0, 1.0)
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        (iv,) = p.intervals
        assert iv.integral == IntegralResult((0.1 + 0.2) + 0.3, (0.1 + 0.2) + 0.3)

    def test_out_of_order_insertion(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(6.0, 8.0, IntegralResult(1.0, 0.0), 1.0, 1.0)
        p.add_interval(0.0, 2.0, IntegralResult(1.0, 0.0), 1.0, 1.0)
        p.add_interval(2.0, 6.0, IntegralResult(1.0, 0.0), 1.0, 1.0)
        assert [(\
            iv.t_lo, iv.t_hi) for iv in p.intervals] == [(0.0, 8.0)]
        assert not p.is_complete()

    def test_gap_enumeration_with_boundaries(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(2.0, 4.0, IntegralResult(1.0, 0.0), 7.0, 8.0)
        p.add_interval(6.0, 9.0, IntegralResult(1.0, 0.0), 9.0, 3.0)
        gaps = p.gaps()
        assert gaps == [
            (0.0, 2.0, None, 7.0),
            (4.0, 6.0, 8.0, 9.0),
            (9.0, 10.0, 3.0, None),
        ]

    def test_covered_duration(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(1.0, 3.0, IntegralResult(0.0, 0.0), 0.0, 0.0)
        assert p.covered_duration() == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_vmax_rejected(self, bad):
        p = PartialDissim(0.0, 10.0)
        with pytest.raises(QueryError):
            p.optdissim(bad)
        with pytest.raises(QueryError):
            p.pesdissim(bad)
        with pytest.raises(QueryError):
            p.optdissim_inc(bad)


class TestHandComputedBounds:
    def test_no_coverage_bounds(self):
        p = PartialDissim(0.0, 10.0)
        assert p.optdissim(5.0) == 0.0
        # With no segment seen, nothing bounds the object's position:
        # the pessimistic estimate is infinite.
        assert p.pesdissim(5.0) == float("inf")

    def test_trailing_gap(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(0.0, 6.0, IntegralResult(12.0, 0.0), 2.0, 4.0)
        # gap [6, 10], distance 4 at t=6.
        # optimistic: approach at vmax=1 -> 4,3,2,1,0 area = 8 - hits 0
        # at t=10 exactly: trapezoid (4+0)/2*4 = 8.
        assert p.optdissim(1.0) == pytest.approx(12.0 + 8.0)
        # pessimistic: diverge to 8: (4+8)/2*4 = 24.
        assert p.pesdissim(1.0) == pytest.approx(12.0 + 24.0)

    def test_interior_gap_v_shape(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(0.0, 4.0, IntegralResult(0.0, 0.0), 0.0, 3.0)
        p.add_interval(8.0, 10.0, IntegralResult(0.0, 0.0), 3.0, 0.0)
        # gap [4, 8]: d=3 on both sides, vmax=1: V bottoms at 1 at t=6.
        # area = 2 legs of trapezoid (3+1)/2*2 = 4 each = 8.
        assert p.optdissim(1.0) == pytest.approx(8.0)
        # Λ-shape peaks at 5: (3+5)/2*2 * 2 = 16.
        assert p.pesdissim(1.0) == pytest.approx(16.0)

    def test_interior_gap_touching_zero(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(0.0, 4.0, IntegralResult(0.0, 0.0), 0.0, 1.0)
        p.add_interval(8.0, 10.0, IntegralResult(0.0, 0.0), 1.0, 0.0)
        # vmax=1, gap of 4: legs reach 0 after 1 unit each:
        # triangles 0.5 + 0.5 = 1.
        assert p.optdissim(1.0) == pytest.approx(1.0)

    def test_optdissim_inc(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(0.0, 4.0, IntegralResult(7.0, 0.5), 1.0, 1.0)
        # retrieved lower (7 - 0.5) + gap 6 * mindist 2 = 18.5
        assert p.optdissim_inc(2.0) == pytest.approx(18.5)

    def test_mindissim_inc_minimum_of_ingredients(self):
        p = PartialDissim(0.0, 10.0)
        p.add_interval(0.0, 9.0, IntegralResult(100.0, 0.0), 1.0, 1.0)
        # node term: 2 * 10 = 20; candidate term: 100 + 2*1 = 102.
        assert mindissim_inc(2.0, 0.0, 10.0, [p]) == pytest.approx(20.0)
        # with a cheap candidate the candidate term wins
        q = PartialDissim(0.0, 10.0)
        q.add_interval(0.0, 9.0, IntegralResult(1.0, 0.0), 1.0, 1.0)
        assert mindissim_inc(2.0, 0.0, 10.0, [p, q]) == pytest.approx(3.0)

    def test_mindissim_inc_no_candidates(self):
        assert mindissim_inc(3.0, 0.0, 4.0, []) == pytest.approx(12.0)
        assert mindissim_inc(3.0, 0.0, 4.0, None) == pytest.approx(12.0)


@st.composite
def coverage_records(draw):
    """A query period and disjoint retrieved intervals in a random
    insertion order: cut points that make adjacent runs, one-ulp
    slivers, and re-insertions of intervals already in the list."""
    t_start = draw(st.floats(min_value=-100.0, max_value=100.0))
    t_end = t_start + draw(st.floats(min_value=1e-3, max_value=1e3))
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=10))
    cuts = {t_start, t_end}
    for f in fractions:
        cut = min(t_start + f * (t_end - t_start), t_end)
        cuts.add(cut)
        if draw(st.booleans()):
            cuts.add(math.nextafter(cut, math.inf))
    cuts = sorted(c for c in cuts if c <= t_end)
    spans = [
        (lo, hi)
        for lo, hi in zip(cuts, cuts[1:])
        if draw(st.booleans())
    ]
    value = st.floats(min_value=0.0, max_value=100.0)
    items = [
        (lo, hi, draw(value), draw(value), draw(value), draw(value))
        for lo, hi in spans
    ]
    if items:
        items += draw(st.lists(st.sampled_from(items), max_size=3))
    order = draw(st.permutations(items))
    return t_start, t_end, order


class TestDefinition:
    @given(
        coverage_records(),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_equal_their_definition(self, record, vmax, mindist):
        """The record's bounds are, bit for bit, the certified sums of
        its coalesced intervals plus the gap terms over ``gaps()``."""
        t_start, t_end, order = record
        p = PartialDissim(t_start, t_end)
        eps = (t_end - t_start) * 1e-9
        accepted = []
        seen = set()
        for lo, hi, approx, err, d_lo, d_hi in order:
            added = p.add_interval(lo, hi, IntegralResult(approx, err), d_lo, d_hi)
            if (lo, hi) in seen:
                assert not added
            seen.add((lo, hi))
            if added:
                accepted.append(approx)
            # Added or absorbed, the stretch is now covered.
            assert any(
                iv.t_lo - eps <= lo and hi <= iv.t_hi + eps
                for iv in p.intervals
            )

        ivs = p.intervals
        # Sorted, disjoint and coalesced: neighbours are more than the
        # slack apart.
        for iv in ivs:
            assert iv.t_lo < iv.t_hi
        for cur, nxt in zip(ivs, ivs[1:]):
            assert nxt.t_lo - cur.t_hi > eps
        assert math.isclose(
            math.fsum(iv.integral.approx for iv in ivs),
            math.fsum(accepted),
            rel_tol=1e-12,
            abs_tol=1e-12,
        )

        # gaps() is the complement of the intervals, with the distances
        # at the neighbouring interval ends.
        gaps = []
        cursor, prev_d = t_start, None
        for iv in ivs:
            if iv.t_lo - cursor > eps:
                gaps.append((cursor, iv.t_lo, prev_d, iv.d_lo))
            cursor, prev_d = iv.t_hi, iv.d_hi
        if t_end - cursor > eps:
            gaps.append((cursor, t_end, prev_d, None))
        assert p.gaps() == gaps

        total = IntegralResult(0.0, 0.0)
        for iv in ivs:
            total = total + iv.integral
        assert p.retrieved_integral() == total
        opt = inc = total.lower
        pes = total.upper
        for gap in gaps:
            opt += _optimistic_gap(*gap, vmax)
            pes += _pessimistic_gap(*gap, vmax)
            inc += mindist * (gap[1] - gap[0])
        assert p.optdissim(vmax).hex() == max(opt, 0.0).hex()
        assert p.pesdissim(vmax).hex() == pes.hex()
        assert p.optdissim_inc(mindist).hex() == max(inc, 0.0).hex()


class TestLemmas:
    @given(cotemporal_trajectory_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_lemma_2_and_3_bracket_exact_dissim(self, pair, rnd):
        """OPTDISSIM <= DISSIM <= PESDISSIM for any partial retrieval
        with the true V_max (Lemmas 2 and 3)."""
        q, t = pair
        exact = dissim_exact(q, t)
        vmax = q.max_speed() + t.max_speed()
        keep = [k for k in range(t.num_segments) if rnd.random() < 0.5]
        partial = build_partial(q, t, keep)
        slack = 1e-6 * max(1.0, exact)
        assert partial.optdissim(vmax) <= exact + slack
        assert partial.pesdissim(vmax) >= exact - slack

    @given(cotemporal_trajectory_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_definition_5_lower_bound(self, pair, rnd):
        """OPTDISSIMINC <= DISSIM when mindist really bounds the gap
        distance from below."""
        q, t = pair
        exact = dissim_exact(q, t)
        keep = [k for k in range(t.num_segments) if rnd.random() < 0.5]
        partial = build_partial(q, t, keep)
        # True minimum distance over the gaps (dense sampling, then
        # shrunk to stay a certain lower bound).
        gap_min = None
        for lo, hi, _d1, _d2 in partial.gaps():
            for i in range(33):
                # lo + (hi - lo) can round one ulp past the lifetime end
                at = min(lo + (hi - lo) * i / 32.0, q.t_end, t.t_end)
                d = distance_at(q, t, at)
                gap_min = d if gap_min is None else min(gap_min, d)
        mindist = 0.0 if gap_min is None else max(gap_min - 1e-6, 0.0) * 0.99
        slack = 1e-6 * max(1.0, exact)
        assert partial.optdissim_inc(mindist) <= exact + slack

    @given(cotemporal_trajectory_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_bounds_tighten_with_coverage(self, pair, rnd):
        """Adding a retrieved interval never loosens the bracket."""
        q, t = pair
        vmax = q.max_speed() + t.max_speed()
        order = list(range(t.num_segments))
        rnd.shuffle(order)
        partial = PartialDissim(q.t_start, q.t_end)
        prev_opt = partial.optdissim(vmax)
        prev_pes = partial.pesdissim(vmax)
        for k in order:
            seg = t.segment(k)
            total, d_lo, d_hi = segment_dissim(q, seg, seg.ts, seg.te)
            partial.add_interval(seg.ts, seg.te, total, d_lo, d_hi)
            opt = partial.optdissim(vmax)
            pes = partial.pesdissim(vmax)
            # Monotone up to the trapezoid approximation error carried
            # by the retrieved intervals (OPT uses certified lowers,
            # PES certified uppers, so each may give back that much).
            err = partial.retrieved_integral().error_bound
            slack = err + 1e-6 * max(1.0, opt)
            assert opt >= prev_opt - slack
            if pes != float("inf") and prev_pes != float("inf"):
                assert pes <= prev_pes + slack
            prev_opt, prev_pes = opt, pes

    @given(cotemporal_trajectory_pairs())
    @settings(max_examples=60, deadline=None)
    def test_complete_coverage_collapses_bounds(self, pair):
        q, t = pair
        vmax = q.max_speed() + t.max_speed()
        partial = build_partial(q, t, range(t.num_segments))
        assert partial.is_complete()
        exact = dissim_exact(q, t)
        width = partial.retrieved_integral().error_bound
        slack = 1e-6 * max(1.0, exact)
        assert partial.pesdissim(vmax) - partial.optdissim(vmax) <= width + slack
