"""Tests for incremental MST browsing (distance browsing)."""

import itertools
import random

import pytest

from repro import TREES, RTree3D, bfmst_browse, generate_gstd
from repro.search.linear_scan import linear_scan_kmst
from repro.datagen import make_query
from repro.exceptions import QueryError, TemporalCoverageError
from repro.trajectory import TrajectoryDataset


@pytest.fixture(scope="module", params=list(TREES))
def browse_setup(request, small_dataset):
    index = TREES[request.param]()
    index.bulk_insert(small_dataset)
    index.finalize()
    return index, small_dataset


class TestBrowsing:
    def test_full_enumeration_matches_exact_scan(self, browse_setup):
        index, dataset = browse_setup
        rng = random.Random(3)
        query, period = make_query(dataset, 0.15, rng)
        browsed = list(bfmst_browse(index, query, period))
        want = linear_scan_kmst(
            dataset, query, period, k=len(dataset), exact=True
        )
        assert [m.trajectory_id for m in browsed] == [
            m.trajectory_id for m in want
        ]
        for b, w in zip(browsed, want):
            assert b.dissim == pytest.approx(w.dissim, rel=1e-9, abs=1e-9)

    def test_prefix_equals_kmst(self, browse_setup):
        index, dataset = browse_setup
        rng = random.Random(4)
        query, period = make_query(dataset, 0.1, rng)
        first5 = list(itertools.islice(bfmst_browse(index, query, period), 5))
        want = linear_scan_kmst(dataset, query, period, k=5, exact=True)
        assert [m.trajectory_id for m in first5] == [
            m.trajectory_id for m in want
        ]

    def test_yields_in_nondecreasing_order(self, browse_setup):
        index, dataset = browse_setup
        rng = random.Random(5)
        query, period = make_query(dataset, 0.2, rng)
        values = [m.dissim for m in bfmst_browse(index, query, period)]
        assert values == sorted(values)

    def test_lazy_consumption_touches_fewer_nodes(self, browse_setup):
        """Taking just the best match must read far fewer nodes than
        enumerating everything."""
        index, dataset = browse_setup
        rng = random.Random(6)
        query, period = make_query(dataset, 0.05, rng)
        before = index.node_accesses
        gen = bfmst_browse(index, query, period)
        next(gen)
        first_cost = index.node_accesses - before
        gen.close()
        before = index.node_accesses
        list(bfmst_browse(index, query, period))
        full_cost = index.node_accesses - before
        assert first_cost < full_cost

    def test_exclude_ids(self, browse_setup):
        index, dataset = browse_setup
        rng = random.Random(7)
        query, period = make_query(dataset, 0.1, rng)
        best = next(iter(bfmst_browse(index, query, period)))
        second = next(
            iter(
                bfmst_browse(
                    index, query, period, exclude_ids={best.trajectory_id}
                )
            )
        )
        assert second.trajectory_id != best.trajectory_id

    def test_all_yields_marked_exact_for_covering_data(self, browse_setup):
        index, dataset = browse_setup
        rng = random.Random(8)
        query, period = make_query(dataset, 0.1, rng)
        for m in bfmst_browse(index, query, period):
            assert m.exact
            assert m.error_bound == 0.0

    def test_validation(self, browse_setup):
        index, dataset = browse_setup
        rng = random.Random(9)
        query, period = make_query(dataset, 0.1, rng)
        with pytest.raises(QueryError):
            next(bfmst_browse(index, query, (period[1], period[0])))
        with pytest.raises(TemporalCoverageError):
            next(bfmst_browse(index, query, (period[0] - 1e6, period[1])))


class TestNonCoveringCandidates:
    def test_partial_coverage_yields_upper_bounds_last(self):
        from repro import Trajectory

        full_a = Trajectory(1, [(0.0, 0.0, 0.0), (1.0, 0.0, 10.0)])
        full_b = Trajectory(2, [(0.0, 5.0, 0.0), (1.0, 5.0, 10.0)])
        half = Trajectory(3, [(0.0, 0.1, 0.0), (1.0, 0.1, 5.0)])
        index = RTree3D()
        for tr in (full_a, full_b, half):
            index.insert(tr)
        index.finalize()
        query = Trajectory(-1, [(0.0, 0.0, 0.0), (1.0, 0.0, 10.0)])
        out = list(bfmst_browse(index, query, (0.0, 10.0)))
        assert [m.trajectory_id for m in out] == [1, 2, 3]
        assert out[0].exact and out[1].exact
        assert not out[2].exact  # certified upper bound only
