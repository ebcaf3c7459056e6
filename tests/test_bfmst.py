"""Correctness tests for the BFMST search algorithm — the paper's core.

Headline property: **BFMST returns exactly the linear scan's answer**
for any dataset, tree type, k, and query window (the paper's algorithm
is exact, not approximate).  Also covered: heuristic ablations, error
handling, statistics, and the self-query sanity check (a slice of an
indexed trajectory finds its source with dissimilarity ~0).
"""

import random

import pytest

from repro import TREES, RTree3D, TBTree, Trajectory, generate_gstd
from repro.search.bfmst import bfmst_search
from repro.search.linear_scan import linear_scan_kmst
from repro.datagen import make_query
from repro.exceptions import QueryError, TemporalCoverageError

from conftest import inserted, packed


def ids(matches):
    return [m.trajectory_id for m in matches]


@pytest.fixture(
    scope="module",
    params=["rtree", "tbtree", "rtree-packed", "tbtree-packed"],
)
def tree_and_dataset(request, small_dataset):
    """Both trees as insertion grows them, plus the two packed layouts
    ``bulk_insert`` gives an empty R-tree / TB-tree."""
    kind, _, layout = request.param.partition("-")
    index = (packed if layout else inserted)(TREES[kind], small_dataset)
    index.finalize()
    return index, small_dataset


class TestAgainstLinearScan:
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("length", [0.05, 0.25])
    def test_matches_ground_truth(self, tree_and_dataset, k, length):
        index, dataset = tree_and_dataset
        rng = random.Random(k * 100 + int(length * 100))
        for _ in range(5):
            query, period = make_query(dataset, length, rng)
            got, stats = bfmst_search(index, query, period, k=k)
            want = linear_scan_kmst(dataset, query, period, k=k, exact=True)
            assert ids(got) == ids(want)
            for g, w in zip(got, want):
                # the certified interval of the returned value must
                # contain the exact metric
                slack = 1e-7 * max(1.0, w.dissim)
                assert g.lower - slack <= w.dissim <= g.upper + slack

    def test_self_query_finds_source(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(42)
        query, period = make_query(dataset, 0.1, rng)
        # make_query slices a real trajectory: its source must win with
        # dissimilarity ~0.
        got, _stats = bfmst_search(index, query, period, k=1)
        truth = linear_scan_kmst(dataset, query, period, k=1, exact=True)
        assert ids(got) == ids(truth)
        assert got[0].dissim == pytest.approx(0.0, abs=1e-9)

    def test_k_exceeding_dataset_returns_all(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(1)
        query, period = make_query(dataset, 0.1, rng)
        got, _ = bfmst_search(index, query, period, k=len(dataset) + 10)
        assert len(got) == len(dataset)
        want = linear_scan_kmst(dataset, query, period, k=len(dataset), exact=True)
        assert ids(got) == ids(want)

    def test_results_sorted_ascending(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(2)
        query, period = make_query(dataset, 0.15, rng)
        got, _ = bfmst_search(index, query, period, k=10)
        values = [m.dissim for m in got]
        assert values == sorted(values)

    def test_exclude_ids(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(3)
        query, period = make_query(dataset, 0.1, rng)
        best, _ = bfmst_search(index, query, period, k=1)
        source = best[0].trajectory_id
        got, _ = bfmst_search(index, query, period, k=1, exclude_ids={source})
        assert got[0].trajectory_id != source
        want = linear_scan_kmst(dataset, query, period, k=1, exclude_ids={source}, exact=True)
        assert ids(got) == ids(want)


class TestHeuristicAblations:
    @pytest.mark.parametrize(
        "h1,h2",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_same_answers_with_any_heuristic_combination(
        self, tree_and_dataset, h1, h2
    ):
        index, dataset = tree_and_dataset
        rng = random.Random(17)
        query, period = make_query(dataset, 0.1, rng)
        got, _ = bfmst_search(
            index, query, period, k=3, use_heuristic1=h1, use_heuristic2=h2
        )
        want = linear_scan_kmst(dataset, query, period, k=3, exact=True)
        assert ids(got) == ids(want)

    def test_heuristic2_reduces_node_accesses(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(23)
        query, period = make_query(dataset, 0.05, rng)
        _, with_h2 = bfmst_search(index, query, period, k=1, use_heuristic2=True)
        _, without = bfmst_search(index, query, period, k=1, use_heuristic2=False)
        assert with_h2.node_accesses <= without.node_accesses
        assert with_h2.terminated_early or (
            with_h2.node_accesses == without.node_accesses
        )


class TestValidationAndStats:
    def test_bad_k_rejected(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(4)
        query, period = make_query(dataset, 0.1, rng)
        with pytest.raises(QueryError):
            bfmst_search(index, query, period, k=0)

    def test_inverted_period_rejected(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(5)
        query, period = make_query(dataset, 0.1, rng)
        with pytest.raises(QueryError):
            bfmst_search(index, query, (period[1], period[0]), k=1)

    def test_query_must_cover_period(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(6)
        query, period = make_query(dataset, 0.1, rng)
        with pytest.raises(TemporalCoverageError):
            bfmst_search(index, query, (period[0] - 100.0, period[1]), k=1)

    def test_empty_index_returns_nothing(self):
        query = Trajectory(-1, [(0, 0, 0), (1, 1, 1)])
        matches, stats = bfmst_search(RTree3D(), query, (0.0, 1.0), k=3)
        assert matches == []
        assert stats.node_accesses == 0

    def test_stats_populated(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(8)
        query, period = make_query(dataset, 0.05, rng)
        _, stats = bfmst_search(index, query, period, k=1)
        assert stats.total_nodes == index.num_nodes
        assert 0 < stats.node_accesses <= stats.total_nodes + 1
        assert stats.leaf_accesses > 0
        assert stats.entries_processed > 0
        assert stats.candidates_created > 0
        assert 0.0 <= stats.pruning_power < 1.0

    def test_pruning_power_high_on_short_queries(self, small_dataset):
        """The paper's Figure 10 claim at our scale: the 3D R-tree
        prunes the vast majority of nodes for 5% queries."""
        index = RTree3D()
        index.bulk_insert(small_dataset)
        index.finalize()
        rng = random.Random(9)
        total = 0.0
        n = 5
        for _ in range(n):
            query, period = make_query(small_dataset, 0.05, rng)
            _, stats = bfmst_search(index, query, period, k=1)
            total += stats.pruning_power
        assert total / n > 0.7

    def test_refine_off_still_returns_same_set(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(10)
        query, period = make_query(dataset, 0.1, rng)
        refined, _ = bfmst_search(index, query, period, k=5, refine=True)
        raw, _ = bfmst_search(index, query, period, k=5, refine=False)
        assert set(ids(refined)) == set(ids(raw))

    def test_matches_marked_exact(self, tree_and_dataset):
        index, dataset = tree_and_dataset
        rng = random.Random(11)
        query, period = make_query(dataset, 0.1, rng)
        got, _ = bfmst_search(index, query, period, k=3)
        assert all(m.exact for m in got)
        for m in got:
            assert m.lower <= m.dissim == m.upper


class TestRandomisedEquivalence:
    """Many random small worlds — the strongest correctness evidence."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_worlds(self, seed):
        dataset = generate_gstd(
            12 + seed, samples_per_object=25, seed=seed, sampling_jitter=0.4
        )
        for cls in (RTree3D, TBTree):
            for build in (packed, inserted):
                index = build(cls, dataset, page_size=512)  # deep trees
                index.finalize()
                rng = random.Random(seed)
                for k in (1, 4):
                    query, period = make_query(dataset, 0.2, rng)
                    got, _ = bfmst_search(index, query, period, k=k)
                    want = linear_scan_kmst(
                        dataset, query, period, k=k, exact=True
                    )
                    assert ids(got) == ids(want), (
                        f"seed={seed} tree={cls.__name__} "
                        f"{build.__name__} k={k}"
                    )
