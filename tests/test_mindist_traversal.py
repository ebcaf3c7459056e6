"""Tests for MINDIST(Q, N) and the best-first traversal.

MINDIST's contract (what Lemma 4 needs): for any segment stored under
a node and any instant in the common time window, the distance between
the query position and that segment's position is at least the node's
MINDIST.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TREES, RTree3D, Trajectory, generate_gstd, mindist
from repro.datagen import make_query
from repro.geometry import MBR3D
from repro.index import best_first_nodes
from repro.obs import query_trace

from conftest import inserted, packed


class TestMindist:
    def test_none_without_temporal_overlap(self):
        q = Trajectory(0, [(0, 0, 0), (1, 1, 10)])
        box = MBR3D(0, 0, 20, 1, 1, 30)
        assert mindist(q, box, 0, 10) is None

    def test_zero_when_query_enters_box(self):
        q = Trajectory(0, [(0, 0, 0), (10, 0, 10)])
        box = MBR3D(4, -1, 0, 6, 1, 10)
        assert mindist(q, box, 0, 10) == 0.0

    def test_positive_clearance(self):
        q = Trajectory(0, [(0, 5, 0), (10, 5, 10)])
        box = MBR3D(0, 0, 0, 10, 1, 10)
        assert mindist(q, box, 0, 10) == pytest.approx(4.0)

    def test_period_clipping_changes_answer(self):
        # Query approaches the box only late; restricting the period
        # to the early part must give a larger MINDIST.
        q = Trajectory(0, [(0, 10, 0), (0, 2, 10)])
        box = MBR3D(-1, 0, 0, 1, 1, 10)
        full = mindist(q, box, 0, 10)
        early = mindist(q, box, 0, 2)
        assert full == pytest.approx(1.0)
        assert early > full

    def test_instantaneous_overlap(self):
        q = Trajectory(0, [(0, 0, 0), (10, 0, 10)])
        box = MBR3D(20, 0, 10, 30, 1, 15)  # touches q's lifetime at t=10
        d = mindist(q, box, 0, 10)
        assert d == pytest.approx(10.0)

    def test_lower_bounds_contained_segments(self, small_dataset, small_rtree):
        """For every leaf node: MINDIST(Q, N) <= distance from Q to any
        sampled position of any segment in N (over the time window)."""
        rng = random.Random(5)
        query, (t0, t1) = make_query(small_dataset, 0.2, rng)
        for node in small_rtree.nodes():
            if not node.is_leaf:
                continue
            d = mindist(query, node.mbr(), t0, t1)
            if d is None:
                continue
            for e in node.entries[:10]:
                lo = max(e.segment.ts, t0, query.t_start)
                hi = min(e.segment.te, t1, query.t_end)
                if lo > hi:
                    continue
                for i in range(5):
                    t = lo + (hi - lo) * i / 4.0
                    actual = query.position_at(t).distance_to(
                        e.segment.position_at(t)
                    )
                    assert d <= actual + 1e-7


class TestBestFirstTraversal:
    def test_nondecreasing_mindist_order(self, small_dataset, small_rtree):
        rng = random.Random(8)
        query, (t0, t1) = make_query(small_dataset, 0.3, rng)
        dists = [d for d, _p, _n in best_first_nodes([small_rtree], query, t0, t1)]
        assert dists, "traversal yielded nothing"
        assert dists == sorted(dists)

    def test_visits_every_temporally_overlapping_leaf(
        self, small_dataset, small_rtree
    ):
        rng = random.Random(9)
        query, (t0, t1) = make_query(small_dataset, 0.2, rng)
        visited = {
            n.page_id
            for _d, _p, n in best_first_nodes([small_rtree], query, t0, t1)
        }
        for node in small_rtree.nodes():
            if node.is_leaf and node.mbr().overlaps_period(t0, t1):
                assert node.page_id in visited

    def test_empty_index_yields_nothing(self):
        q = Trajectory(0, [(0, 0, 0), (1, 1, 1)])
        assert list(best_first_nodes([RTree3D()], q, 0, 1)) == []

    def test_consuming_lazily_reads_fewer_nodes(self, small_dataset, small_rtree):
        rng = random.Random(10)
        query, (t0, t1) = make_query(small_dataset, 0.2, rng)
        before = small_rtree.node_accesses
        gen = best_first_nodes([small_rtree], query, t0, t1)
        next(gen)
        first_cost = small_rtree.node_accesses - before
        assert first_cost == 1  # only the root was read


@pytest.fixture(scope="module")
def both_layouts():
    """Both trees, packed and grown by insert, over one small set with
    small pages, so there are several levels and many leaves."""
    dataset = generate_gstd(30, samples_per_object=30, seed=4)
    trees = {}
    for kind, cls in sorted(TREES.items()):
        for build in (packed, inserted):
            index = build(cls, dataset, page_size=512)
            index.finalize()
            leaves = sorted(n.page_id for n in index.nodes() if n.is_leaf)
            trees[kind, build.__name__] = (index, leaves)
    return dataset, trees


def _overlaps(box, query, t0, t1):
    """The box's time extent meets the query period clipped to the
    query's lifetime (where :func:`mindist` is not ``None``)."""
    lo, hi = max(t0, query.t_start), min(t1, query.t_end)
    return max(box.tmin, lo) <= min(box.tmax, hi)


def _traced_walk(index, query, t0, t1, leaf_admit=None):
    with query_trace() as trace:
        walk = [
            (d, n.page_id, n.level)
            for d, _p, n in best_first_nodes(
                [index], query, t0, t1, leaf_admit=leaf_admit
            )
        ]
    return walk, trace.registry


class TestLeafAdmit:
    """A leaf the predicate refuses is dropped from the walk — at its
    parent's expansion, before its MINDIST, or at its pop — and nothing
    else about the walk changes."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_refused_leaves_vanish_and_cost_no_mindist(
        self, both_layouts, data
    ):
        dataset, trees = both_layouts
        index, leaves = trees[data.draw(st.sampled_from(sorted(trees)))]
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        length = data.draw(st.sampled_from([0.02, 0.1, 0.4, 1.0]))
        query, (t0, t1) = make_query(dataset, length, rng)
        dead = data.draw(st.sets(st.sampled_from(leaves)))

        full, full_reg = _traced_walk(index, query, t0, t1)
        kept, kept_reg = _traced_walk(
            index, query, t0, t1, leaf_admit=lambda _part, page: page not in dead
        )
        assert kept == [step for step in full if step[1] not in dead]

        # Only children inside the query period are scored or asked.
        expanded = [page for _d, page, level in full if level == 1]
        dead_children = sum(
            e.child_page in dead and _overlaps(e.mbr, query, t0, t1)
            for page in expanded
            for e in index.read_node(page).entries
        )
        assert (
            full_reg.value("index.mindist_evaluations")
            - kept_reg.value("index.mindist_evaluations")
            == dead_children
        )
        assert kept_reg.value("index.leaves_skipped") == dead_children

    def test_admit_is_never_asked_about_a_leaf_outside_the_period(
        self, both_layouts
    ):
        """An entry that misses the query period is dropped before
        ``leaf_admit`` or MINDIST sees it."""
        dataset, trees = both_layouts
        rng = random.Random(3)
        passed_by = 0
        for index, _leaves in trees.values():
            for length in (0.02, 0.1, 0.4):
                query, (t0, t1) = make_query(dataset, length, rng)
                asked = []
                walk = best_first_nodes(
                    [index], query, t0, t1,
                    leaf_admit=lambda _part, page: asked.append(page) or True,
                )
                entries = {}
                for _d, _p, node in walk:
                    if node.level == 1:
                        entries.update((e.child_page, e.mbr) for e in node.entries)
                assert asked
                assert all(_overlaps(entries[p], query, t0, t1) for p in asked)
                passed_by += sum(
                    not _overlaps(box, query, t0, t1) for box in entries.values()
                )
        assert passed_by  # the walks expand nodes with such children
