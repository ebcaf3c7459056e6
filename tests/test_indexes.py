"""Structural and behavioural tests for the 3D R-tree and TB-tree.

Invariants checked:

* every parent entry's MBB contains its child's actual MBB,
* fanout never exceeds the page-derived capacity,
* every inserted segment is retrievable (by traversal and range query),
* range query agrees with brute force (property test),
* TB-tree leaves are single-trajectory and the leaf chain enumerates a
  trajectory's segments in temporal order,
* the indexes survive finalize (flush + buffer shrink) intact.
"""

import random

import pytest

from repro import MBR3D, TREES, RTree3D, TBTree, Trajectory, generate_gstd
from repro.exceptions import IndexError_, TrajectoryError
from repro.index import NO_PAGE, LeafEntry
from repro.search import range_query_brute_force
from repro.geometry import MBR2D

from conftest import inserted, packed


def check_structure(index, min_fill=False):
    """Assert the R-tree family invariants on every node; with
    ``min_fill`` also the packed trees' fill guarantee (every non-root
    node but a TB-tree leaf, which is cut per trajectory, holds at
    least ``index.min_fill`` entries)."""
    seen_entries = 0
    for node in index.nodes():
        if node.chained:
            node.to_bytes(index.page_size)  # raises on page overflow
        else:
            assert len(node.entries) <= index.capacity
            if min_fill and node.page_id != index.root_page:
                assert len(node.entries) >= index.min_fill, (
                    f"node {node.page_id} (level {node.level}) holds "
                    f"{len(node.entries)} < min_fill {index.min_fill}"
                )
        if node.is_leaf:
            seen_entries += len(node.entries)
        else:
            for e in node.entries:
                child = index.read_node(e.child_page)
                assert child.level == node.level - 1
                assert e.mbr.contains(child.mbr()), (
                    f"parent {node.page_id} entry does not contain "
                    f"child {child.page_id}"
                )
    assert seen_entries == index.num_entries
    assert index.count_nodes() == index.num_nodes


@pytest.fixture(
    scope="module",
    params=["rtree", "tbtree", "rtree-packed", "tbtree-packed"],
)
def built_index(request, small_dataset):
    """Both trees built by insertion and by the static path — the
    common invariants hold for both layouts."""
    kind, _, layout = request.param.partition("-")
    index = (packed if layout else inserted)(TREES[kind], small_dataset)
    index.finalize()
    return index


class TestCommonInvariants:
    def test_structure(self, built_index, request):
        check_structure(
            built_index, min_fill="packed" in request.node.callspec.id
        )

    def test_all_segments_indexed(self, built_index, small_dataset):
        assert built_index.num_entries == small_dataset.total_segments()
        by_id = {}
        for e in built_index.leaf_entries():
            by_id.setdefault(e.trajectory_id, []).append(e)
        for tr in small_dataset:
            got = sorted(by_id[tr.object_id], key=lambda e: e.segment.ts)
            want = list(tr.segments())
            assert [e.segment for e in got] == want

    def test_max_speed_tracked(self, built_index, small_dataset):
        assert built_index.max_speed == pytest.approx(small_dataset.max_speed())

    def test_height_consistent(self, built_index):
        root = built_index.read_node(built_index.root_page)
        assert built_index.height == root.level + 1
        assert built_index.height >= 2  # 60 objects cannot fit one leaf

    def test_range_search_matches_brute_force(self, built_index, small_dataset):
        rng = random.Random(7)
        t0, t1 = small_dataset.time_span()
        for _ in range(10):
            cx, cy = rng.random(), rng.random()
            w = rng.uniform(0.05, 0.3)
            ta = rng.uniform(t0, t1 - 1.0)
            tb = ta + rng.uniform(0.0, (t1 - ta) / 2)
            box = MBR3D(cx - w, cy - w, ta, cx + w, cy + w, tb)
            got = {e.trajectory_id for e in built_index.range_search(box)}
            want = set()
            for tr in small_dataset:
                for seg in tr.segments():
                    if seg.mbr().intersects(box):
                        want.add(tr.object_id)
                        break
            assert got == want

    def test_non_integer_id_rejected(self, built_index):
        with pytest.raises(TrajectoryError):
            built_index.__class__().insert(
                Trajectory("str-id", [(0, 0, 0), (1, 1, 1)])
            )

    def test_duplicate_trajectory_rejected(self):
        ds = generate_gstd(3, samples_per_object=10, seed=1)
        index = RTree3D()
        index.bulk_insert(ds)
        with pytest.raises(TrajectoryError):
            index.insert(ds[0])

    def test_insert_after_finalize_rejected(self, built_index):
        with pytest.raises(IndexError_):
            built_index.insert(Trajectory(999_999, [(0, 0, 0), (1, 1, 1)]))

    def test_finalize_shrinks_buffer(self, small_dataset):
        index = RTree3D()
        index.bulk_insert(small_dataset)
        index.finalize()
        assert index.buffer.capacity <= 1000
        # queries still work through the small buffer
        check_structure(index)

    def test_size_mb_positive(self, built_index):
        assert built_index.size_mb() > 0.0

    def test_empty_index_behaviour(self):
        index = RTree3D()
        assert index.height == 0
        assert index.root_page == NO_PAGE
        assert list(index.nodes()) == []
        assert index.range_search(MBR3D(0, 0, 0, 1, 1, 1)) == []
        with pytest.raises(IndexError_):
            index.mbr()


class TestRangeQueryExactness:
    def test_exact_range_query_agrees_with_brute_force(
        self, built_index, small_dataset
    ):
        from repro.search.range_query import range_query

        rng = random.Random(3)
        t0, t1 = small_dataset.time_span()
        for _ in range(8):
            cx, cy = rng.random(), rng.random()
            w = rng.uniform(0.05, 0.25)
            ta = rng.uniform(t0, t1 - 1.0)
            tb = ta + rng.uniform(1.0, (t1 - ta))
            window = MBR2D(cx - w, cy - w, cx + w, cy + w)
            got = range_query(built_index, window, ta, tb)
            want = range_query_brute_force(small_dataset, window, ta, tb)
            assert got == want


class TestRTreeSpecific:
    def test_incremental_insert_matches_bulk_content(self, tiny_dataset):
        a = RTree3D()
        for tr in tiny_dataset:
            a.insert(tr)
        check_structure(a)
        assert a.num_entries == tiny_dataset.total_segments()

    def test_bulk_load_requires_empty_tree(self, tiny_dataset):
        index = RTree3D()
        index.insert(next(iter(tiny_dataset)))
        with pytest.raises(IndexError_):
            index.bulk_insert([])

    def test_bulk_insert_of_nothing_is_a_noop(self):
        for cls in TREES.values():
            index = cls()
            index.bulk_insert([])
            assert index.root_page == NO_PAGE
            assert index.num_nodes == 0

    def test_packing_is_denser_than_insertion(self, small_dataset):
        grown = inserted(RTree3D, small_dataset)
        assert packed(RTree3D, small_dataset).num_nodes <= grown.num_nodes


class TestTBTreeSpecific:
    def test_leaves_are_single_trajectory(self, small_dataset):
        index = inserted(TBTree, small_dataset)
        for node in index.nodes():
            if node.is_leaf:
                owners = {e.trajectory_id for e in node.entries}
                assert len(owners) == 1
                assert node.owner_id in owners

    def test_leaf_chain_enumerates_in_order(self, small_dataset):
        index = inserted(TBTree, small_dataset)
        for tr in small_dataset:
            segs = index.trajectory_segments(tr.object_id)
            assert [e.segment for e in segs] == list(tr.segments())

    def test_leaf_chain_links_are_mutual(self, small_dataset):
        index = inserted(TBTree, small_dataset)
        for tr in small_dataset:
            chain = index.leaf_chain(tr.object_id)
            for prev, cur in zip(chain, chain[1:]):
                assert prev.next_leaf == cur.page_id
                assert cur.prev_leaf == prev.page_id

    def test_unknown_trajectory_chain_empty(self):
        index = TBTree()
        assert index.leaf_chain(12345) == []
        assert index.trajectory_segments(12345) == []

    def test_out_of_order_insertion_rejected(self):
        index = TBTree()
        tr = Trajectory(1, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        index.insert(tr)
        stale = (1, 0.0, 0.0, 0.2, 1.0, 1.0, 0.7)
        with pytest.raises(IndexError_):
            index.insert_row(stale)

    def test_interleaved_trajectory_insertion(self):
        """Segments of different objects arriving interleaved (the
        online MOD setting) still produce pure, ordered leaves."""
        a = Trajectory(1, [(float(i), 0.0, float(i)) for i in range(40)])
        b = Trajectory(2, [(0.0, float(i), float(i)) for i in range(40)])
        index = TBTree(page_size=512)  # small pages -> several leaves
        segs_a = [LeafEntry(1, s) for s in a.segments()]
        segs_b = [LeafEntry(2, s) for s in b.segments()]
        index.trajectory_ids.update([1, 2])
        for ea, eb in zip(segs_a, segs_b):
            index.insert_row(ea.row)
            index.insert_row(eb.row)
        index.num_entries = len(segs_a) + len(segs_b)
        assert [e.segment for e in index.trajectory_segments(1)] == [
            e.segment for e in segs_a
        ]
        assert [e.segment for e in index.trajectory_segments(2)] == [
            e.segment for e in segs_b
        ]
        for node in index.nodes():
            if node.is_leaf:
                assert len({e.trajectory_id for e in node.entries}) == 1
