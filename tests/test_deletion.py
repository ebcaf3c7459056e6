"""Tests for trajectory deletion (condense-tree) across all trees.

Contract: after deleting any subset of objects, the index must behave
exactly like one that never contained them — structural invariants
hold, searches match the linear scan over the surviving data, and
freed pages are recycled by later insertions.
"""

import random

import pytest

from repro import (
    RTree3D,
    TBTree,
    generate_gstd,
)
from repro.search.bfmst import bfmst_search
from repro.search.linear_scan import linear_scan_kmst
from repro.datagen import make_query
from repro.exceptions import IndexError_, TrajectoryError
from repro.index import NO_PAGE
from repro.trajectory import TrajectoryDataset

from conftest import inserted, packed
from test_indexes import check_structure


# Deletion's subject is the tree insertion grew; the two packed layouts
# ride along, because condensation assumes every node it has not
# touched holds ``min_fill`` and a packed tree must keep that promise.
TREES = {
    "RTree3D": (RTree3D, inserted),
    "TBTree": (TBTree, inserted),
    "RTree3D-packed": (RTree3D, packed),
    "TBTree-packed": (TBTree, packed),
}


def build(tree, dataset, page_size=512):
    cls, how = TREES[tree]
    return how(cls, dataset, page_size=page_size)


def surviving(dataset, removed_ids):
    return TrajectoryDataset(
        tr for tr in dataset if tr.object_id not in removed_ids
    )


@pytest.mark.parametrize("tree", TREES)
class TestDeleteBasics:
    def test_delete_removes_all_segments(self, tiny_dataset, tree):
        index = build(tree, tiny_dataset)
        victim = tiny_dataset.ids()[3]
        removed = index.delete_trajectory(victim)
        assert removed == tiny_dataset[victim].num_segments
        assert victim not in index.trajectory_ids
        assert all(
            e.trajectory_id != victim for e in index.leaf_entries()
        )
        assert index.num_entries == (
            tiny_dataset.total_segments() - removed
        )
        check_structure(index)

    def test_unknown_id_rejected(self, tiny_dataset, tree):
        index = build(tree, tiny_dataset)
        with pytest.raises(TrajectoryError):
            index.delete_trajectory(424242)

    def test_finalized_index_rejects_deletion(self, tiny_dataset, tree):
        index = build(tree, tiny_dataset)
        index.finalize()
        with pytest.raises(IndexError_):
            index.delete_trajectory(tiny_dataset.ids()[0])

    def test_delete_everything_empties_tree(self, tree):
        dataset = generate_gstd(6, samples_per_object=20, seed=3)
        index = build(tree, dataset)
        for oid in dataset.ids():
            index.delete_trajectory(oid)
        assert index.num_entries == 0
        assert index.root_page == NO_PAGE
        assert index.num_nodes == 0
        assert list(index.leaf_entries()) == []

    def test_pages_recycled_after_delete(self, tree):
        dataset = generate_gstd(8, samples_per_object=30, seed=5)
        index = build(tree, dataset)
        pages_before = index.pagefile.num_pages
        for oid in dataset.ids()[:4]:
            index.delete_trajectory(oid)
        assert index._free_pages  # something was condensed away
        # re-inserting reuses freed pages instead of growing the file
        fresh = generate_gstd(3, samples_per_object=30, seed=99)
        for i, tr in enumerate(fresh):
            index.insert(tr.with_id(1000 + i))
        grown = index.pagefile.num_pages - pages_before
        assert grown == 0 or not index._free_pages  # free pages go first
        if "packed" not in tree:
            # a packed tree starts on the fewest pages that hold the
            # data, full leaves and all; insertion leaves the slack
            # that makes the freed pages (nearly) enough
            assert grown <= 2
        check_structure(index)


@pytest.mark.parametrize("tree", TREES)
class TestSearchAfterDeletion:
    def test_search_matches_scan_over_survivors(self, tree):
        dataset = generate_gstd(20, samples_per_object=30, seed=9)
        index = build(tree, dataset)
        rng = random.Random(1)
        removed = set(rng.sample(dataset.ids(), 7))
        for oid in removed:
            index.delete_trajectory(oid)
        check_structure(index)
        index.finalize()
        rest = surviving(dataset, removed)
        for seed in range(4):
            query, period = make_query(rest, 0.25, random.Random(seed))
            got, _ = bfmst_search(index, query, period, k=3)
            want = linear_scan_kmst(rest, query, period, k=3, exact=True)
            assert [m.trajectory_id for m in got] == [
                m.trajectory_id for m in want
            ]

    def test_interleaved_delete_and_insert(self, tree):
        dataset = generate_gstd(12, samples_per_object=25, seed=4)
        extra = generate_gstd(4, samples_per_object=25, seed=44)
        index = build(tree, dataset)
        live = {tr.object_id: tr for tr in dataset}
        rng = random.Random(6)
        for i, tr in enumerate(extra):
            victim = rng.choice(sorted(live))
            index.delete_trajectory(victim)
            del live[victim]
            newcomer = tr.with_id(500 + i)
            index.insert(newcomer)
            live[newcomer.object_id] = newcomer
        check_structure(index)
        rest = TrajectoryDataset(live.values())
        assert index.num_entries == rest.total_segments()
        query, period = make_query(rest, 0.3, random.Random(2))
        got, _ = bfmst_search(index, query, period, k=2)
        want = linear_scan_kmst(rest, query, period, k=2, exact=True)
        assert [m.trajectory_id for m in got] == [
            m.trajectory_id for m in want
        ]


class TestTBTreeDeletionSpecifics:
    def test_other_chains_intact_after_delete(self):
        dataset = generate_gstd(10, samples_per_object=60, seed=8)
        index = inserted(TBTree, dataset, page_size=512)  # multi-leaf chains
        index.delete_trajectory(dataset.ids()[0])
        index.delete_trajectory(dataset.ids()[5])
        for tr in dataset:
            if tr.object_id in (dataset.ids()[0], dataset.ids()[5]):
                assert index.trajectory_segments(tr.object_id) == []
                continue
            got = [e.segment for e in index.trajectory_segments(tr.object_id)]
            assert got == list(tr.segments())

    def test_leaf_purity_preserved(self):
        dataset = generate_gstd(10, samples_per_object=60, seed=8)
        index = inserted(TBTree, dataset, page_size=512)
        for oid in dataset.ids()[:5]:
            index.delete_trajectory(oid)
        for node in index.nodes():
            if node.is_leaf:
                owners = {e.trajectory_id for e in node.entries}
                assert len(owners) == 1
