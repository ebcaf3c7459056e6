"""The TB-tree write path: constant work per appended segment, and the
same pages as the segment-by-segment reference.

The reference (:class:`PerSegmentTB`) is the plain TB-tree insertion
of Pfoser et al.: every segment goes through ``insert_entry``, whose
fit check re-measures the whole leaf with :func:`tb_leaf_payload_size`
over ``leaf.entries + [entry]``.  The tree under test keeps a running
byte count on the active leaf and seeds a new object one leaf at a
time; its pages must be byte-identical to the reference's.  Pure
Python: CI also runs this file without numpy.
"""

from __future__ import annotations

import random

import pytest

from repro import TBTree, Trajectory
from repro.datagen import generate_gstd
from repro.exceptions import IndexError_, TrajectoryError
from repro.geometry import STPoint, STSegment
from repro.index import LeafEntry
from repro.index import tbtree as tbtree_module
from repro.index.base import TrajectoryIndex
from repro.index.node import NODE_OVERHEAD_BYTES, tb_leaf_payload_size
from repro.ingest import Memtable

from conftest import packed

PAGE_SIZES = (512, 1024, 4096)


class PerSegmentTB(TBTree):
    """The reference write path: one ``insert_entry`` per segment, the
    fit checked by measuring the grown leaf."""

    def insert(self, trajectory) -> None:
        TrajectoryIndex.insert(self, trajectory)

    def insert_entry(self, entry: LeafEntry) -> None:
        tid = entry.trajectory_id
        leaf_page = self._active_leaf.get(tid)
        if leaf_page is not None:
            leaf = self.read_node(leaf_page)
            if entry.segment.ts < leaf.entries[-1].segment.te:
                raise IndexError_(f"out of order (object {tid})")
            payload = tb_leaf_payload_size(leaf.entries + [entry])
            if NODE_OVERHEAD_BYTES + payload <= self.page_size:
                leaf.entries.append(entry)
                self.touch(leaf)
                self.num_entries += 1
                self._adjust_upwards(leaf.page_id, entry.mbr)
                return
        leaf = self.new_node(level=0, owner_id=tid)
        leaf.chained = True
        leaf.entries.append(entry)
        if leaf_page is not None:
            leaf.prev_leaf = leaf_page
            prev = self.read_node(leaf_page)
            prev.next_leaf = leaf.page_id
            self.touch(prev)
        self._active_leaf[tid] = leaf.page_id
        self._attach_leaf(leaf)
        self.num_entries += 1


class ReferenceMemtable:
    """The memtable's feeding rule over the reference tree: an adopted
    history is inserted as a trajectory, a further point as one
    segment."""

    def __init__(self, page_size: int) -> None:
        self.tree = PerSegmentTB(page_size=page_size)
        self.points: dict[int, list] = {}

    def adopt(self, oid, history) -> None:
        self.points[oid] = pts = list(history)
        if len(pts) >= 2:
            self.tree.insert(Trajectory(oid, pts))

    def append(self, oid, x, y, t) -> None:
        pts = self.points[oid]
        prev = pts[-1]
        pts.append((x, y, t))
        if oid in self.tree.trajectory_ids:
            seg = STSegment(STPoint(*prev), STPoint(x, y, t))
            self.tree.max_speed = max(self.tree.max_speed, seg.speed)
            self.tree.insert_entry(LeafEntry(oid, seg))
        elif len(pts) >= 2:
            self.tree.insert(Trajectory(oid, pts))


def pages(tree: TBTree) -> list[bytes]:
    tree.buffer.flush(tree._serializer)
    return [tree.pagefile.read(i) for i in range(tree.pagefile.num_pages)]


def assert_same_tree(tree: TBTree, reference: TBTree) -> None:
    assert pages(tree) == pages(reference)
    assert tree.root_page == reference.root_page
    assert tree.num_nodes == reference.num_nodes
    assert tree.num_entries == reference.num_entries
    assert tree.max_speed == reference.max_speed
    assert tree._active_leaf == reference._active_leaf


def segment(oid, a, b) -> LeafEntry:
    return LeafEntry(oid, STSegment(STPoint(*a), STPoint(*b)))


def fleet_feed(objects: int, samples: int, seed: int):
    """A time-ordered ``(object_id, x, y, t)`` feed of a GSTD fleet."""
    data = generate_gstd(objects, samples, seed=seed)
    events = sorted((p.t, tr.object_id, p.x, p.y) for tr in data for p in tr)
    return [(oid, x, y, t) for t, oid, x, y in events]


# ----------------------------------------------------------------------
# byte identity with the per-segment reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("page_size", PAGE_SIZES)
def test_memtable_pages_match_reference(page_size):
    """Objects adopted with histories of every length (nothing, one
    leaf, several leaves), then grown point by point, interleaved."""
    rng = random.Random(page_size)
    events = fleet_feed(12, 140, seed=5)
    memtable = Memtable(page_size)
    reference = ReferenceMemtable(page_size)
    history: dict[int, list] = {}
    for oid, x, y, t in events:
        pts = history.setdefault(oid, [])
        pts.append((x, y, t))
        if oid in memtable:
            memtable.append(oid, x, y, t)
            reference.append(oid, x, y, t)
        elif len(pts) == 1 or rng.random() < 0.03:
            # adopt when first seen or, rarely, after it has built a history
            memtable.adopt(oid, pts)
            reference.adopt(oid, pts)
    assert len(memtable) == 12
    assert_same_tree(memtable._tree, reference.tree)


@pytest.mark.parametrize("page_size", PAGE_SIZES)
def test_dynamic_insert_pages_match_reference(page_size):
    data = generate_gstd(20, 90, seed=3)
    tree = TBTree(page_size=page_size)
    reference = PerSegmentTB(page_size=page_size)
    for tr in data:
        tree.insert(tr)
        reference.insert(tr)
    assert_same_tree(tree, reference)


@pytest.mark.parametrize("page_size", PAGE_SIZES)
def test_temporal_gap_opens_a_second_chain_in_the_leaf(page_size):
    """A segment that does not start where the last one ended costs a
    chain start, not a chain step, and stays in the same leaf."""
    tree = TBTree(page_size=page_size)
    reference = PerSegmentTB(page_size=page_size)
    run = [(float(i), 0.5 * i, float(i)) for i in range(60)]
    gap = [(float(i), 0.5 * i + 3.0, float(i)) for i in range(70, 200)]
    entries = [segment(1, a, b) for a, b in zip(run, run[1:])]
    entries += [segment(1, a, b) for a, b in zip(gap, gap[1:])]
    entries += [segment(2, (0.0, 0.0, i), (1.0, 1.0, i + 0.5)) for i in range(40)]
    for index in (tree, reference):
        index.trajectory_ids.update([1, 2])
        for e in entries:
            index.insert_entry(e)
    assert_same_tree(tree, reference)
    chains = [
        sum(a[4:] != b[1:4] for a, b in zip(leaf.rows, leaf.rows[1:])) + 1
        for leaf in tree.leaf_chain(1)
    ]
    assert max(chains) == 2  # the gap falls inside one leaf
    assert max(len(leaf.rows) for leaf in tree.leaf_chain(2)) > 1


@pytest.mark.parametrize("page_size", PAGE_SIZES)
def test_packed_then_insert_matches_reference(page_size):
    """``test_tbtree_pack_then_insert``'s shape: grow a packed object's
    chain, then start a new object.  The packed leaves are evicted
    first, so the appends meet leaves decoded from their pages."""
    data = list(generate_gstd(10, samples_per_object=60, seed=8))
    grows = data[0]
    head = Trajectory(grows.object_id, grows.samples[:31])
    tree = packed(TBTree, [head] + data[1:-1], page_size=page_size)
    reference = packed(PerSegmentTB, [head] + data[1:-1], page_size=page_size)
    for index in (tree, reference):
        index.buffer.flush(index._serializer)
        index.buffer.drop()
        for seg in list(grows.segments())[30:]:
            index.insert_entry(LeafEntry(grows.object_id, seg))
        index.insert(data[-1])
    assert_same_tree(tree, reference)


@pytest.mark.parametrize("page_size", PAGE_SIZES)
def test_append_to_an_earlier_chain_matches_reference(page_size):
    """Appends to an object inserted before the last ones grow its own
    chain, not the newest leaf, and land on the same pages."""
    data = list(generate_gstd(16, 70, seed=11))
    trees = (TBTree(page_size=page_size), PerSegmentTB(page_size=page_size))
    for index in trees:
        for tr in data[:12]:
            index.insert(tr)
        for tr in data[12:]:
            index.insert(tr)
        last = data[8]
        for i in range(1, 80):
            t = last.t_end + i
            index.insert_entry(
                segment(last.object_id, (float(i), 0.0, t - 1), (i + 1.0, 0.5, t))
            )
    assert_same_tree(*trees)


# ----------------------------------------------------------------------
# constant work per segment, by counts
# ----------------------------------------------------------------------
def test_append_measures_each_leaf_at_most_once(monkeypatch):
    measured = []
    monkeypatch.setattr(
        tbtree_module,
        "tb_leaf_payload_size",
        lambda entries: measured.append(1) or tb_leaf_payload_size(entries),
    )
    memtable = Memtable(512)
    memtable.adopt(1, [(0.0, 0.0, 0.0)])
    n = 2000
    for i in range(1, n + 1):
        memtable.append(1, float(i), 0.5 * i, float(i))
    leaves = memtable._tree.leaf_chain(1)
    assert len(leaves) > 50 and memtable.num_entries == n
    assert len(measured) <= len(leaves)

    # a packed tree whose leaves are decoded from their pages: each one
    # grown is measured once
    measured.clear()
    start = Trajectory(1, [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)])
    tree = packed(TBTree, [start], page_size=512)
    tree.buffer.flush(tree._serializer)
    tree.buffer.drop()
    for i in range(1, n + 1):
        tree.insert_entry(segment(1, (i, 0.0, i), (i + 1.0, 0.0, i + 1.0)))
    assert len(measured) <= len(tree.leaf_chain(1))


def test_seeding_attaches_and_walks_once_per_leaf(monkeypatch):
    history = [(float(i), 0.25 * i, float(i)) for i in range(1500)]
    memtable = Memtable(512)
    for oid in range(5):  # upper levels to walk
        memtable.adopt(oid, [(x + oid, y, t) for x, y, t in history[:300]])
    counts = {"attach": 0, "walk": 0}
    attaching = []
    attach, adjust = TBTree._attach_leaf, TBTree._adjust_upwards

    def counted_attach(self, *args):
        counts["attach"] += 1
        attaching.append(True)
        try:
            return attach(self, *args)
        finally:
            attaching.pop()

    def counted_walk(self, *args):
        if not attaching:  # the walk an attach makes is part of it
            counts["walk"] += 1
        return adjust(self, *args)

    monkeypatch.setattr(TBTree, "_attach_leaf", counted_attach)
    monkeypatch.setattr(TBTree, "_adjust_upwards", counted_walk)
    memtable.adopt(99, history)
    leaves = len(memtable._tree.leaf_chain(99))
    assert leaves > 20
    assert counts["attach"] <= leaves
    assert counts["walk"] <= leaves


def test_append_rejects_time_that_does_not_increase():
    memtable = Memtable()
    memtable.adopt(1, [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)])
    with pytest.raises(TrajectoryError):
        memtable.append(1, 2.0, 0.0, 1.0)
    assert memtable.points_of(1) == [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)]
    assert memtable.num_entries == 1
