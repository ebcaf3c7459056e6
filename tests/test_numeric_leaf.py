"""One numeric leaf: a page decodes into rows and the searches read
them; the entry objects stay a view for writers and introspection.

Contract:

* the call surface the end-to-end harness reads holds: a read leaf's
  ``entries`` are ``LeafEntry`` objects with ``segment``, ``mbr``,
  ``t_start`` and ``t_end``; internal entries have ``child_page`` and
  ``mbr``; the rows a ``Node`` caches are ``payload_rows`` of its page;
* ``segment_dissim_batch`` over ``(STSegment, lo, hi)`` items is
  bit-equal to the window kernel on the same windows and to the scalar
  ``segment_dissim``, with numpy and without it;
* no write leaves a leaf searched through stale rows: live trees,
  packed trees written after the pack and the ingest memtable answer
  like the exact scan after every insert and delete;
* a chained leaf whose rows are out of time order is sorted, never
  bisected; a row that does not span positive time is rejected.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    IngestStore,
    RTree3D,
    TBTree,
    Trajectory,
    TrajectoryDataset,
    generate_gstd,
)
from repro.datagen import make_query
from repro.distance import segment_dissim
from repro.distance.kernels import (
    segment_dissim_batch,
    segment_window,
    window_dissim_batch,
)
from repro.exceptions import IndexError_
from repro.geometry import MBR3D, STSegment
from repro.index import InternalEntry, LeafEntry, Node
from repro.index.node import payload_rows
from repro.search.bfmst import bfmst_search
from repro.search.linear_scan import linear_scan_kmst
from repro.storage import unframe_page

from conftest import KERNELS, numpy_blocked, packed

TREES = [RTree3D, TBTree]
T1 = itemgetter(3)


def ids(matches):
    return [m.trajectory_id for m in matches]


def walk(index):
    """``(page, node)`` for every node, root first."""
    stack = [index.root_page]
    while stack:
        page = stack.pop()
        node = index.read_node(page)
        yield page, node
        if not node.is_leaf:
            stack.extend(e.child_page for e in node.entries)


# ----------------------------------------------------------------------
# the harness call surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("page_size", [512, 4096])
@pytest.mark.parametrize("cls", TREES)
def test_read_nodes_keep_the_harness_surface(small_dataset, cls, page_size):
    index = packed(cls, small_dataset, page_size=page_size)
    index.finalize()
    index.buffer.drop()  # every node below is decoded from its page
    leaves = 0
    for page, node in walk(index):
        if not node.is_leaf:
            for e in node.entries:
                assert isinstance(e, InternalEntry)
                assert isinstance(e.child_page, int)
                assert isinstance(e.mbr, MBR3D)
            continue
        leaves += 1
        _kind, payload = unframe_page(index.pagefile.read(page), page)
        rows = node.rows
        assert rows == payload_rows(page, payload)[1]
        assert node.rows is rows  # cached, not rebuilt per access
        entries = node.entries
        assert [e.row for e in entries] == rows
        for e in entries:
            assert isinstance(e, LeafEntry)
            assert isinstance(e.segment, STSegment)
            assert e.mbr == e.segment.mbr()
            assert (e.t_start, e.t_end) == (e.segment.ts, e.segment.te)
        assert node.rows == rows  # rebuilt from the objects: same numbers
    assert leaves > 1


@pytest.mark.parametrize("kernels", KERNELS, indirect=True)
def test_segment_items_and_windows_are_bit_equal(small_dataset, kernels):
    query, (lo, hi) = make_query(small_dataset, 0.3, random.Random(8))
    items = []
    for tr in small_dataset:
        for seg in tr.segments():
            a, b = max(seg.ts, lo), min(seg.te, hi)
            if a < b:
                items.append((seg, a, b))
    assert len(items) > 100
    windows = [segment_window(*item) for item in items]
    # The segment kernel never uses numpy: both ids run the one
    # kernel, against the scalar reference.
    got = segment_dissim_batch(query, items)
    assert got == window_dissim_batch(query, windows)
    assert got == [segment_dissim(query, *item) for item in items]


# ----------------------------------------------------------------------
# no stale rows after a write
# ----------------------------------------------------------------------
def assert_like_scan(search, live, rng, queries=2, k=4):
    """``search(query, period, k)`` ranks like the exact scan, with
    numpy and without it, on periods every trajectory of ``live``
    covers."""
    lo = max(tr.t_start for tr in live)
    hi = min(tr.t_end for tr in live)
    pool = TrajectoryDataset(tr.sliced(lo, hi) for tr in live)
    for _ in range(queries):
        query, period = make_query(pool, 0.2, rng)
        want = ids(linear_scan_kmst(live, query, period, k=k, exact=True))
        assert ids(search(query, period, k)) == want
        with numpy_blocked():
            assert ids(search(query, period, k)) == want


def assert_rows_current(index, live):
    """Every leaf's rows are the segments of ``live``, no more, no less."""
    got = sorted(
        row
        for _page, node in walk(index)
        if node.is_leaf
        for row in node.rows_in_period(-math.inf, math.inf)
    )
    want = sorted(
        LeafEntry(tr.object_id, seg).row for tr in live for seg in tr.segments()
    )
    assert got == want


def grown(tr, n=3):
    """``tr`` with ``n`` slow samples past its end."""
    last = tr.samples[-1]
    more = [(last.x + 0.1 * i, last.y, last.t + 10.0 * i) for i in range(1, n + 1)]
    return Trajectory(tr.object_id, [*((p.x, p.y, p.t) for p in tr.samples), *more])


@pytest.mark.parametrize("cls", TREES)
def test_writes_into_resident_leaves_are_searched(cls):
    trajectories = list(generate_gstd(30, samples_per_object=30, seed=17))
    live = TrajectoryDataset(trajectories[:24])
    index = packed(cls, live, page_size=1024)
    rng = random.Random(4)

    def search(query, period, k):
        return bfmst_search(index, query, period, k=k)[0]

    assert_like_scan(search, live, rng)  # every leaf read: rows cached

    for tr in trajectories[24:]:  # new objects
        index.insert(tr)
        live.add(tr)
        assert_rows_current(index, live)
        assert_like_scan(search, live, rng, queries=1)

    # an old object grows into its resident last leaf (TB) or wherever
    # choose-subtree sends its new segments (R)
    old = live.remove(trajectories[3].object_id)
    longer = grown(old)
    for seg in list(longer.segments())[old.num_segments :]:
        index.max_speed = max(index.max_speed, seg.speed)
        index.insert_entry(LeafEntry(old.object_id, seg))
    live.add(longer)
    assert_rows_current(index, live)
    assert_like_scan(search, live, rng)

    for tr in (trajectories[0], trajectories[26]):
        index.delete_trajectory(tr.object_id)
        live.remove(tr.object_id)
        assert_rows_current(index, live)
        assert_like_scan(search, live, rng, queries=1)


def test_ingest_memtable_answers_after_every_append(tmp_path):
    data = generate_gstd(10, samples_per_object=20, seed=23)
    events = sorted(
        ((tr.object_id, p.x, p.y, p.t) for tr in data for p in tr),
        key=lambda e: (e[3], e[0]),
    )
    rng = random.Random(6)
    fed = 0
    with IngestStore.create(tmp_path / "s") as store:
        for share in (0.4, 0.6, 0.8, 1.0):
            cut = events[int(share * (len(events) - 1))][3]
            while fed < len(events) and events[fed][3] <= cut:
                store.append(*events[fed])
                fed += 1
            live = TrajectoryDataset(
                Trajectory(tr.object_id, [(p.x, p.y, p.t) for p in tr if p.t <= cut])
                for tr in data
            )

            def search(query, period, k):
                return store.kmst(query, period, k)[0]

            assert_like_scan(search, live, rng)


@pytest.mark.parametrize("cls", TREES)
def test_packed_tree_answers_after_every_write(cls):
    """Pack, insert after the pack, delete: the tree ranks like the
    exact scan after every write."""
    data = list(generate_gstd(16, samples_per_object=25, seed=29))
    live = TrajectoryDataset(data[:12])
    index = packed(cls, live, page_size=512)
    rng = random.Random(9)

    def search(query, period, k):
        return bfmst_search(index, query, period, k=k)[0]

    assert_like_scan(search, live, rng)
    for tr in data[12:]:
        index.insert(tr)
        live.add(tr)
        assert_like_scan(search, live, rng, queries=1)
    for oid in (data[0].object_id, data[13].object_id):
        index.delete_trajectory(oid)
        live.remove(oid)
        assert_like_scan(search, live, rng, queries=1)


# ----------------------------------------------------------------------
# the time order of a chained leaf
# ----------------------------------------------------------------------
def chain_rows(n, tid=5):
    pts = [(float(i), float(i % 3), float(i)) for i in range(n + 1)]
    return [(tid, *a, *b) for a, b in zip(pts, pts[1:])]


def overlapping(rows, t_start, t_end):
    return sorted((r for r in rows if r[3] < t_end and r[6] > t_start), key=T1)


def round_trip(rows, chained=True):
    node = Node(0, 0, owner_id=5, chained=chained, rows=list(rows))
    return Node.from_bytes(0, node.to_bytes(4096))


PERIODS = [(0.0, 12.0), (2.5, 7.5), (-5.0, 0.5), (9.5, 20.0), (4.0, 4.5)]


def test_chain_in_time_order_is_cut_at_both_ends():
    rows = chain_rows(12)
    node = round_trip(rows)
    for period in PERIODS:
        assert node.rows_in_period(*period) == overlapping(rows, *period)


@given(st.permutations(chain_rows(12)))
@settings(max_examples=60, deadline=None)
def test_chain_out_of_time_order_is_sorted_not_bisected(rows):
    node = round_trip(rows)
    assert node.rows == list(rows)  # page order survives the round trip
    for t_start, t_end in PERIODS:
        got = node.rows_in_period(t_start, t_end)
        assert got == sorted(got, key=T1)
        kept = [r for r in got if r[6] > t_start]
        assert kept == overlapping(rows, t_start, t_end)


@pytest.mark.parametrize("chained", [False, True])
def test_row_without_positive_time_span_is_rejected(chained):
    bad = [(5, 0.0, 0.0, 5.0, 1.0, 1.0, 5.0)]
    with pytest.raises(IndexError_, match="positive time"):
        round_trip(bad, chained)
