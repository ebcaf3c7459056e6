"""The static build: ``bulk_insert`` on an empty ``RTree3D`` / ``TBTree``
packs the dataset bottom-up instead of inserting segment by segment.

Contract:

* it rejects what ``insert`` rejects, with the same typed errors, and
  leaves the tree empty when it does;
* every cut of the packer is even, so no non-root node of a packed
  level falls under ``min_fill``;
* a packed tree and an insert-built one answer every k-MST query like
  the exact linear scan (layout never changes an answer);
* a packed tree stays a live tree: it takes ``insert`` afterwards,
  TB-tree chains stay walkable, also through ``save_index`` /
  ``load_index``, and ``repro fsck`` is clean;
* signatures built from the pages' numbers keep the knots and radii
  of the scalar TD-TR.
"""

import math
import random

import pytest

from repro import (
    IngestStore,
    RTree3D,
    TBTree,
    Trajectory,
    generate_gstd,
    load_index,
    save_index,
)
from repro.compression import synchronized_euclidean_distance, td_tr_with_radii
from repro.datagen import make_query
from repro.exceptions import IndexError_, TrajectoryError
from repro.filter import build_signatures
from repro.index import NO_PAGE, LeafEntry, fsck, leaf_points
from repro.index.packing import append_box, box_columns, even_chunks, str_tiles
from repro.search.bfmst import bfmst_search
from repro.search.linear_scan import linear_scan_kmst

from conftest import assert_ranks_like_the_scan, inserted, packed
from test_indexes import check_structure

PACKING = [RTree3D, TBTree]


STATIC_PATHS = [
    pytest.param(cls, id=f"{cls.__name__}-bulk_insert") for cls in PACKING
]


# ----------------------------------------------------------------------
# the packed path rejects what insert rejects
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", STATIC_PATHS)
class TestRejectsWhatInsertRejects:
    def assert_untouched(self, index):
        assert index.root_page == NO_PAGE
        assert index.num_nodes == 0
        assert index.num_entries == 0
        assert index.pagefile.num_pages == 0
        assert list(index.nodes()) == []

    def test_finalized_tree(self, tiny_dataset, cls):
        index = cls()
        index.finalize()
        with pytest.raises(IndexError_):
            index.bulk_insert(list(tiny_dataset))
        self.assert_untouched(index)
        assert index.trajectory_ids == set()

    def test_non_integer_id(self, tiny_dataset, cls):
        index = cls()
        bad = list(tiny_dataset)[:3] + [Trajectory("str-id", [(0, 0, 0), (1, 1, 1)])]
        with pytest.raises(TrajectoryError):
            index.bulk_insert(bad)
        self.assert_untouched(index)
        assert index.trajectory_ids == set()

    def test_id_already_indexed(self, tiny_dataset, cls):
        trajectories = list(tiny_dataset)
        taken = trajectories[2].object_id
        index = cls()
        index.trajectory_ids.add(taken)  # an empty tree that knows the id
        with pytest.raises(TrajectoryError):
            index.bulk_insert(trajectories)
        self.assert_untouched(index)
        assert index.trajectory_ids == {taken}


@pytest.mark.parametrize("cls", PACKING)
def test_id_twice_in_one_dataset_rejected(tiny_dataset, cls):
    trajectories = list(tiny_dataset)
    twin = trajectories[5].with_id(trajectories[1].object_id)
    index = cls()
    with pytest.raises(TrajectoryError):
        index.bulk_insert(trajectories + [twin])
    assert index.num_nodes == 0 and index.root_page == NO_PAGE
    assert index.trajectory_ids == set()


def test_packing_is_for_the_empty_rtree_and_tbtree_only(tiny_dataset):
    """A tree that already holds something is a live tree: it grows by
    ``insert``, and ``bulk_insert`` refuses it and leaves it as it was."""
    rest = list(tiny_dataset)
    for cls in PACKING:
        grown = inserted(cls, rest[:10], page_size=512)
        before = (grown.num_nodes, grown.num_entries, grown.pagefile.num_pages)
        with pytest.raises(IndexError_):
            grown.bulk_insert(rest[10:])
        after = (grown.num_nodes, grown.num_entries, grown.pagefile.num_pages)
        assert after == before
        assert grown.trajectory_ids == {tr.object_id for tr in rest[:10]}
        check_structure(grown)


# ----------------------------------------------------------------------
# even tiles: the fill guarantee
# ----------------------------------------------------------------------
class TestEvenTiles:
    @pytest.mark.parametrize("n, k", [(10, 3), (9, 3), (1, 1), (7, 7), (100, 8)])
    def test_even_chunks(self, n, k):
        chunks = even_chunks(list(range(n)), k)
        assert [i for c in chunks for i in c] == list(range(n))
        sizes = [len(c) for c in chunks]
        assert len(sizes) == k and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("capacity", [8, 17, 72])
    def test_no_tile_under_min_fill(self, capacity):
        """Whatever the item count, every tile holds at least
        ``min_fill`` (0.4 x capacity) items — or there is one tile."""
        rng = random.Random(capacity)
        min_fill = max(1, int(capacity * 0.4))
        for n in [*range(1, 6 * capacity), 1000, 4321, 39_500]:
            boxes = box_columns()
            for _ in range(n):
                x, y, t = rng.random(), rng.random(), rng.random()
                append_box(boxes, (x, y, t, x + 0.01, y + 0.01, t + 0.01))
            groups = str_tiles(boxes, capacity)
            assert sorted(i for g in groups for i in g) == list(range(n))
            assert max(len(g) for g in groups) <= capacity
            if len(groups) > 1:
                assert min(len(g) for g in groups) >= min_fill, n

    @pytest.mark.parametrize("page_size", [512, 1024, 4096])
    @pytest.mark.parametrize("data", ["tiny_dataset", "small_dataset"])
    @pytest.mark.parametrize("cls", PACKING)
    def test_packed_tree_keeps_min_fill(self, request, cls, data, page_size):
        dataset = request.getfixturevalue(data)
        index = packed(cls, dataset, page_size=page_size)
        check_structure(index, min_fill=True)
        assert index.num_entries == dataset.total_segments()
        assert index.trajectory_ids == set(dataset.ids())
        assert index.max_speed == pytest.approx(dataset.max_speed())

    @pytest.mark.parametrize("page_size", [512, 4096])
    def test_packed_tbtree_has_the_leaves_insertion_cuts(self, small_dataset, page_size):
        """Same payload rule, same leaves: only the levels above them
        (and the page ids) differ from an insert-built TB-tree."""
        a = packed(TBTree, small_dataset, page_size=page_size)
        b = inserted(TBTree, small_dataset, page_size=page_size)
        for tr in small_dataset:
            cut_a = [len(leaf.entries) for leaf in a.leaf_chain(tr.object_id)]
            cut_b = [len(leaf.entries) for leaf in b.leaf_chain(tr.object_id)]
            assert cut_a == cut_b
        assert a.num_nodes <= b.num_nodes


# ----------------------------------------------------------------------
# exactness across layouts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def layouts(small_dataset):
    """(tree, page size) -> the packed and the insert-built index,
    each with its signature sidecar attached."""
    out = {}
    for cls in PACKING:
        for page_size in (512, 4096):
            pair = []
            for how in (packed, inserted):
                index = how(cls, small_dataset, page_size=page_size)
                index.finalize()
                index.signatures = build_signatures(index)
                pair.append(index)
            out[cls, page_size] = pair
    return out


# The layouts carry sidecars, so "auto" is the filter-on case.
@pytest.mark.parametrize("filter_mode", ["off", "auto"], ids=["off", "on"])
@pytest.mark.parametrize("k", [1, 5, 10])
@pytest.mark.parametrize("page_size", [512, 4096])
@pytest.mark.parametrize("cls", PACKING)
def test_packed_and_inserted_answer_like_the_exact_scan(
    layouts, small_dataset, cls, page_size, k, filter_mode
):
    """Both layouts return the exact scan's ranking, and the values
    they report for it agree with each other within 1e-9 relative (a
    DISSIM is summed leaf by leaf, so the last ulp follows the layout)."""
    rng = random.Random(f"{cls.__name__}:{page_size}:{k}")
    for length in (0.05, 0.2):
        query, period = make_query(small_dataset, length, rng)
        want = linear_scan_kmst(small_dataset, query, period, k=k, exact=True)
        answers = []
        for index in layouts[cls, page_size]:
            got, stats = bfmst_search(
                index, query, period, k=k, filter=filter_mode
            )
            assert (stats.signature_checks > 0) == (filter_mode == "auto")
            assert_ranks_like_the_scan(got, want)
            answers.append({m.trajectory_id: m.dissim for m in got})
        from_packed, from_inserted = answers
        assert from_packed == pytest.approx(from_inserted, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# a packed tree is a live tree
# ----------------------------------------------------------------------
class TestPackedTreeStaysLive:
    def test_rtree_pack_then_insert(self, tiny_dataset):
        trajectories = list(tiny_dataset)
        index = packed(RTree3D, trajectories[:-2], page_size=512)
        for tr in trajectories[-2:]:
            index.insert(tr)
        check_structure(index)
        assert index.num_entries == tiny_dataset.total_segments()

    def test_tbtree_pack_then_insert(self):
        """The TB-tree twin of the test above: append to a packed
        object's chain and start a new object — chains stay in time
        order throughout."""
        dataset = generate_gstd(10, samples_per_object=60, seed=8)
        trajectories = list(dataset)
        grows = trajectories[0]
        head = Trajectory(grows.object_id, grows.samples[:31])
        index = packed(TBTree, [head] + trajectories[1:-1], page_size=512)

        # append the rest of a packed object's samples to its chain
        for seg in list(grows.segments())[30:]:
            index.insert_row(LeafEntry(grows.object_id, seg).row)
        # start a new object
        index.insert(trajectories[-1])
        check_structure(index)
        assert index.num_entries == dataset.total_segments()
        for tr in trajectories:
            chain = index.leaf_chain(tr.object_id)
            assert len(chain) > 1  # 512 B pages: several leaves each
            for prev, cur in zip(chain, chain[1:]):
                assert prev.next_leaf == cur.page_id
                assert cur.prev_leaf == prev.page_id
            got = [e.segment for e in index.trajectory_segments(tr.object_id)]
            assert got == list(tr.segments())

    def test_packed_tbtree_chains_sit_on_consecutive_pages(self, small_dataset):
        index = packed(TBTree, small_dataset, page_size=512)
        for tr in small_dataset:
            pages = [leaf.page_id for leaf in index.leaf_chain(tr.object_id)]
            assert len(pages) > 1
            assert pages == list(range(pages[0], pages[0] + len(pages)))
            for leaf in index.leaf_chain(tr.object_id):
                assert leaf.owner_id == tr.object_id
                assert {e.trajectory_id for e in leaf.entries} == {tr.object_id}

    def test_packed_tbtree_round_trip_keeps_chains(self, small_dataset, tmp_path):
        index = packed(TBTree, small_dataset, page_size=512)
        index.finalize()
        save_index(index, tmp_path / "tb.pages", signatures=True)
        loaded = load_index(tmp_path / "tb.pages", verify=True)
        try:
            check_structure(loaded, min_fill=True)
            for tr in small_dataset:
                got = [e.segment for e in loaded.trajectory_segments(tr.object_id)]
                assert got == list(tr.segments())
        finally:
            loaded.signatures.close()
            loaded.pagefile.close()

    @pytest.mark.parametrize("page_size", [512, 4096])
    @pytest.mark.parametrize("cls", PACKING)
    def test_fsck_clean_on_packed_files(self, small_dataset, tmp_path, cls, page_size):
        index = packed(cls, small_dataset, page_size=page_size)
        index.finalize()
        save_index(index, tmp_path / "packed.pages", signatures=True)
        report = fsck(tmp_path / "packed.pages")
        assert report.ok, report.summary()
        assert not [p for p in report.pages if p.status != "ok"]

    @pytest.mark.parametrize("tree", ["rtree", "tbtree"])
    def test_fsck_clean_on_a_packed_generation(self, tiny_dataset, tmp_path, tree):
        events = sorted(
            ((tr.object_id, p.x, p.y, p.t) for tr in tiny_dataset for p in tr),
            key=lambda e: (e[3], e[0]),
        )
        with IngestStore.create(tmp_path / "store", tree=tree, sync_every=0) as store:
            store.extend(events)
            number = store.compact()
            pages = store._gen_path(number)
            report = fsck(pages)
            assert report.ok, report.summary()
            generation = store._generation.index
            check_structure(generation, min_fill=True)
            assert generation.num_entries == tiny_dataset.total_segments()


# ----------------------------------------------------------------------
# signatures from the pages' numbers
# ----------------------------------------------------------------------
def scalar_td_tr(traj, tolerance):
    """The reference TD-TR: one ``synchronized_euclidean_distance``
    call per (sample, span), the way it was written first."""
    keep = {0, len(traj) - 1}
    stack = [(0, len(traj) - 1)]
    while stack:
        a, b = stack.pop()
        worst_i, worst = -1, -1.0
        for i in range(a + 1, b):
            err = synchronized_euclidean_distance(traj, i, a, b)
            if err > worst:
                worst_i, worst = i, err
        if worst > tolerance:
            keep.add(worst_i)
            stack += [(a, worst_i), (worst_i, b)]
    kept = sorted(keep)
    radii = [
        max(
            [synchronized_euclidean_distance(traj, i, a, b) for i in range(a + 1, b)],
            default=0.0,
        )
        for a, b in zip(kept, kept[1:])
    ]
    return kept, radii


def assert_radii_certify(traj, kept, radii):
    """Every original sample lies within ``radii[j]`` of its simplified
    segment at the synchronized time."""
    for j, (a, b) in enumerate(zip(kept, kept[1:])):
        for i in range(a, b + 1):
            assert synchronized_euclidean_distance(traj, i, a, b) <= radii[j] + 1e-12


@pytest.mark.parametrize("objects, samples", [(500, 80), (400, 70)])
def test_column_td_tr_keeps_the_scalar_knots(objects, samples):
    """On the benchmark's two datasets (``benchmarks/e2e/inputs.py``)
    the column TD-TR keeps exactly the scalar path's knot indexes and
    radii, and both certify their radii."""
    dataset = generate_gstd(
        objects, samples, seed=7, speed_sigma=0.6, heading="random"
    )
    for tr in list(dataset)[::7]:
        tolerance = 0.02 * tr.length()
        kept, radii = td_tr_with_radii(tr, tolerance)
        want_kept, want_radii = scalar_td_tr(tr, tolerance)
        assert kept == want_kept
        assert radii == want_radii
        assert_radii_certify(tr, kept, radii)
        assert_radii_certify(tr, want_kept, want_radii)


@pytest.mark.parametrize("cls", PACKING)
def test_leaf_points_are_the_inserted_samples(small_dataset, tmp_path, cls):
    """Both endpoints of every leaf segment are samples, so the walk
    gives each trajectory back float for float, grown or packed and
    loaded, with every leaf page's ids."""
    want = {tr.object_id: [(p.x, p.y, p.t) for p in tr] for tr in small_dataset}
    assert leaf_points(inserted(cls, small_dataset, page_size=512))[0] == want
    fresh = packed(cls, small_dataset, page_size=512)
    fresh.finalize()
    save_index(fresh, tmp_path / "a.pages")
    loaded = load_index(tmp_path / "a.pages")
    try:
        points, leaf_tids = leaf_points(loaded)
    finally:
        loaded.pagefile.close()
    assert points == want
    assert set().union(*leaf_tids.values()) == set(want)


@pytest.mark.parametrize("cls", PACKING)
def test_signatures_do_not_depend_on_how_the_tree_was_built(small_dataset, tmp_path, cls):
    """Fresh or loaded, packed or inserted: the knots and radii are the
    trajectory's own; only the leaf page -> ids map follows the layout."""
    fresh = packed(cls, small_dataset, page_size=1024)
    unflushed = build_signatures(fresh)  # pages still dirty in the buffer
    fresh.finalize()
    save_index(fresh, tmp_path / "a.pages")
    loaded = load_index(tmp_path / "a.pages")
    grown = inserted(cls, small_dataset, page_size=1024)
    try:
        stores = [unflushed, build_signatures(fresh), build_signatures(loaded),
                  build_signatures(grown)]
    finally:
        loaded.pagefile.close()
    for sigs in stores:
        for name in ("tids", "knot_offsets", "knot_t", "knot_x", "knot_y", "radii"):
            assert getattr(sigs, name) == getattr(stores[0], name), name
    for sigs in stores[:3]:
        assert sigs.leaf_pages == stores[0].leaf_pages
        assert sigs.leaf_tids == stores[0].leaf_tids
    for tr in small_dataset:
        kt, kx, ky, radii = stores[0].knots(tr.object_id)
        kept, want_radii = td_tr_with_radii(tr, 0.02 * tr.length())
        assert kt == [tr[i].t for i in kept]
        assert radii == want_radii
        assert all(math.isfinite(r) and r >= 0.0 for r in radii)
