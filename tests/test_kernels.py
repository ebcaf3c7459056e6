"""The kernel layer: columnar trajectory views, the one segment-DISSIM
kernel against its scalar reference, the batched MINDIST kernels, and
end-to-end parity of the BFMST search with numpy and without it (its
pure-Python MINDIST and filter paths) on both trees and through the
sharded engine path."""

from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    RTree3D,
    TBTree,
    Trajectory,
    TrajectoryDataset,
    generate_gstd,
    make_workload,
)
from repro.distance import fast
from repro.distance.dissim import segment_dissim
from repro.distance.kernels import segment_dissim_batch
from repro.distance.trinomial import DistanceTrinomial
from repro.engine import QueryEngine
from repro.exceptions import QueryError, TemporalCoverageError
from repro.geometry import MBR3D, STSegment, distance_trinomial_coefficients
from repro.index.mindist import mindist, mindist_batch, mindist_batch_python
from repro.obs import query_trace
from repro.search import QuerySpec
from repro.search import api as search_api
from repro.search.bfmst import bfmst_search
from repro.sharding import (
    PARTITIONER_KINDS,
    ShardedDataset,
    build_sharded_index,
    make_partitioner,
)
from repro.trajectory import columns as columns_mod
from repro.trajectory import dataset_columns

from conftest import hexes, numpy_blocked, work_counters

coord = st.floats(min_value=-50.0, max_value=50.0)


# ----------------------------------------------------------------------
# shared worlds
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gstd_world():
    dataset = generate_gstd(30, samples_per_object=25, seed=11)
    (query, period), = make_workload(dataset, 1, 0.15, seed=11)
    return dataset, query, period


def build_tree(tree_cls, dataset):
    index = tree_cls(page_size=512)
    index.bulk_insert(dataset)
    index.finalize()
    return index


def iter_nodes(index):
    stack = [index.root_page]
    while stack:
        node = index.read_node(stack.pop())
        yield node
        if not node.is_leaf:
            stack.extend(e.child_page for e in node.entries)


def window_items(dataset, query, period):
    """The (segment, lo, hi) leaf windows a BFMST over ``dataset``
    would integrate — every data segment clipped to the query period
    and the query lifetime."""
    items = []
    for tr in dataset:
        for seg in tr.segments_overlapping(period[0], period[1]):
            lo = max(seg.ts, period[0], query.t_start)
            hi = min(seg.te, period[1], query.t_end)
            if lo < hi and query.covers(lo, hi):
                items.append((seg, lo, hi))
    return items


@st.composite
def trajectories(draw, oid=0):
    n = draw(st.integers(min_value=2, max_value=8))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    return Trajectory(oid, [(draw(coord), draw(coord), t) for t in times])


@st.composite
def worlds(draw):
    """A small dataset plus a query slice, as in test_bfmst_property."""
    total = draw(st.floats(min_value=2.0, max_value=40.0))
    n_objects = draw(st.integers(min_value=3, max_value=6))
    dataset = TrajectoryDataset()
    for oid in range(n_objects):
        n = draw(st.integers(min_value=2, max_value=6))
        interior = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.05, max_value=0.95),
                    min_size=n - 2,
                    max_size=n - 2,
                    unique=True,
                )
            )
        )
        times = sorted({0.0, *[f * total for f in interior], total})
        dataset.add(
            Trajectory(oid, [(draw(coord), draw(coord), t) for t in times])
        )
    f_lo = draw(st.floats(min_value=0.0, max_value=0.6))
    f_len = draw(st.floats(min_value=0.2, max_value=0.39))
    period = (f_lo * total, (f_lo + f_len) * total)
    source = dataset[draw(st.integers(min_value=0, max_value=n_objects - 1))]
    query = source.sliced(*period).with_id(-1)
    return dataset, query, period


# ----------------------------------------------------------------------
# columnar view
# ----------------------------------------------------------------------
class TestColumnarView:
    @given(trajectories())
    @settings(max_examples=60, deadline=None)
    def test_columns_round_trip_samples_exactly(self, traj):
        cols = traj.columns()
        assert list(cols.t) == [p.t for p in traj.samples]
        assert list(cols.x) == [p.x for p in traj.samples]
        assert list(cols.y) == [p.y for p in traj.samples]
        # memoised: the view is built once per trajectory
        assert traj.columns() is cols

    @given(trajectories())
    @settings(max_examples=30, deadline=None)
    def test_numpy_views_are_zero_copy_and_read_only(self, traj):
        np = pytest.importorskip("numpy")
        cols = traj.columns()
        t = cols.t_view()
        assert t.dtype == np.float64
        assert not t.flags.writeable
        assert cols.t_view() is t  # memoised
        assert t.tolist() == [p.t for p in traj.samples]
        xy = cols.xy()
        assert xy.shape == (len(traj.samples), 2)
        assert not xy.flags.writeable
        assert cols.xy() is xy
        assert xy[:, 0].tolist() == [p.x for p in traj.samples]
        assert xy[:, 1].tolist() == [p.y for p in traj.samples]

    def test_dataset_columns_cached_until_dataset_changes(self):
        dataset = TrajectoryDataset()
        dataset.add(Trajectory(1, [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]))
        dataset.add(Trajectory(2, [(2.0, 0.0, 0.0), (1.0, 3.0, 2.0)]))
        first = dataset_columns(dataset)
        assert set(first) == {1, 2}
        assert first[1] is dataset.get(1).columns()
        # same signature -> the cached mapping is returned as-is
        assert dataset_columns(dataset) is first
        # structural change -> new signature -> fresh mapping
        dataset.add(Trajectory(3, [(0.0, 0.0, 0.0), (5.0, 5.0, 5.0)]))
        second = dataset_columns(dataset)
        assert second is not first
        assert set(second) == {1, 2, 3}

    def test_coords_served_from_columns(self):
        pytest.importorskip("numpy")
        traj = Trajectory(7, [(0.0, 1.0, 0.0), (2.0, 3.0, 1.0)])
        arr = fast.coords(traj)
        assert arr is traj.columns().xy()
        assert fast.coords(traj) is arr


# ----------------------------------------------------------------------
# batched segment DISSIM
# ----------------------------------------------------------------------
class TestSegmentDissimBatch:
    def test_matches_scalar_on_gstd(self, gstd_world):
        dataset, query, period = gstd_world
        items = window_items(dataset, query, period)
        assert len(items) > 100
        got = segment_dissim_batch(query, items)
        for (seg, lo, hi), (integral, d0, d1) in zip(items, got):
            w_integral, w_d0, w_d1 = segment_dissim(query, seg, lo, hi)
            assert integral.approx == w_integral.approx
            assert integral.error_bound == w_integral.error_bound
            assert d0 == w_d0
            assert d1 == w_d1

    @given(worlds())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_numpy_equals_python_batch_on_arbitrary_worlds(self, world):
        """The one kernel equals the scalar reference, window by window
        (the name is kept from when a numpy and a loop twin existed)."""
        dataset, query, period = world
        items = window_items(dataset, query, period)
        if not items:
            return
        got = segment_dissim_batch(query, items)
        want = [segment_dissim(query, seg, lo, hi) for seg, lo, hi in items]
        assert got == want

    @given(
        qx0=coord, qy0=coord, qx1=coord, qy1=coord,
        sx0=coord, sy0=coord, sx1=coord, sy1=coord,
        lo=st.floats(min_value=1.0, max_value=4.0),
        hi=st.floats(min_value=5.0, max_value=9.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_piece_equals_trinomial_coefficients(
        self, qx0, qy0, qx1, qy1, sx0, sy0, sx1, sy1, lo, hi
    ):
        """One window inside one query segment: the batched result is
        exactly the trapezoid integral of
        :func:`distance_trinomial_coefficients` over the clipped pair."""
        query = Trajectory(-1, [(qx0, qy0, 0.0), (qx1, qy1, 10.0)])
        seg = Trajectory(1, [(sx0, sy0, 0.5), (sx1, sy1, 9.5)]).segment_covering(5.0)
        q_seg = query.segment_covering((lo + hi) / 2.0)
        a, b, c, t_lo, t_hi = distance_trinomial_coefficients(
            q_seg.clipped(lo, hi), seg.clipped(lo, hi)
        )
        assert (t_lo, t_hi) == (lo, hi)
        want = DistanceTrinomial(a, b, c).trapezoid_integral(0.0, hi - lo)
        ((integral, _d0, _d1),) = segment_dissim_batch(query, [(seg, lo, hi)])
        assert integral.approx == pytest.approx(want.approx, rel=1e-9, abs=1e-12)
        assert integral.error_bound == pytest.approx(
            want.error_bound, rel=1e-9, abs=1e-12
        )

    def test_rejects_bad_windows_like_scalar(self, gstd_world):
        _dataset, query, _period = gstd_world
        seg = query.segment_covering(query.t_start)
        with pytest.raises(QueryError):
            segment_dissim_batch(query, [(seg, seg.ts - 1.0, seg.te)])
        outside = Trajectory(
            9, [(0.0, 0.0, query.t_end + 1.0), (1.0, 1.0, query.t_end + 2.0)]
        ).segment_covering(query.t_end + 1.5)
        with pytest.raises(TemporalCoverageError):
            segment_dissim_batch(query, [(outside, outside.ts, outside.te)])


# ----------------------------------------------------------------------
# batched MINDIST
# ----------------------------------------------------------------------
class TestMindistBatch:
    @pytest.mark.parametrize(
        "tree_cls", (RTree3D, TBTree), ids=lambda c: c.__name__
    )
    def test_matches_scalar_on_every_tree_node(self, tree_cls, gstd_world):
        pytest.importorskip("numpy")
        dataset, query, period = gstd_world
        index = build_tree(tree_cls, dataset)
        checked = 0
        for node in iter_nodes(index):
            boxes = [e.mbr for e in node.entries]
            if not boxes:
                continue
            got = mindist_batch(query, boxes, *period)
            want = mindist_batch_python(query, boxes, *period)
            assert got == want
            checked += len(boxes)
        assert checked > 50

    @given(
        data=st.data(),
        traj=trajectories(oid=-1),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_scalar_on_random_boxes(self, data, traj):
        pytest.importorskip("numpy")
        n = data.draw(st.integers(min_value=1, max_value=8))
        boxes = []
        tspan = st.floats(
            min_value=traj.t_start - 5.0, max_value=traj.t_end + 5.0
        )
        for _ in range(n):
            x1, x2 = sorted((data.draw(coord), data.draw(coord)))
            y1, y2 = sorted((data.draw(coord), data.draw(coord)))
            t1, t2 = sorted((data.draw(tspan), data.draw(tspan)))
            boxes.append(MBR3D(x1, y1, t1, x2, y2, t2))
        period = (traj.t_start, traj.t_end)
        got = mindist_batch(traj, boxes, *period)
        want = mindist_batch_python(traj, boxes, *period)
        assert hexes(got) == hexes(want)

    def test_instant_window_and_disjoint_boxes(self):
        pytest.importorskip("numpy")
        traj = Trajectory(-1, [(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)])
        instant = MBR3D(2.0, 1.0, 5.0, 3.0, 2.0, 5.0)  # tmin == tmax
        disjoint = MBR3D(0.0, 0.0, 20.0, 1.0, 1.0, 30.0)  # after lifetime
        got = mindist_batch(traj, [instant, disjoint], 0.0, 10.0)
        assert got[0] == mindist(traj, instant, 0.0, 10.0)
        assert got[1] is None


# ----------------------------------------------------------------------
# BFMST parity: with numpy vs without it
# ----------------------------------------------------------------------
def assert_same_answers(got, want):
    """Same ids, DISSIMs, error bounds and exact flags, to the bit."""

    def keys(matches):
        return [
            (m.trajectory_id, m.dissim.hex(), m.error_bound.hex(), m.exact)
            for m in matches
        ]

    assert keys(got) == keys(want)


class TestBFMSTKernelParity:
    @pytest.mark.parametrize(
        "tree_cls", (RTree3D, TBTree), ids=lambda c: c.__name__
    )
    def test_single_tree_identical_rankings(self, tree_cls, gstd_world):
        pytest.importorskip("numpy")
        dataset, query, period = gstd_world
        index = build_tree(tree_cls, dataset)
        for k in (1, 5, 10):
            vector, v_stats = bfmst_search(index, query, period, k)
            with numpy_blocked():
                scalar, s_stats = bfmst_search(index, query, period, k)
            assert_same_answers(vector, scalar)
            assert v_stats.candidates_rejected == s_stats.candidates_rejected
            assert v_stats.node_accesses == s_stats.node_accesses

    @pytest.mark.parametrize("partitioner_kind", PARTITIONER_KINDS)
    def test_sharded_identical_rankings(self, partitioner_kind, gstd_world):
        pytest.importorskip("numpy")
        dataset, query, period = gstd_world
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner(partitioner_kind, 3)
        )
        sharded = build_sharded_index(sharded_ds, RTree3D, page_size=512)
        try:
            vector = search_api.bfmst_search(
                sharded, None, query, period=period, k=5
            )
            with numpy_blocked():
                scalar = search_api.bfmst_search(
                    sharded, None, query, period=period, k=5
                )
            assert_same_answers(vector.matches, scalar.matches)
        finally:
            sharded.close()

    @given(worlds())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_parity_on_arbitrary_worlds(self, world):
        pytest.importorskip("numpy")
        dataset, query, period = world
        for tree_cls in (RTree3D, TBTree):
            index = build_tree(tree_cls, dataset)
            vector, _ = bfmst_search(index, query, period, 3)
            with numpy_blocked():
                scalar, _ = bfmst_search(index, query, period, 3)
            assert_same_answers(vector, scalar)

    def test_engine_dispatch_and_batch_caches(self, gstd_world):
        pytest.importorskip("numpy")
        dataset, query, period = gstd_world
        answers = {}
        for mode in ("numpy", "python"):
            index = build_tree(RTree3D, dataset)
            with QueryEngine(index) as engine, (
                numpy_blocked() if mode == "python" else nullcontext()
            ):
                request = QuerySpec("mst", query, period, k=5)
                with query_trace(index):
                    first = engine.execute(request)
                # the engine keeps no per-query memo: the second run
                # traverses again and does the same work
                with query_trace(index):
                    second = engine.execute(request)
                assert second.answer_json() == first.answer_json()
                assert work_counters(second.stats) == work_counters(
                    first.stats
                )
                # segment DISSIM has one kernel, which batches on every
                # host; MINDIST batches through numpy only where it is
                assert first.stats.kernel_batches > 0
                batched = first.stats.mindist_batched > 0
                assert batched == (mode == "numpy")
                answers[mode] = first.matches
        assert_same_answers(answers["numpy"], answers["python"])


# ----------------------------------------------------------------------
# observability counters
# ----------------------------------------------------------------------
class TestKernelCounters:
    def test_numpy_path_reports_kernel_usage(self, gstd_world):
        pytest.importorskip("numpy")
        dataset, query, period = gstd_world
        index = build_tree(RTree3D, dataset)
        with query_trace(index, name="kernels-numpy") as trace:
            _matches, stats = bfmst_search(index, query, period, 5)
        assert stats.kernel_batches > 0
        assert stats.kernel_segments > 0
        assert stats.mindist_batched > 0
        doc = stats.as_dict()
        assert doc["kernel_batches"] == stats.kernel_batches
        assert trace.registry.value("distance.kernel_batches") > 0
        assert trace.registry.value("index.mindist_batched") > 0

    def test_scalar_paths_report_zero(self, gstd_world, no_numpy):
        dataset, query, period = gstd_world
        index = build_tree(RTree3D, dataset)
        with query_trace(index, name="kernels-python"):
            _matches, stats = bfmst_search(index, query, period, 5)
        # segment DISSIM has one kernel, which batches on every host
        assert stats.kernel_batches > 0
        assert stats.kernel_segments > 0
        assert stats.mindist_batched == 0

    @pytest.mark.parametrize(
        "tree_cls", (RTree3D, TBTree), ids=lambda c: c.__name__
    )
    def test_unspecified_kernels_mean_auto(self, tree_cls, gstd_world):
        """The documented entry point, with no ``kernels`` or with the
        one value it takes, runs the numpy passes and answers exactly as
        the pure-Python ones do."""
        pytest.importorskip("numpy")
        dataset, query, period = gstd_world
        index = build_tree(tree_cls, dataset)
        with query_trace(index, name="kernels-default"):
            default = search_api.bfmst_search(
                index, None, query, period=period, k=5
            )
        assert default.stats.kernel_batches > 0
        assert default.stats.mindist_batched > 0
        auto = search_api.bfmst_search(
            index, None, query, period=period, k=5, kernels="auto"
        )
        with numpy_blocked():
            scalar = search_api.bfmst_search(
                index, None, query, period=period, k=5
            )
        assert_same_answers(default.matches, auto.matches)
        assert_same_answers(default.matches, scalar.matches)


# ----------------------------------------------------------------------
# numpy-less fallback
# ----------------------------------------------------------------------
class TestPythonFallback:
    def test_resolution_without_numpy(self, no_numpy):
        """One probe answers for the whole package."""
        assert not columns_mod.have_numpy()
        assert not fast.have_numpy()
        with pytest.raises(ImportError, match="optional extra"):
            columns_mod._numpy()

    def test_unknown_mode_rejected(self, gstd_world):
        """The unified entry point keeps ``kernels`` for callers that
        name the default; naming an implementation is an error, on the
        call and on the wire."""
        dataset, query, period = gstd_world
        index = build_tree(RTree3D, dataset)
        for mode in ("numpy", "python", "fortran"):
            with pytest.raises(QueryError, match="kernels"):
                search_api.bfmst_search(
                    index, None, query, period=period, kernels=mode
                )
            doc = QuerySpec("mst", query, period).as_dict()
            with pytest.raises(QueryError, match="kernels"):
                QuerySpec.from_dict({**doc, "kernels": mode})

    def test_columns_build_without_numpy_views_raise(self, no_numpy):
        traj = Trajectory(1, [(0.0, 1.0, 0.0), (2.0, 3.0, 1.0)])
        cols = traj.columns()
        assert list(cols.t) == [0.0, 1.0]
        with pytest.raises(ImportError, match="optional"):
            cols.t_view()

    def test_bfmst_auto_matches_classic_without_numpy(self, no_numpy):
        dataset = generate_gstd(8, samples_per_object=10, seed=3)
        (query, period), = make_workload(dataset, 1, 0.2, seed=3)
        index = build_tree(RTree3D, dataset)
        classic, _ = bfmst_search(index, query, period, 3)
        for mode in ("auto", None):  # unspecified means auto
            got = search_api.bfmst_search(
                index, None, query, period=period, k=3, kernels=mode
            )
            assert_same_answers(got.matches, classic)
            assert got.stats.kernel_batches == 0  # untraced: nothing counted
