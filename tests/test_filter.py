"""Signature filter tier tests (:mod:`repro.filter`).

Covers the certified-radius construction, the provable-lower-bound
property of the probe bound (the batched numpy pass bit-equal to the
scalar reference), the binary sidecar
round-trip, its lifetime and its corruption handling, byte-identity of
filtered vs unfiltered answers across trees, partitioners, executors
(including the process pool) and live ingestion, and the observability
counters the tier reports.
"""

import itertools
import math
import random
import struct
import sys
import threading
import zlib
from array import array
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    TREES,
    RTree3D,
    TBTree,
    Trajectory,
    generate_gstd,
    load_index,
    save_index,
)
from repro.datagen import make_workload
from repro.distance.dissim import dissim_exact
from repro.exceptions import IndexError_, QueryError, StorageError
from repro.filter import (
    SignatureFilter,
    TrajectorySignatures,
    build_signatures,
    load_signatures,
    signature_sidecar_path,
    write_signatures,
)
from repro.filter import runtime as filter_runtime
from repro.filter.signature import segment_index
from repro.index import fsck_index
from repro.search import bfmst
from repro.search.bfmst import bfmst_search
from repro.search.results import SearchStats

from conftest import hexes



@pytest.fixture(scope="module")
def dataset():
    return generate_gstd(24, samples_per_object=50, seed=13)


@pytest.fixture(scope="module")
def rtree(dataset):
    index = RTree3D()
    index.bulk_insert(dataset)
    index.finalize()
    return index


@pytest.fixture(scope="module")
def sigs(rtree):
    return build_signatures(rtree)


@pytest.fixture(scope="module")
def served(dataset, tmp_path_factory):
    """One saved-with-signatures + reloaded index per tree kind."""
    out = {}
    for name, cls in TREES.items():
        index = cls()
        index.bulk_insert(dataset)
        index.finalize()
        path = tmp_path_factory.mktemp("filter") / f"{name}.pages"
        save_index(index, path, signatures=True)
        out[name] = load_index(path)
    yield out
    for index in out.values():
        if index.signatures is not None:
            index.signatures.close()
        index.pagefile.close()


def workload(dataset, n=4, length=0.2, seed=31):
    return list(make_workload(dataset, n, query_length=length, seed=seed))


def match_keys(matches):
    """The byte-identity projection: every answer field, compared with
    ``==`` (no tolerance)."""
    return [
        (m.trajectory_id, m.dissim, m.error_bound, m.exact) for m in matches
    ]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
class TestSignatureBuild:
    def test_structure(self, dataset, sigs):
        assert len(sigs) == len(dataset)
        for tid in dataset.ids():
            kt, kx, ky, radii = sigs.knots(tid)
            assert len(kt) == len(kx) == len(ky) >= 2
            assert len(radii) == len(kt) - 1
            assert kt == sorted(kt)
            assert all(r >= 0.0 for r in radii)

    def test_radii_certify_sed(self, dataset, sigs):
        # Every original sample must lie within the containing
        # simplified segment's certified radius at its own timestamp —
        # the invariant the probe bound's soundness rests on.
        for tr in dataset:
            kt, kx, ky, radii = sigs.knots(tr.object_id)
            for p in tr:
                i = segment_index(kt, p.t)
                frac = (p.t - kt[i]) / (kt[i + 1] - kt[i])
                sx = kx[i] + frac * (kx[i + 1] - kx[i])
                sy = ky[i] + frac * (ky[i + 1] - ky[i])
                dist = math.hypot(p.x - sx, p.y - sy)
                assert dist <= radii[i] + 1e-9

    def test_leaf_pages_recorded(self, rtree, sigs):
        expected = {}
        for node in rtree.nodes():
            if node.is_leaf:
                expected[node.page_id] = {
                    e.trajectory_id for e in node.entries
                }
        assert expected
        for page, tids in expected.items():
            assert set(sigs.page_tids(page)) == tids
        assert sigs.page_tids(10**9) is None

    def test_empty_index_rejected(self):
        with pytest.raises(IndexError_):
            build_signatures(RTree3D())


# ----------------------------------------------------------------------
# the lower-bound property
# ----------------------------------------------------------------------
class TestLowerBound:
    def test_bound_never_exceeds_exact_dissim(self, dataset, rtree, sigs):
        for query, period in workload(dataset, n=6, length=0.25):
            vmax = rtree.max_speed + query.max_speed()
            filt = SignatureFilter(sigs, query, period[0], period[1], vmax)
            for tid in dataset.ids():
                lb = filt.bound(tid)
                exact = dissim_exact(query, dataset.get(tid), period)
                assert lb <= exact + 1e-9 * max(1.0, exact)

    def test_kernels_bit_equal(self, dataset, rtree, sigs):
        for query, period in workload(dataset, n=4, length=0.3, seed=7):
            vmax = rtree.max_speed + query.max_speed()
            filt = SignatureFilter(sigs, query, period[0], period[1], vmax)
            tids = dataset.ids()
            want = scalar_bounds(filt, tids)
            assert hexes(map(filt.bound, tids)) == hexes(want)

    def test_unknown_trajectory_never_prunes(self, dataset, rtree, sigs):
        query, period = workload(dataset, n=1)[0]
        filt = SignatureFilter(sigs, query, period[0], period[1], 1.0)
        assert filt.bound(987654) is None
        assert not filt.should_prune(987654, 0.0)

    def test_equality_never_prunes(self, dataset, rtree, sigs):
        # Strictness mirrors Heuristics 1/2: lb == threshold keeps the
        # candidate.
        query, period = workload(dataset, n=1)[0]
        vmax = rtree.max_speed + query.max_speed()
        filt = SignatureFilter(sigs, query, period[0], period[1], vmax)
        tid = max(dataset.ids(), key=lambda t: filt.bound(t))
        lb = filt.bound(tid)
        assert lb > 0.0
        assert not filt.should_prune(tid, lb)
        assert filt.should_prune(tid, math.nextafter(lb, 0.0))


# ----------------------------------------------------------------------
# the batched numpy pass against the scalar reference
# ----------------------------------------------------------------------
def synthetic_store(rows):
    """A signature store over hand-made rows of
    ``(tid, [(t, x, y), ...], [radius, ...])`` — no index needed."""
    tids = array("q")
    offsets = array("q", [0])
    kt, kx, ky, radii = array("d"), array("d"), array("d"), array("d")
    for tid, knots, row_radii in rows:
        assert len(row_radii) == len(knots) - 1
        tids.append(tid)
        for t, x, y in knots:
            kt.append(t)
            kx.append(x)
            ky.append(y)
        radii.extend(row_radii)
        offsets.append(len(kt))
    return TrajectorySignatures(
        binding=(0, 0, 0),
        simplify_p=0.0,
        tids=tids,
        knot_offsets=offsets,
        knot_t=kt,
        knot_x=kx,
        knot_y=ky,
        radii=radii,
        leaf_pages=array("q"),
        leaf_tid_offsets=array("q", [0]),
        leaf_tids=array("q"),
    )


def scalar_bounds(filt, tids):
    """The scalar reference (:meth:`SignatureFilter._evaluate`) for each
    trajectory."""
    return [filt._evaluate(*filt.sigs.knots(tid)) for tid in tids]


coordinate = st.floats(min_value=-100.0, max_value=100.0)

#: Query periods.  Against the first three, a row spanning the whole
#: period has unit-length (or half-length) subintervals, so its probes
#: sit at k + 0.5 or k + 0.25 — exactly on knots drawn from the
#: half-integer grid below.  The test also ends periods on knot times.
PERIODS = [(0.0, 32.0), (8.0, 40.0), (0.0, 16.0), (10.25, 11.0), (-3.0, 70.0)]

#: Knot gaps: from far below a probe spacing (many knots between two
#: probes) to far above it (rows starting or ending inside a period,
#: or spanning all of it in one segment).
GAPS = [1e-9, 1e-6, 0.1, 0.5, 1.0, 2.5, 16.0, 1e3, 1e6]


@st.composite
def signature_rows(draw):
    rows = []
    for tid in range(draw(st.integers(min_value=1, max_value=9))):
        count = draw(st.integers(min_value=2, max_value=7))
        gaps = draw(
            st.lists(
                st.sampled_from(GAPS),
                min_size=count - 1,
                max_size=count - 1,
            )
        )
        start = draw(st.integers(min_value=-20, max_value=150)) / 2.0
        times = itertools.accumulate(gaps, initial=start)
        knots = [(t, draw(coordinate), draw(coordinate)) for t in times]
        row_radii = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
                min_size=count - 1,
                max_size=count - 1,
            )
        )
        rows.append((tid, knots, row_radii))
    return rows


@st.composite
def covering_queries(draw):
    inner = draw(
        st.lists(
            st.floats(min_value=-29.0, max_value=129.0),
            max_size=5,
            unique=True,
        )
    )
    times = [-30.0] + sorted(inner) + [130.0]
    return Trajectory(-1, [(draw(coordinate), draw(coordinate), t) for t in times])


class TestBatchedBounds:
    """The filter computes every row's bound in one numpy pass; each
    must be bit-equal to the scalar ``_evaluate`` value, no tolerance."""

    @given(
        data=st.data(),
        rows=signature_rows(),
        query=covering_queries(),
        vmax=st.sampled_from([0.0, 0.5, 3.0, 50.0]),
        probes=st.sampled_from([1, 5, 32]),
        block=st.sampled_from([1, 2, 1024]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_to_scalar_on_every_row(
        self, data, rows, query, vmax, probes, block
    ):
        # A period from the list, or one ending on a knot time (inside
        # the query's lifetime), starting on another or on a listed start.
        ends = sorted(
            {t for _tid, knots, _r in rows for t, _x, _y in knots if -30 < t < 130}
        )
        period = data.draw(st.sampled_from(PERIODS))
        if ends and data.draw(st.booleans()):
            end = data.draw(st.sampled_from(ends))
            starts = [t for t in ends + [lo for lo, _hi in PERIODS] if t < end]
            if starts:
                period = (data.draw(st.sampled_from(starts)), end)
        store = synthetic_store(rows)
        filt = SignatureFilter(
            store, query, period[0], period[1], vmax, probes=probes
        )
        tids = [tid for tid, _k, _r in rows]
        with mock.patch.object(filter_runtime, "_ROW_BLOCK", block):
            got = [filt.bound(tid) for tid in tids]
        assert hexes(got) == hexes(scalar_bounds(filt, tids))
        for (_tid, knots, _r), lb in zip(rows, got):
            if knots[-1][0] <= period[0] or knots[0][0] >= period[1]:
                assert lb == 0.0  # no overlap with the period
        absent = len(rows)
        assert filt.bound(absent) is None
        assert not filt.should_prune(absent, -1.0)

    @given(
        lo=st.floats(min_value=-1e6, max_value=1e6),
        span=st.sampled_from(GAPS),
        scale=st.floats(min_value=0.01, max_value=1.0),
        probes=st.sampled_from([1, 5, 32]),
        vmax=st.sampled_from([0.0, 3.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_knots_on_and_beside_probe_times(self, lo, span, scale, probes, vmax):
        """Knots exactly on the probe times and one ulp either side:
        where the inverse of the probe formula rounds the wrong way, the
        exact comparisons must put each knot on the right side of each
        probe."""
        hi = lo + span * scale
        if not lo < hi:
            return
        length = (hi - lo) / probes
        times = [lo + (j + 0.5) * length for j in range(probes)]
        near = {math.nextafter(t, d) for t in times for d in (-math.inf, math.inf)}
        knot_t = sorted({lo - 1.0, hi + 1.0, *times, *near})
        knots = [(t, t % 7.0, -t % 5.0) for t in knot_t]
        filt = SignatureFilter(
            synthetic_store([(0, knots, [0.5] * (len(knots) - 1))]),
            Trajectory(-1, [(1.0, 2.0, lo - 2.0), (3.0, -1.0, hi + 2.0)]),
            lo, hi, vmax, probes=probes,
        )
        below = filt._probes_below(np.array(knot_t), lo, length)
        assert below.tolist() == [sum(p < t for p in times) for t in knot_t]
        assert hexes([filt.bound(0)]) == hexes(scalar_bounds(filt, [0]))

    def test_named_corners(self):
        far = 1e3  # the query sits this far from every row
        rows = [
            # probes at k + 0.5: three of them exactly on knot times
            (0, [(0.0, 0, 0), (0.5, 9, 9), (1.5, -9, 9), (31.5, 0, 0), (32.0, 1, 1)],
             [0.0, 4.0, 1.0, 2.0]),
            (1, [(-10.0, 0, 0), (64.0, 5, 5)], [0.25]),  # single segment
            (2, [(20.0, 1, 1), (25.0, 2, 2), (90.0, 3, 3)], [0.0, 0.0]),  # partial
            (3, [(-9.0, 0, 0), (-1.0, 1, 1), (0.0, 2, 2)], [0.0, 0.0]),  # ends at t1
            (4, [(32.0, 0, 0), (40.0, 1, 1)], [0.0]),  # starts at tn
        ]
        store = synthetic_store(rows)
        query = Trajectory(-1, [(far, far, -30.0), (far + 5, far, 130.0)])
        for vmax in (0.0, 2.0):
            filt = SignatureFilter(store, query, 0.0, 32.0, vmax)
            got = [filt.bound(tid) for tid in range(5)]
            assert hexes(got) == hexes(scalar_bounds(filt, range(5)))
            assert all(lb > 0.0 for lb in got[:3])
            assert got[3:] == [0.0, 0.0]

    def test_store_larger_than_one_row_block(self):
        rng = random.Random(5)
        rows = []
        for tid in range(filter_runtime._ROW_BLOCK + 7):
            count = rng.randint(2, 6)
            times = itertools.accumulate(
                (rng.choice([0.5, 3.0, 11.0]) for _ in range(count - 1)),
                initial=rng.randint(-10, 60) / 2.0,
            )
            knots = [(t, rng.uniform(-50, 50), rng.uniform(-50, 50)) for t in times]
            rows.append((tid, knots, [rng.uniform(0, 3) for _ in range(count - 1)]))
        store = synthetic_store(rows)
        query = Trajectory(-1, [(0.0, 0.0, -30.0), (20.0, -5.0, 40.0), (1.0, 1.0, 130.0)])
        filt = SignatureFilter(store, query, 0.0, 32.0, 1.5)
        tids = [tid for tid, _k, _r in rows]
        assert hexes(map(filt.bound, tids)) == hexes(scalar_bounds(filt, tids))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_one_shared_window_and_mixed_spans(self, mixed):
        # Rows spanning the whole period share one probe window, whose
        # query coordinates broadcast as [probes, 1] columns; a row
        # starting inside the period brings a window of its own and
        # the coordinates fan out to [probes, rows].
        rng = random.Random(17)
        rows = []
        for tid in range(60):
            start = 4.0 + tid / 8.0 if mixed and tid % 3 == 0 else -10.0
            inner = sorted(rng.uniform(start, 50.0) for _ in range(rng.randint(0, 4)))
            knots = [
                (t, rng.uniform(-50, 50), rng.uniform(-50, 50))
                for t in [start, *inner, 50.0]
            ]
            rows.append((tid, knots, [rng.uniform(0, 3) for _ in knots[1:]]))
        store = synthetic_store(rows)
        query = Trajectory(-1, [(0.0, 0.0, -30.0), (20.0, -5.0, 40.0), (1.0, 1.0, 130.0)])
        filt = SignatureFilter(store, query, 0.0, 32.0, 1.5)
        shapes = []
        block = SignatureFilter._query_positions_block

        def spy(self, lo, hi):
            qx, qy = block(self, lo, hi)
            shapes.append((qx.shape, qy.shape))
            return qx, qy

        tids = [tid for tid, _k, _r in rows]
        with mock.patch.object(SignatureFilter, "_query_positions_block", spy):
            got = [filt.bound(tid) for tid in tids]
        assert hexes(got) == hexes(scalar_bounds(filt, tids))
        columns = len(rows) if mixed else 1
        assert shapes == [((filt.probes, columns),) * 2]


# ----------------------------------------------------------------------
# leaves refused by their page's least bound
# ----------------------------------------------------------------------
class _HeldTop(bfmst._TopK):
    """A k-th-best bound held at ``inf`` until ``target`` first reports
    a value, and at ``level`` from then on."""

    def __init__(self, target, level):
        super().__init__(1)
        self.target, self.level, self.armed = target, level, False

    def update(self, tid, upper):
        super().update(tid, upper)
        self.armed = self.armed or tid == self.target

    @property
    def threshold(self):
        return self.level if self.armed else math.inf


class TestLeafRefusal:
    """An expanded node refuses a leaf child whose least signature
    bound exceeds the threshold, and the pop does too — but never a
    leaf holding a live candidate, which the per-trajectory check
    admits whatever its bound."""

    def test_live_candidates_next_leaf_is_admitted(self):
        data = generate_gstd(40, samples_per_object=120, seed=5)
        tree = TBTree(page_size=512)
        tree.bulk_insert(data)
        tree.finalize()
        tree.signatures = build_signatures(tree)
        for target in data.ids()[:6]:
            source = data.get(target)
            assert len(tree.leaf_chain(target)) > 1
            # Near the target but not on it: its bound is positive.
            query = Trajectory(-1, [(p.x + 0.05, p.y + 0.05, p.t) for p in source])
            period = (source.t_start, source.t_end)
            vmax = tree.max_speed + query.max_speed()

            def make_filter():
                return SignatureFilter(tree.signatures, query, *period, vmax)

            bound = make_filter().bound(target)
            assert bound > 0.0
            # From the target's first leaf on, its bound exceeds the
            # threshold while its next leaves wait; with the heuristics
            # off only the signature tier could drop them.
            top = _HeldTop(target, bound / 2)
            records, stats = bfmst.search_part(
                tree, query, *period, vmax, False, False, top, (),
                sig_filter=make_filter(),
            )
            (record,) = [r for r in records if r.tid == target]
            assert record.exact  # every leaf of the target was read
            assert stats.leaf_skips > 0  # and other leaves were refused


# ----------------------------------------------------------------------
# sidecar lifetime: nothing may keep a view of an mmap'd column
# ----------------------------------------------------------------------
class TestSidecarLifetime:
    """``close()`` releases the mmap; a surviving ndarray view of a
    column would make that raise ``BufferError``."""

    def test_index_closes_after_filtered_query(self, rtree, dataset, tmp_path):
        path = tmp_path / "idx.pages"
        save_index(rtree, path, signatures=True)
        index = load_index(path)
        query, period = workload(dataset, n=1)[0]
        _, stats = bfmst_search(index, query, period, k=3)
        assert stats.signature_checks > 0
        index.signatures.close()
        index.pagefile.close()
        signature_sidecar_path(path).unlink()

    def test_stale_worker_cache_entry_closes(self, dataset, tmp_path):
        from repro.engine.executor import _WORKER_INDEXES, _execute_shard_plan
        from repro.engine.planner import ShardPlan
        from repro.search.spec import QuerySpec

        path = tmp_path / "shard_0000.pages"
        query, period = workload(dataset, n=1)[0]

        def run_generation(objects):
            for suffix in ("", ".meta.json", ".sig"):
                path.with_name(path.name + suffix).unlink(missing_ok=True)
            index = RTree3D()
            index.bulk_insert([dataset.get(t) for t in objects])
            index.finalize()
            save_index(index, path, signatures=True)
            plan = ShardPlan(
                spec=QuerySpec("mst", query, period, k=3),
                shard_id=0,
                shard_path=str(path),
                signature=(index.num_nodes, index.num_entries, index.root_page),
                vmax=index.max_speed + query.max_speed(),
                buffer_pages=8,
            )
            return _execute_shard_plan(plan)

        try:
            first = run_generation(dataset.ids())
            assert first.stats["signature_checks"] > 0
            # Same path, new generation: the worker drops its stale
            # mapping — sidecar included — before reopening.
            second = run_generation(dataset.ids()[:12])
            assert second.stats["signature_checks"] > 0
        finally:
            index, _signature = _WORKER_INDEXES.pop(str(path))
            index.signatures.close()
            index.pagefile.close()

    def test_retired_ingest_generation_closes(self, tmp_path):
        from repro.ingest import IngestStore

        small = generate_gstd(10, samples_per_object=30, seed=3)
        source = small.get(small.ids()[0])
        query = source.sliced(
            source.t_start, source.t_start + 0.3 * source.duration
        ).with_id(-1)
        with IngestStore.create(tmp_path / "store", tree="tbtree") as store:
            for t, oid, x, y in sorted(
                (p.t, tr.object_id, p.x, p.y) for tr in small for p in tr
            ):
                store.append(oid, x, y, t)
            store.compact()
            filtered = store.generation_number
            _, stats = store.kmst(query, (query.t_start, query.t_end), k=3)
            assert stats.signature_checks > 0
            store.append(999, 0.0, 0.0, 1.0)
            store.append(999, 1.0, 1.0, 2.0)
            store.compact()  # retires the generation just queried
            assert store.metrics.value("ingest.generations_retired") == 1
            assert not list(store.directory.glob(f"gen-{filtered:06d}*"))

    def test_column_memo_race_is_benign(self, rtree, dataset, tmp_path):
        path = tmp_path / "idx.pages"
        save_index(rtree, path, signatures=True)
        index = load_index(path)  # a fresh store: no memo yet
        jobs = workload(dataset, n=6, seed=23)
        barrier = threading.Barrier(len(jobs))

        def bounds(job, reference=False):
            query, period = job
            filt = SignatureFilter(
                index.signatures, query, period[0], period[1],
                rtree.max_speed + query.max_speed(),
            )
            if reference:
                return scalar_bounds(filt, dataset.ids())
            barrier.wait(timeout=30)
            return [filt.bound(tid) for tid in dataset.ids()]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(jobs)) as pool:
                got = list(pool.map(bounds, jobs))
        finally:
            sys.setswitchinterval(interval)
        assert got == [bounds(job, reference=True) for job in jobs]
        index.signatures.close()
        index.pagefile.close()

    def test_thread_executor_engine(self, rtree, dataset, tmp_path):
        from repro.engine import EngineConfig, QueryEngine
        from repro.search.spec import QuerySpec

        path = tmp_path / "idx.pages"
        save_index(rtree, path, signatures=True)
        requests = [
            QuerySpec("mst", query, period, k=3)
            for query, period in workload(dataset, n=8, seed=29)
        ]
        answers = {}
        for executor in ("serial", "thread"):
            engine = QueryEngine.open(
                path, config=EngineConfig(executor=executor, max_workers=4)
            )
            try:
                batch = engine.run_batch(requests)
                answers[executor] = [match_keys(r.matches) for r in batch]
            finally:
                engine.close()
                engine.index.signatures.close()
                engine.index.pagefile.close()
        assert answers["thread"] == answers["serial"]


# ----------------------------------------------------------------------
# sidecar persistence
# ----------------------------------------------------------------------
class TestSidecar:
    def test_round_trip(self, rtree, sigs, tmp_path):
        path = tmp_path / "idx.pages"
        meta = save_index(rtree, path, signatures=True)
        assert meta["signatures"]["trajectories"] == len(sigs)
        assert signature_sidecar_path(path).exists()
        index = load_index(path)
        try:
            assert index.signatures is not None
            assert index.signatures.binding == sigs.binding
            for tid in sigs.tids:
                assert index.signatures.knots(tid) == sigs.knots(tid)
        finally:
            index.signatures.close()
            index.pagefile.close()

    def test_save_without_signatures_is_default(self, rtree, tmp_path):
        path = tmp_path / "idx.pages"
        save_index(rtree, path)
        assert not signature_sidecar_path(path).exists()
        index = load_index(path)
        try:
            assert index.signatures is None
        finally:
            index.pagefile.close()

    def test_corrupt_sidecar_fails_loudly(self, rtree, tmp_path):
        path = tmp_path / "idx.pages"
        save_index(rtree, path, signatures=True)
        sig_path = signature_sidecar_path(path)
        blob = bytearray(sig_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        sig_path.write_bytes(bytes(blob))
        with pytest.raises(StorageError):
            load_index(path)
        report = fsck_index(path)
        assert not report.ok
        assert any("signature" in err for err in report.errors)
        # Deleting the sidecar restores unfiltered service.
        sig_path.unlink()
        index = load_index(path)
        try:
            assert index.signatures is None
        finally:
            index.pagefile.close()
        assert fsck_index(path).ok

    def test_truncated_sidecar_rejected(self, rtree, tmp_path):
        path = tmp_path / "idx.pages"
        save_index(rtree, path, signatures=True)
        sig_path = signature_sidecar_path(path)
        sig_path.write_bytes(sig_path.read_bytes()[:40])
        with pytest.raises(StorageError):
            load_index(path)
        assert not fsck_index(path).ok

    def test_version_1_sidecar_refused_with_rebuild_hint(
        self, rtree, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "idx.pages"
        save_index(rtree, path)
        # A well-formed RSIG v1 file (the grid-cell era): one
        # two-knot trajectory with one cell, no leaf pages.
        body = struct.pack(
            "<4sI3q5d5q",
            b"RSIG", 1,
            rtree.num_nodes, rtree.num_entries, rtree.root_page,
            0.02, 0.0, 0.0, 1.0, 1.0,
            1, 0, 2, 1, 0,
        )
        body += struct.pack("<q", 7)  # tids
        body += struct.pack("<2q", 0, 2)  # knot offsets
        body += struct.pack("<2q", 0, 1)  # cell offsets
        body += struct.pack("<6d", 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)  # knot t/x/y
        body += struct.pack("<d", 0.5)  # radii
        body += struct.pack("<q", 0)  # cells
        body += struct.pack("<q", 0)  # leaf-tid offsets
        sig_path = signature_sidecar_path(path)
        sig_path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(StorageError, match=r"version 1 .*rebuild"):
            load_signatures(sig_path)
        with pytest.raises(StorageError, match="rebuild"):
            load_index(path)
        assert main(["fsck", str(path)]) == 1
        assert "version 1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "section,slot,value,message",
        [
            ("tids", 0, lambda a: a[1], "trajectory ids are not strictly"),
            ("leaf_pages", 1, lambda a: a[0], "leaf page ids are not strictly"),
            ("knot_offsets", 0, lambda a: 1, "knot offsets do not span"),
            ("knot_offsets", -1, lambda a: a[-1] + 1, "knot offsets do not span"),
            ("knot_offsets", 1, lambda a: a[2] + 1, "knot offsets do not increase"),
            ("knot_offsets", 1, lambda a: a[0], "knot offsets do not increase"),
            ("leaf_tid_offsets", 0, lambda a: 2, "leaf-tid offsets do not span"),
            ("leaf_tid_offsets", -1, lambda a: a[-1] - 1, "leaf-tid offsets do not span"),
            ("leaf_tid_offsets", 1, lambda a: a[2] + 1, "leaf-tid offsets decrease"),
            ("knot_t", 1, lambda a: math.nan, "not finite"),
            ("knot_t", 0, lambda a: -math.inf, "not finite"),
            ("knot_t", 1, lambda a: a[0], "not strictly ascending within"),
            ("leaf_tids", 0, lambda a: max(a) + 1000, "no signature"),
        ],
    )
    def test_structural_damage_is_a_storage_error(
        self, rtree, tmp_path, section, slot, value, message
    ):
        """A sidecar whose CRC holds but whose sections do not hang
        together is refused at load, naming the file — never an
        ``IndexError`` from the bound pass or a wrong bound."""
        path = tmp_path / "idx.pages"
        save_index(rtree, path, signatures=True)
        sig_path = signature_sidecar_path(path)
        blob = bytearray(sig_path.read_bytes()[:-4])
        header = struct.Struct("<4sI3q1d4q")
        *_, n, pages, knots, leaf_tids = header.unpack_from(blob)
        layout = [
            ("tids", "q", n),
            ("knot_offsets", "q", n + 1),
            ("knot_t", "d", knots),
            ("knot_x", "d", knots),
            ("knot_y", "d", knots),
            ("radii", "d", knots - n),
            ("leaf_pages", "q", pages),
            ("leaf_tid_offsets", "q", pages + 1),
            ("leaf_tids", "q", leaf_tids),
        ]
        at = header.size
        for name, fmt, count in layout:
            if name == section:
                break
            at += 8 * count
        items = list(struct.unpack_from(f"<{count}{fmt}", blob, at))
        items[slot] = value(items)
        struct.pack_into(f"<{count}{fmt}", blob, at, *items)
        sig_path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(StorageError, match=message) as caught:
            load_signatures(sig_path)
        assert str(sig_path) in str(caught.value)
        with pytest.raises(StorageError):
            load_index(path)

    def test_binding_mismatch_rejected(self, rtree, dataset, tmp_path):
        other = TBTree()
        other.bulk_insert(dataset)
        other.finalize()
        other_sigs = build_signatures(other)
        assert other_sigs.binding != (
            rtree.num_nodes,
            rtree.num_entries,
            rtree.root_page,
        )
        path = tmp_path / "idx.pages"
        save_index(rtree, path)
        write_signatures(other_sigs, signature_sidecar_path(path))
        with pytest.raises(StorageError):
            load_index(path)


# ----------------------------------------------------------------------
# filter modes
# ----------------------------------------------------------------------
class TestFilterModes:
    def test_invalid_mode_rejected(self, rtree, dataset):
        query, period = workload(dataset, n=1)[0]
        for mode in ("sometimes", "on"):
            with pytest.raises(QueryError, match="'auto' or 'off'"):
                bfmst_search(rtree, query, period, k=3, filter=mode)

    def test_off_refused_for_worker_processes(self, rtree, dataset):
        # Pool workers filter iff their shard has a sidecar, so "off"
        # cannot be honoured there: refused before any part runs.
        class Pool:
            def run_parts(self, specs, vmax, deadline):
                raise AssertionError("no part may run")

        query, period = workload(dataset, n=1)[0]
        with pytest.raises(QueryError, match="process"):
            bfmst_search(
                rtree, query, period, k=3, filter="off", executor=Pool()
            )

    def test_auto_without_sidecar_is_silent(self, rtree, dataset):
        query, period = workload(dataset, n=1)[0]
        matches, stats = bfmst_search(rtree, query, period, k=3)
        assert matches
        assert stats.signature_checks == 0


# ----------------------------------------------------------------------
# byte identity with the filter off
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("tree", sorted(TREES))
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_single_index(self, served, dataset, tree, k):
        index = served[tree]
        for query, period in workload(dataset, n=3, seed=100 + k):
            on, s_on = bfmst_search(index, query, period, k=k)
            off, s_off = bfmst_search(index, query, period, k=k, filter="off")
            assert match_keys(on) == match_keys(off)
            # The filter acted: per-trajectory checks, or leaves refused
            # by their page's least bound (which count no check).
            assert s_on.signature_checks + s_on.leaf_skips > 0
            assert s_off.signature_checks == 0
            assert s_off.signature_pruned == 0

    @pytest.mark.parametrize("partitioner", ["hash", "temporal"])
    def test_sharded(self, dataset, partitioner, tmp_path):
        from repro.sharding import (
            ShardedDataset,
            build_sharded_index,
            load_sharded_index,
            make_partitioner,
            save_sharded_index,
        )

        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner(partitioner, 3)
        )
        sharded = build_sharded_index(sharded_ds, RTree3D)
        directory = tmp_path / "shards"
        try:
            save_sharded_index(sharded, directory, signatures=True)
        finally:
            sharded.close()
        loaded = load_sharded_index(directory)
        try:
            for query, period in workload(dataset, n=2, seed=9):
                for k in (1, 5):
                    on, s_on = bfmst_search(loaded, query, period, k=k)
                    off, _ = bfmst_search(
                        loaded, query, period, k=k, filter="off"
                    )
                    assert match_keys(on) == match_keys(off)
                    assert s_on.signature_checks > 0
        finally:
            loaded.close()

    def test_process_executor(self, dataset, tmp_path):
        from repro.engine import EngineConfig, ShardedQueryEngine
        from repro.search.spec import QuerySpec
        from repro.sharding import (
            ShardedDataset,
            build_sharded_index,
            make_partitioner,
            save_sharded_index,
        )

        sharded = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner("hash", 2)),
            RTree3D,
        )
        try:
            # The unfiltered side is an index built without sidecars.
            for mode, signatures in (("on", True), ("off", False)):
                save_sharded_index(
                    sharded, tmp_path / mode, signatures=signatures
                )
        finally:
            sharded.close()
        query, period = workload(dataset, n=1, seed=77)[0]
        results = {}
        stats = {}
        for mode, executor in (("off", "serial"), ("on", "process")):
            engine = ShardedQueryEngine.open(
                tmp_path / mode,
                config=EngineConfig(executor=executor),
            )
            try:
                result = engine.execute(
                    QuerySpec("mst", query, period, k=5)
                )
                results[mode] = match_keys(result.matches)
                stats[mode] = result.stats
            finally:
                engine.close()
                engine.index.close()
        assert results["on"] == results["off"]
        # Worker-side filter counters ride the ShardAnswer home.
        assert stats["on"].signature_checks > 0
        assert stats["off"].signature_checks == 0

    def test_live_ingest(self, tmp_path):
        from repro.ingest import IngestStore

        small = generate_gstd(10, samples_per_object=30, seed=3)
        events = sorted(
            (p.t, tr.object_id, p.x, p.y) for tr in small for p in tr
        )
        t_hi = events[-1][0]
        dirty = {small.ids()[0], small.ids()[1]}

        def held_back(t, oid):
            return oid in dirty and t > 0.6 * t_hi

        with IngestStore.create(tmp_path / "store", tree="tbtree") as store:
            for t, oid, x, y in events:
                if not held_back(t, oid):
                    store.append(oid, x, y, t)
            store.compact()
            # Leave two objects' tails in the memtable: the merged
            # search mixes a signature-carrying generation (serving the
            # clean objects, filtered) with the unfiltered memtable
            # part (serving the dirty ones).
            for t, oid, x, y in events:
                if held_back(t, oid):
                    store.append(oid, x, y, t)
            store.sync()
            self._check_store(store, small)
        # Survives a crash-free reopen (sidecar re-attached from disk).
        with IngestStore.open(tmp_path / "store") as store:
            self._check_store(store, small)

    @staticmethod
    def _check_store(store, small):
        rng = random.Random(41)
        source = store.current_dataset().get(rng.randrange(len(small)))
        window = source.duration * 0.3
        t_lo = source.t_start + rng.uniform(0.0, source.duration - window)
        query = source.sliced(t_lo, t_lo + window).with_id(-1)
        period = (query.t_start, query.t_end)
        on, s_on = store.kmst(query, period, k=5, filter="auto")
        off, s_off = store.kmst(query, period, k=5, filter="off")
        assert [
            (m.trajectory_id, m.dissim, m.error_bound, m.exact) for m in on
        ] == [
            (m.trajectory_id, m.dissim, m.error_bound, m.exact) for m in off
        ]
        assert s_on.signature_checks > 0
        assert s_off.signature_checks == 0


# ----------------------------------------------------------------------
# counters and stats plumbing
# ----------------------------------------------------------------------
class TestCounters:
    def test_stats_and_registry_agree(self, served, dataset):
        from repro.obs import query_trace

        index = served["rtree"]
        query, period = workload(dataset, n=1, seed=5)[0]
        with query_trace(index) as trace:
            matches, stats = bfmst_search(index, query, period, k=3)
        assert matches
        assert stats.signature_checks > 0
        reg = trace.registry
        assert reg.value("filter.signature_checks") == stats.signature_checks
        assert reg.value("filter.pruned") == stats.signature_pruned
        assert stats.leaf_skips > 0
        # A leaf is skipped at its parent's expansion or at its pop;
        # the traversal and the search count the same skips.
        assert (
            reg.value("index.leaves_skipped")
            == reg.value("filter.leaf_skips")
            == stats.leaf_skips
        )
        # Refinement never consults the signatures.
        assert stats.refinement_skipped == 0
        assert "filter.refinement_skipped" not in reg.counters

    def test_stats_wire_round_trip(self, served, dataset):
        index = served["rtree"]
        query, period = workload(dataset, n=1, seed=6)[0]
        _, stats = bfmst_search(index, query, period, k=3)
        assert stats.signature_checks > 0
        doc = stats.as_dict()
        for field in (
            "signature_checks",
            "signature_pruned",
            "leaf_skips",
            "refinement_skipped",
        ):
            assert field in doc
        round_tripped = SearchStats.from_dict(doc)
        assert round_tripped.signature_checks == stats.signature_checks
        assert round_tripped.signature_pruned == stats.signature_pruned

    def test_pruning_counts(self, tmp_path):
        # The legacy filter bench's bars, as counts (they repeat
        # exactly): GSTD 100 x 25, k = 5, TB-tree.
        data = generate_gstd(100, samples_per_object=25, seed=7)
        built = TBTree(page_size=512)
        built.bulk_insert(data)
        built.finalize()
        save_index(built, tmp_path / "tb.pages", signatures=True)
        index = load_index(tmp_path / "tb.pages")
        try:
            work = {"auto": [0, 0], "off": [0, 0]}
            for query, period in make_workload(data, 12, 0.05, seed=17):
                for mode, totals in work.items():
                    _, stats = bfmst_search(
                        index, query, period, k=5, filter=mode
                    )
                    totals[0] += stats.dissim_evaluations
                    totals[1] += stats.node_accesses
        finally:
            index.signatures.close()
            index.pagefile.close()
        assert work["off"][0] >= 2.0 * work["auto"][0]  # exact-DISSIM integrations
        assert work["off"][1] >= 1.5 * work["auto"][1]  # node accesses


# ----------------------------------------------------------------------
# plan codec
# ----------------------------------------------------------------------
class TestShardPlanCodec:
    def test_plan_names_no_filter_mode(self, dataset):
        from repro.engine.planner import ShardPlan
        from repro.search.spec import QuerySpec

        # The worker filters iff its shard carries a sidecar, so the
        # plan has no mode to carry; it round-trips without one.
        query = dataset.get(dataset.ids()[0])
        doc = ShardPlan(
            spec=QuerySpec(
                "mst", query, period=(query.t_start, query.t_end), k=3
            ),
            shard_id=0,
            shard_path="shard_0000.pages",
            signature=(3, 50, 1),
            vmax=2.5,
            buffer_pages=8,
        ).as_dict()
        assert "filter" not in doc
        assert ShardPlan.from_dict(doc).as_dict() == doc
