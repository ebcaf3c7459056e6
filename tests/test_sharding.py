"""Sharding subsystem: partitioners, sharded dataset/index, cross-shard
BFMST identity vs the single tree, the planner, and the sharded engine.

The load-bearing property is *byte-identity*: a sharded k-MST must
return the same ids, in the same order, with bit-equal DISSIM values as
the one-tree search, for every partitioner and both index backends —
the shared cross-shard bound may only change *where* work happens, not
the answer.
"""

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
    query_trace,
)
from repro.engine import (
    EngineConfig,
    QueryEngine,
    QueryPlanner,
    ShardedQueryEngine,
    budget_buffers,
)
from repro.exceptions import QueryError, TrajectoryError
from repro.geometry import MBR2D, Point
from repro.search import (
    QuerySpec,
    bfmst_search,
    linear_scan_kmst,
    nearest_neighbours,
    range_query,
)
from repro.search.bfmst import bfmst_search as raw_bfmst_search
from repro.sharding import (
    PARTITIONER_KINDS,
    ShardedDataset,
    ShardedIndex,
    build_sharded_index,
    make_partitioner,
    partitioner_from_params,
)

from conftest import staggered_fleet

ALL_KINDS = ("round_robin", "hash", "spatial", "temporal")


def match_tuples(result):
    """The full identity fingerprint of a result: ids, order and exact
    float values."""
    return [
        (m.trajectory_id, m.dissim, m.error_bound, m.exact)
        for m in result.matches
    ]


@pytest.fixture(scope="module")
def dataset():
    return generate_gstd(24, samples_per_object=20, seed=13)


@pytest.fixture(scope="module")
def workload(dataset):
    return list(make_workload(dataset, 4, 0.15, seed=5))


@pytest.fixture(scope="module", params=(RTree3D, TBTree), ids=lambda c: c.__name__)
def tree_cls(request):
    return request.param


@pytest.fixture(scope="module")
def single_index(tree_cls, dataset):
    index = tree_cls(page_size=1024)
    index.bulk_insert(dataset)
    index.finalize()
    return index


# ----------------------------------------------------------------------
# partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_kind_registry(self):
        assert set(PARTITIONER_KINDS) == set(ALL_KINDS)

    def test_unknown_kind(self):
        with pytest.raises(QueryError):
            make_partitioner("modulo", 4)

    def test_num_shards_must_be_positive(self):
        for kind in ALL_KINDS:
            with pytest.raises(QueryError):
                make_partitioner(kind, 0)

    def test_round_robin_balances(self, dataset):
        sharded = ShardedDataset.partition(
            dataset, make_partitioner("round_robin", 5)
        )
        sizes = sharded.shard_sizes()
        assert sum(sizes) == len(dataset)
        assert max(sizes) - min(sizes) <= 1

    def test_hash_is_deterministic_and_memoryless(self, dataset):
        a = make_partitioner("hash", 4).fit(dataset)
        b = make_partitioner("hash", 4).fit(dataset)
        for tr in dataset:
            assert a.shard_of(tr) == b.shard_of(tr)

    def test_hash_rejects_non_int_ids(self):
        part = make_partitioner("hash", 2)
        with pytest.raises(TrajectoryError):
            part.shard_of(Trajectory("t7", [(0, 0, 0), (1, 1, 1)]))

    def test_range_partitioners_require_fit(self, dataset):
        for kind in ("spatial", "temporal"):
            part = make_partitioner(kind, 3)
            with pytest.raises(QueryError):
                part.shard_of(next(iter(dataset)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_params_round_trip(self, kind, dataset):
        part = make_partitioner(kind, 3).fit(dataset)
        clone = partitioner_from_params(part.params())
        for tr in dataset:
            assert clone.shard_of(tr) == part.shard_of(tr)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_trajectory_lands_in_range(self, kind, dataset):
        part = make_partitioner(kind, 3).fit(dataset)
        for tr in dataset:
            assert 0 <= part.shard_of(tr) < 3


class TestShardedDataset:
    def test_partition_is_exact_cover(self, dataset):
        sharded = ShardedDataset.partition(
            dataset, make_partitioner("hash", 4)
        )
        seen = [tr.object_id for shard in sharded.shards for tr in shard]
        assert sorted(seen) == sorted(dataset.ids())
        assert len(seen) == len(set(seen))

    def test_shard_of_matches_assignment(self, dataset):
        sharded = ShardedDataset.partition(
            dataset, make_partitioner("round_robin", 3)
        )
        for oid in dataset.ids():
            shard_id = sharded.shard_of(oid)
            assert any(
                tr.object_id == oid for tr in sharded.shards[shard_id]
            )


# ----------------------------------------------------------------------
# cross-shard BFMST identity — the acceptance property
# ----------------------------------------------------------------------
class TestCrossShardIdentity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sharded_kmst_identical_to_single(
        self, tree_cls, kind, dataset, workload, single_index
    ):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner(kind, 4)
        )
        sharded = build_sharded_index(sharded_ds, tree_cls, page_size=1024)
        try:
            for query, period in workload:
                for k in (1, 5, 10):
                    want = bfmst_search(
                        single_index, None, query, period=period, k=k
                    )
                    got = bfmst_search(
                        sharded, None, query, period=period, k=k
                    )
                    assert match_tuples(got) == match_tuples(want)
        finally:
            sharded.close()

    def test_aggregate_stats_are_consistent(
        self, tree_cls, dataset, workload, single_index
    ):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("hash", 4)
        )
        sharded = build_sharded_index(sharded_ds, tree_cls, page_size=1024)
        try:
            query, period = workload[0]
            got = bfmst_search(sharded, None, query, period=period, k=5)
            stats = got.stats
            rows = stats.extra["per_shard"]
            assert len(rows) == 4
            searched = [r for r in rows if not r.get("pruned")]
            assert stats.extra["shards_searched"] == len(searched)
            assert stats.node_accesses == sum(
                r["node_accesses"] for r in searched
            )
            assert stats.total_nodes == sharded.num_nodes
        finally:
            sharded.close()

    def test_single_shard_degenerates_to_plain_search(
        self, tree_cls, dataset, workload, single_index
    ):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("round_robin", 1)
        )
        sharded = build_sharded_index(sharded_ds, tree_cls, page_size=1024)
        try:
            query, period = workload[0]
            want = bfmst_search(single_index, None, query, period=period, k=5)
            got = bfmst_search(sharded, None, query, period=period, k=5)
            assert match_tuples(got) == match_tuples(want)
            assert got.stats.node_accesses == want.stats.node_accesses
        finally:
            sharded.close()


coord = st.floats(min_value=-40.0, max_value=40.0)


@st.composite
def sharded_worlds(draw):
    """A small co-temporal world plus a shard count and partitioner."""
    total = draw(st.floats(min_value=2.0, max_value=30.0))
    n_objects = draw(st.integers(min_value=3, max_value=7))
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
    f_lo = draw(st.floats(min_value=0.0, max_value=0.5))
    f_len = draw(st.floats(min_value=0.2, max_value=0.45))
    period = (f_lo * total, (f_lo + f_len) * total)
    source = dataset[draw(st.integers(min_value=0, max_value=n_objects - 1))]
    query = source.sliced(*period).with_id(-1)
    k = draw(st.integers(min_value=1, max_value=n_objects))
    num_shards = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(ALL_KINDS))
    return dataset, query, period, k, num_shards, kind


@given(sharded_worlds())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_property_sharded_identity_on_arbitrary_worlds(world):
    dataset, query, period, k, num_shards, kind = world
    single = RTree3D(page_size=512)
    single.bulk_insert(dataset)
    single.finalize()
    sharded_ds = ShardedDataset.partition(
        dataset, make_partitioner(kind, num_shards)
    )
    sharded = build_sharded_index(sharded_ds, RTree3D, page_size=512)
    try:
        want = bfmst_search(single, None, query, period=period, k=k)
        got = bfmst_search(sharded, None, query, period=period, k=k)
        assert match_tuples(got) == match_tuples(want)
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# the other unified entry points accept the sharded context
# ----------------------------------------------------------------------
class TestOtherEntryPoints:
    @pytest.fixture(scope="class")
    def sharded(self, dataset):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("hash", 3)
        )
        index = build_sharded_index(sharded_ds, RTree3D, page_size=1024)
        yield sharded_ds, index
        index.close()

    @pytest.fixture(scope="class")
    def single(self, dataset):
        index = RTree3D(page_size=1024)
        index.bulk_insert(dataset)
        index.finalize()
        return index

    def test_nearest_neighbours(self, dataset, sharded, single):
        _, sidx = sharded
        p0 = next(iter(dataset)).samples[3]
        point = Point(p0.x + 0.5, p0.y - 0.5)
        want = nearest_neighbours(
            single, None, point, period=(p0.t - 10, p0.t + 10), k=3
        )
        got = nearest_neighbours(
            sidx, None, point, period=(p0.t - 10, p0.t + 10), k=3
        )
        assert match_tuples(got) == match_tuples(want)

    def test_range_query(self, dataset, sharded, single):
        _, sidx = sharded
        p0 = next(iter(dataset)).samples[0]
        window = MBR2D(p0.x - 30, p0.y - 30, p0.x + 30, p0.y + 30)
        want = range_query(single, None, window, period=(0.0, 2000.0))
        got = range_query(sidx, None, window, period=(0.0, 2000.0))
        assert got.ids == want.ids

    def test_linear_scan_over_sharded_dataset(self, dataset, sharded, workload):
        sharded_ds, _ = sharded
        query, period = workload[0]
        want = linear_scan_kmst(None, dataset, query, period=period, k=3)
        got = linear_scan_kmst(None, sharded_ds, query, period=period, k=3)
        assert match_tuples(got) == match_tuples(want)

    def test_query_trace_accepts_sharded_index(self, sharded, workload):
        _, sidx = sharded
        query, period = workload[0]
        with query_trace(sidx, name="sharded") as trace:
            result = bfmst_search(sidx, None, query, period=period, k=3)
        assert result.matches
        # pooled I/O accounting across every shard's page file
        assert trace.io is not None
        assert trace.io.logical_reads >= result.stats.node_accesses
        assert trace.counters["search.bfmst.sharded_queries"] == 1
        assert any(
            name.startswith("search.shard.") for name in trace.counters
        )


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class TestPlanner:
    def _staggered(self):
        """Three temporally disjoint fleets: [0,10], [20,30], [40,50]."""
        dataset = TrajectoryDataset()
        for epoch in range(3):
            t0 = epoch * 20.0
            for j in range(4):
                oid = epoch * 10 + j
                dataset.add(
                    Trajectory(
                        oid,
                        [(j, epoch, t0), (j + 1.0, epoch + 1.0, t0 + 10.0)],
                    )
                )
        return dataset

    def test_temporal_pruning_preserves_answers(self):
        dataset = self._staggered()
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("temporal", 3)
        )
        sharded = build_sharded_index(sharded_ds, RTree3D, page_size=512)
        try:
            planner = QueryPlanner(sharded.extents())
            query = dataset[11].sliced(22.0, 28.0).with_id(-1)
            plan = planner.plan(query, (22.0, 28.0))
            assert len(plan.selected) == 1
            assert len(plan.pruned) == 2
            all_shards = bfmst_search(
                sharded, None, query, period=(22.0, 28.0), k=3
            )
            sel_matches, sel_stats = raw_bfmst_search(
                sharded, query, (22.0, 28.0), 3, selected=plan.selected
            )
            assert [
                (m.trajectory_id, m.dissim, m.error_bound, m.exact)
                for m in sel_matches
            ] == match_tuples(all_shards)
            assert sel_stats.node_accesses <= all_shards.stats.node_accesses
            assert sel_stats.extra["shards_pruned"] == 2
            # Searched and planner-pruned rows have one shape.
            rows = sel_stats.extra["per_shard"]
            assert [r["pruned"] for r in rows] == [True, False, True]
            assert len({frozenset(r) for r in rows}) == 1
            assert {"signature_pruned", "leaf_skips"} <= set(rows[0])
        finally:
            sharded.close()

    def test_empty_extent_always_pruned(self):
        planner = QueryPlanner([None, None])
        plan = planner.plan(None, None)
        assert plan.selected == []
        assert plan.pruned == [0, 1]

    def test_no_spatial_filter(self):
        """A far-away trajectory is still a candidate: only time prunes."""
        extent = RTree3D(page_size=512)
        extent.insert(Trajectory(1, [(0, 0, 0), (1, 1, 10)]))
        extent.finalize()
        planner = QueryPlanner([extent.mbr()])
        far_query = Trajectory(-1, [(500, 500, 2), (501, 501, 8)])
        plan = planner.plan(far_query, (2.0, 8.0))
        assert (plan.selected, plan.reason) == ([0], "time")
        assert planner.plan(far_query, (20.0, 30.0)).pruned == [0]

    def test_sharded_node_expansions_stay_near_one_tree(self):
        """Planner pruning plus the shared bound keep the shards from
        expanding nodes one tree would have pruned: on a fleet whose
        epochs are logged back to back, total node accesses stay within
        1.25x the single index's at every shard count, answers equal."""
        dataset, workload = staggered_fleet(epochs=4)
        requests = [QuerySpec("mst", q, p, k=5) for q, p in workload]

        single = RTree3D(page_size=1024)
        single.bulk_insert(dataset)
        single.finalize()
        with QueryEngine(single) as engine:
            want = engine.run_batch(requests).results
        baseline = sum(r.stats.node_accesses for r in want)
        for num_shards in (1, 2, 4):
            sharded_ds = ShardedDataset.partition(
                dataset, make_partitioner("temporal", num_shards)
            )
            sharded = build_sharded_index(sharded_ds, RTree3D, page_size=1024)
            try:
                with ShardedQueryEngine(sharded) as engine:
                    got = engine.run_batch(requests).results
            finally:
                sharded.close()
            assert [match_tuples(r) for r in got] == [
                match_tuples(r) for r in want
            ]
            expansions = sum(r.stats.node_accesses for r in got)
            assert expansions <= 1.25 * baseline, (num_shards, expansions)

    def test_budget_buffers_respects_global_cap(self, dataset):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("hash", 4)
        )
        sharded = build_sharded_index(sharded_ds, RTree3D, page_size=1024)
        try:
            caps = budget_buffers(
                sharded.shards, fraction=1.0, total_max_pages=40, min_pages=2
            )
            assert len(caps) == 4
            assert all(cap >= 2 for cap in caps)
            assert sum(caps) <= 40 + 2 * 4  # proportional shares + floors
            for shard, cap in zip(sharded.shards, caps):
                assert shard.buffer.capacity == cap
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# sharded engine
# ----------------------------------------------------------------------
class TestShardedQueryEngine:
    def test_matches_plain_engine(self, dataset, workload, single_index, tree_cls):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("hash", 3)
        )
        sharded = build_sharded_index(sharded_ds, tree_cls, page_size=1024)
        requests = [
            QuerySpec("mst", q, p, k=5) for q, p in workload
        ]
        with QueryEngine(single_index) as ref:
            want = ref.run_batch(requests)
        with ShardedQueryEngine(sharded) as engine:
            got = engine.run_batch(requests)
            assert [match_tuples(r) for r in got.results] == [
                match_tuples(r) for r in want.results
            ]
            assert engine.metrics.value("engine.planner.plans") == len(requests)
            rows = engine.per_shard_summary()
            assert len(rows) == 3
            assert sum(r["queries"] + r["pruned"] for r in rows) >= len(requests)
        sharded.close()

    def test_threaded_path_locks_every_shard_buffer(self, dataset, workload):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("round_robin", 3)
        )
        sharded = build_sharded_index(sharded_ds, RTree3D, page_size=1024)
        config = EngineConfig(executor="thread", max_workers=4)
        with ShardedQueryEngine(sharded, config=config) as engine:
            # regression: every shard buffer must be locked up front,
            # not lazily on first touch
            assert all(
                shard.buffer._lock is not None for shard in sharded.shards
            )
            got = engine.run_batch(
                [QuerySpec("mst", q, p, k=5) for q, p in workload]
            )
            assert got.executor == "thread"
        sharded.close()

    def test_closed_engine_rejects_queries(self, dataset, workload):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("hash", 2)
        )
        sharded = build_sharded_index(sharded_ds, RTree3D, page_size=1024)
        engine = ShardedQueryEngine(sharded)
        engine.close()
        query, period = workload[0]
        with pytest.raises(QueryError):
            engine.execute(QuerySpec("mst", query, period, k=1))
        sharded.close()

    def test_retired_kinds_rejected(self, dataset, workload):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("hash", 2)
        )
        sharded = build_sharded_index(sharded_ds, RTree3D, page_size=1024)
        with ShardedQueryEngine(sharded) as engine:
            query, period = workload[0]
            for kind in ("linear_scan", "range", "time_relaxed"):
                with pytest.raises(QueryError, match="'mst'"):
                    engine.execute(QuerySpec(kind, query, period, k=1))
            assert engine.metrics.value("engine.planner.plans") == 0
        sharded.close()
