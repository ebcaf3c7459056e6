"""The batched query engine: correctness with pinned buffers,
re-pinning after a rebuild, executors and telemetry.

The load-bearing property: a batch run through the engine — with
buffer pinning active — returns answers *identical* to one-off
:func:`repro.search.bfmst.bfmst_search` calls on a pristine stack, and
the engine keeps no per-query state: a repeated request does the same
work as its first execution.
"""

from __future__ import annotations

import pytest

from repro.datagen import generate_gstd, make_workload
from repro.engine import (
    BatchResult,
    EngineConfig,
    QueryEngine,
    ShardedQueryEngine,
    ThreadedExecutor,
    make_executor,
)
from repro.engine.engine import PinnedIndex
from repro.exceptions import QueryError
from repro.geometry import MBR2D, Point
from repro.index import RTree3D, TBTree
from repro.obs import query_trace
from repro.search import QuerySpec
from repro.search.bfmst import bfmst_search as raw_bfmst
from repro.search.linear_scan import linear_scan_kmst as raw_scan
from repro.sharding import ShardedDataset, build_sharded_index, make_partitioner

from conftest import work_counters


@pytest.fixture(scope="module")
def dataset():
    return generate_gstd(40, samples_per_object=60, seed=17)


@pytest.fixture(scope="module")
def workload(dataset):
    return list(make_workload(dataset, 5, query_length=0.2, seed=9))


def _build(tree_cls, dataset):
    index = tree_cls(page_size=512)
    index.bulk_insert(dataset)
    index.finalize()
    return index


def _key(matches):
    return [(m.trajectory_id, m.dissim, m.error_bound, m.exact)
            for m in matches]


def _traced_work(engine, request):
    """One execution under its own trace: the answer and the
    traversal's work as counts that repeat exactly."""
    with query_trace(None):
        result = engine.execute(request)
    return result.answer_json(), work_counters(result.stats)


class TestBatchedIdentity:
    """Engine answers are byte-identical to one-off searches."""

    @pytest.mark.parametrize("tree_cls", [RTree3D, TBTree])
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_mst_batch_matches_one_off(self, tree_cls, k, dataset, workload):
        index = _build(tree_cls, dataset)
        with QueryEngine(index, dataset) as engine:
            requests = [
                QuerySpec("mst", q, p, k=k) for q, p in workload
            ] * 2  # repeats run against warm, pinned buffers
            batch = engine.run_batch(requests)
            for i, (q, p) in enumerate(workload):
                want, _stats = raw_bfmst(index, q, p, k)
                assert _key(batch.results[i].matches) == _key(want)
                repeat = batch.results[i + len(workload)]
                assert _key(repeat.matches) == _key(want)

    def test_threaded_batch_matches_serial(self, dataset, workload):
        index = _build(RTree3D, dataset)
        requests = [QuerySpec("mst", q, p, k=3) for q, p in workload] * 2
        serial = QueryEngine(index, dataset).run_batch(requests)
        threaded = QueryEngine(
            index, dataset,
            config=EngineConfig(executor="thread", max_workers=4),
        ).run_batch(requests)
        assert threaded.executor == "thread"
        for a, b in zip(serial.results, threaded.results):
            assert _key(a.matches) == _key(b.matches)

    def test_mixed_kind_batch(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        with QueryEngine(index, dataset) as engine:
            batch = engine.run_batch([
                QuerySpec("mst", q, p, k=3),
                QuerySpec("linear_scan", q, p, k=3,
                             options={"exact": True}),
                QuerySpec("nn", Point(0.5, 0.5), p, k=2),
                QuerySpec("range", MBR2D(0.2, 0.2, 0.8, 0.8), p),
                QuerySpec("time_relaxed", q, k=2),
            ])
        algorithms = [r.algorithm for r in batch]
        assert algorithms == [
            "bfmst", "linear_scan", "nn", "range", "time_relaxed"
        ]
        truth = raw_scan(dataset, q, p, 3, True)
        assert batch.results[1].ids == [m.trajectory_id for m in truth]
        # every result carries the unified stats block
        for r in batch:
            assert r.stats.as_dict()["pruning_power"] >= 0.0

    def test_engine_as_context_for_unified_api(self, dataset, workload):
        from repro.search import bfmst_search

        index = _build(RTree3D, dataset)
        q, p = workload[0]
        with QueryEngine(index, dataset) as engine:
            via_ctx = bfmst_search(engine, None, q, period=p, k=4)
        want, _ = raw_bfmst(index, q, p, 4)
        assert _key(via_ctx.matches) == _key(want)


class TestCaches:
    def test_mindist_memo_hits_on_repeat(self, dataset, workload):
        # The engine keeps no MINDIST memo: every repeat traverses
        # again, evaluates the same boxes and gives the same answer.
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        request = QuerySpec("mst", q, p, k=2)
        with QueryEngine(index, dataset) as engine:
            runs = [_traced_work(engine, request) for _ in range(3)]
        first_answer, first_work = runs[0]
        assert first_work["mindist_evaluations"] > 0
        assert first_work["node_accesses"] > 0
        for answer, work in runs[1:]:
            assert answer == first_answer
            assert work == first_work

    def test_segdissim_memo_hits_on_repeat(self, dataset, workload):
        # Nor a segment-DISSIM memo, on any engine: the repeat over a
        # sharded index re-integrates every window it retrieves.
        sharded = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner("hash", 3)),
            TBTree,
            page_size=512,
        )
        q, p = workload[0]
        request = QuerySpec("mst", q, p, k=3)
        try:
            with ShardedQueryEngine(sharded, dataset) as engine:
                first_answer, first_work = _traced_work(engine, request)
                repeat_answer, repeat_work = _traced_work(engine, request)
        finally:
            sharded.close()
        assert first_work["entries_processed"] > 0
        assert first_work["trapezoid_evals"] > 0
        assert repeat_work == first_work
        assert repeat_answer == first_answer


class TestInvalidation:
    def test_rebuild_invalidates_caches(self, dataset):
        index = RTree3D(page_size=512)
        trajectories = list(dataset)
        for tr in trajectories[:-1]:
            index.insert(tr)
        (q, p), = make_workload(dataset, 1, query_length=0.2, seed=9)
        engine = QueryEngine(index, dataset)
        engine.run_batch([QuerySpec("mst", q, p, k=2)])
        assert engine.metrics.counters.get(
            "engine.cache.invalidations", 0
        ) == 0
        index.insert(trajectories[-1])  # structural change
        result = engine.run_batch([QuerySpec("mst", q, p, k=2)])
        assert engine.metrics.counters["engine.cache.invalidations"] == 1
        # and the post-invalidation answer is still correct
        want, _ = raw_bfmst(index, q, p, 2)
        assert _key(result.results[0].matches) == _key(want)
        engine.close()

    def test_pinning_tracks_rebuild(self, dataset):
        index = _build(RTree3D, dataset)
        pin = PinnedIndex(index, 1)
        assert index.buffer.pinned_pages == {index.root_page}
        pin.release()
        assert index.buffer.pinned_pages == frozenset()


class TestEngineSurface:
    def test_requires_dataset_for_scan_kinds(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        engine = QueryEngine(index)  # no dataset
        with pytest.raises(QueryError, match="dataset"):
            engine.execute(QuerySpec("linear_scan", q, p, k=1))
        engine.close()

    def test_unknown_kind_rejected(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        with QueryEngine(index, dataset) as engine:
            with pytest.raises(QueryError, match="unknown query kind"):
                engine.execute(QuerySpec("voronoi", q, p))

    def test_closed_engine_rejects_queries(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        engine = QueryEngine(index, dataset)
        engine.close()
        with pytest.raises(QueryError, match="closed"):
            engine.run_batch([QuerySpec("mst", q, p)])

    def test_batch_result_shape(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        with QueryEngine(index, dataset) as engine:
            batch = engine.run_batch([QuerySpec("mst", q, p, k=1)])
        assert isinstance(batch, BatchResult)
        assert len(batch) == 1
        doc = batch.as_dict()
        assert doc["num_queries"] == 1
        assert doc["queries_per_sec"] > 0
        assert "engine.buffer.hits" in doc["cache"]

    def test_executor_factory(self):
        assert make_executor("serial").kind == "serial"
        ex = make_executor("thread", 2)
        assert isinstance(ex, ThreadedExecutor) and ex.max_workers == 2
        with pytest.raises(ValueError):
            make_executor("fork")
