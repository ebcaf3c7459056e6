"""The batched query engine: correctness over a warm buffer pool,
invalidation after a rebuild, executors and telemetry.

The load-bearing property: a batch run through the engine — its
buffer pool warm — returns answers *identical* to one-off
:func:`repro.search.bfmst.bfmst_search` calls on a pristine stack, and
the engine keeps no per-query state: a repeated request does the same
work as its first execution.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

import pytest

from repro.datagen import generate_gstd, make_workload
from repro.engine import (
    SESSION_MAX_PAGES,
    BatchResult,
    EngineConfig,
    QueryEngine,
    ShardedQueryEngine,
)
from repro.exceptions import QueryError
from repro.index import RTree3D, TBTree, save_index
from repro.obs import query_trace
from repro.search import QuerySpec
from repro.search.bfmst import bfmst_search as raw_bfmst
from repro.sharding import (
    ShardedDataset,
    ShardedIndex,
    build_sharded_index,
    make_partitioner,
    save_sharded_index,
)

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
        with QueryEngine(index) as engine:
            requests = [
                QuerySpec("mst", q, p, k=k) for q, p in workload
            ] * 2  # repeats run against warm buffers
            batch = engine.run_batch(requests)
            for i, (q, p) in enumerate(workload):
                want, _stats = raw_bfmst(index, q, p, k)
                assert _key(batch.results[i].matches) == _key(want)
                repeat = batch.results[i + len(workload)]
                assert _key(repeat.matches) == _key(want)

    def test_threaded_batch_matches_serial(self, dataset, workload):
        index = _build(RTree3D, dataset)
        requests = [QuerySpec("mst", q, p, k=3) for q, p in workload] * 2
        serial = QueryEngine(index).run_batch(requests)
        threaded = QueryEngine(
            index,
            config=EngineConfig(executor="thread", max_workers=4),
        ).run_batch(requests)
        assert threaded.executor == "thread"
        for a, b in zip(serial.results, threaded.results):
            assert _key(a.matches) == _key(b.matches)

    def test_mixed_option_batch(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        want, _ = raw_bfmst(index, q, p, 3)
        best = want[0].trajectory_id
        options = [
            {},
            {"exclude_ids": frozenset({best})},
            {"use_heuristic1": False, "use_heuristic2": False},
            {"refine": False},
        ]
        with QueryEngine(index) as engine:
            batch = engine.run_batch(
                [QuerySpec("mst", q, p, k=3, options=o) for o in options]
            )
        assert [r.algorithm for r in batch] == ["bfmst"] * len(options)
        assert _key(batch.results[0].matches) == _key(want)
        assert best not in batch.results[1].ids
        assert batch.results[2].ids == batch.results[0].ids
        for r, o in zip(batch, options):
            assert r.spec.options == o
            assert r.stats.as_dict()["pruning_power"] >= 0.0

    def test_engine_as_context_for_unified_api(self, dataset, workload):
        from repro.search import bfmst_search

        index = _build(RTree3D, dataset)
        q, p = workload[0]
        with QueryEngine(index) as engine:
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
        with QueryEngine(index) as engine:
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
            with ShardedQueryEngine(sharded) as engine:
                first_answer, first_work = _traced_work(engine, request)
                repeat_answer, repeat_work = _traced_work(engine, request)
        finally:
            sharded.close()
        assert first_work["entries_processed"] > 0
        assert first_work["trapezoid_evals"] > 0
        assert repeat_work == first_work
        assert repeat_answer == first_answer


class TestSessionPool:
    """A session's pool holds its whole index (up to
    ``SESSION_MAX_PAGES``): after one pass every page is resident, so a
    second pass of the same requests reads the same pages and misses
    none."""

    @staticmethod
    def _open(kind, tree_cls, dataset, tmp_path):
        if kind == "single":
            path = tmp_path / "index.pages"
            save_index(_build(tree_cls, dataset), path, signatures=True)
            return QueryEngine.open(path)
        sharded = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner("hash", 3)),
            tree_cls,
            page_size=512,
        )
        try:
            save_sharded_index(sharded, tmp_path / "shards", signatures=True)
        finally:
            sharded.close()
        return ShardedQueryEngine.open(tmp_path / "shards")

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    @pytest.mark.parametrize("tree_cls", [RTree3D, TBTree])
    def test_second_pass_misses_nothing(
        self, kind, tree_cls, dataset, workload, tmp_path
    ):
        engine = self._open(kind, tree_cls, dataset, tmp_path)
        indexes = engine._indexes
        try:
            assert sum(ix.pagefile.num_pages for ix in indexes) < SESSION_MAX_PAGES
            for ix in indexes:
                assert ix.buffer.capacity >= ix.pagefile.num_pages
            requests = [QuerySpec("mst", q, p, k=3) for q, p in workload]

            def one_pass():
                before = engine.cache_counters()
                answers = [_key(r.matches) for r in engine.run_batch(requests)]
                after = engine.cache_counters()
                hits, misses = (
                    after[f"engine.buffer.{n}"] - before[f"engine.buffer.{n}"]
                    for n in ("hits", "misses")
                )
                return answers, hits + misses, misses

            first, reads, misses = one_pass()
            assert misses > 0
            again, reads_again, misses_again = one_pass()
        finally:
            engine.close()
            for ix in indexes:
                ix.pagefile.close()
        assert again == first
        assert reads_again == reads
        assert misses_again == 0

    def test_closed_engine_frees_its_index_without_the_cycle_collector(
        self, dataset, workload, tmp_path
    ):
        # Nothing the index hands its buffer (the node serialiser above
        # all) may point back at the index: then dropping the last
        # reference frees the index and every page it decoded at once.
        path = tmp_path / "index.pages"
        save_index(_build(TBTree, dataset), path, signatures=True)
        q, p = workload[0]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            engine = QueryEngine.open(path)
            engine.execute(QuerySpec("mst", q, p, k=3))
            index = weakref.ref(engine.index)
            engine.close()
            engine.index.pagefile.close()
            del engine
            assert index() is None
        finally:
            if was_enabled:
                gc.enable()


class TestInvalidation:
    def test_rebuild_invalidates_caches(self, dataset):
        index = RTree3D(page_size=512)
        trajectories = list(dataset)
        for tr in trajectories[:-1]:
            index.insert(tr)
        (q, p), = make_workload(dataset, 1, query_length=0.2, seed=9)
        engine = QueryEngine(index)
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

    def test_one_invalidation_per_changed_shard(self, dataset):
        trajectories = list(dataset)
        shards = [RTree3D(page_size=512) for _ in range(3)]
        for i, tr in enumerate(trajectories[:-1]):
            shards[i % 3].insert(tr)
        sharded = ShardedIndex(shards)
        (q, p), = make_workload(dataset, 1, query_length=0.2, seed=9)
        spec = QuerySpec("mst", q, p, k=2)
        engine = ShardedQueryEngine(sharded)
        try:
            engine.execute(spec)
            before = engine.signature()
            sharded.shards[1].insert(trajectories[-1])
            assert engine.signature() != before
            engine.execute(spec)
            engine.execute(spec)
            counters = engine.metrics.counters
            assert counters["engine.cache.invalidations"] == 1
            assert counters["engine.sessions"] == 1  # constructions only
        finally:
            engine.close()


class TestEngineSurface:
    def test_unknown_kind_rejected(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        retired = (
            "bfmst", "kmst", "linear_scan", "scan", "nn", "range",
            "continuous_nn", "cnn", "time_relaxed",
        )
        with QueryEngine(index) as engine:
            for kind in ("voronoi", *retired):
                with pytest.raises(QueryError, match="unknown query kind"):
                    engine.execute(QuerySpec(kind, q, p))
            assert engine.metrics.value("engine.queries") == 0

    def test_closed_engine_rejects_queries(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        engine = QueryEngine(index)
        engine.close()
        with pytest.raises(QueryError, match="closed"):
            engine.run_batch([QuerySpec("mst", q, p)])

    def test_batch_result_shape(self, dataset, workload):
        index = _build(RTree3D, dataset)
        q, p = workload[0]
        with QueryEngine(index) as engine:
            batch = engine.run_batch([QuerySpec("mst", q, p, k=1)])
        assert isinstance(batch, BatchResult)
        assert len(batch) == 1
        doc = batch.as_dict()
        assert doc["num_queries"] == 1
        assert doc["queries_per_sec"] > 0
        assert "engine.buffer.hits" in doc["cache"]

    def test_executor_factory(self):
        for kind in ("serial", "thread", "process"):
            assert EngineConfig(executor=kind, max_workers=2).executor == kind
        with pytest.raises(ValueError, match="unknown executor kind"):
            EngineConfig(executor="fork")


class TestOneRequestAtATime:
    """An engine of any kind runs one ``execute`` at a time behind its
    own lock, and its buffers take none."""

    @staticmethod
    def _overlap(engine, request) -> int:
        """How many of two simultaneous ``execute`` calls were inside
        the search at once."""
        inside = peak = 0
        count = threading.Lock()
        parts = engine._parts

        @contextmanager
        def watched(request):
            nonlocal inside, peak
            with parts(request) as context:
                with count:
                    inside += 1
                    peak = max(peak, inside)
                time.sleep(0.2)  # gives the other caller time to enter
                try:
                    yield context
                finally:
                    with count:
                        inside -= 1

        engine._parts = watched
        start = threading.Barrier(2)
        errors = []

        def call():
            start.wait(timeout=10)
            try:
                engine.execute(request)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        return peak

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_calls_never_overlap(self, executor, dataset, workload):
        q, p = workload[0]
        index = _build(RTree3D, dataset)
        config = EngineConfig(executor=executor, max_workers=2)
        with QueryEngine(index, config=config) as engine:
            assert self._overlap(engine, QuerySpec("mst", q, p, k=3)) == 1
            assert engine.metrics.value("engine.queries") == 2
        assert isinstance(index.buffer._lock, nullcontext)

    def test_many_callers_on_one_serial_sharded_engine(self, dataset, workload):
        """More callers than cores and a short switch interval: every
        answer equals its one-at-a-time answer, and no counter update
        is lost although the buffers take no lock."""
        sharded = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner("hash", 4)),
            RTree3D,
            page_size=512,
        )
        requests = [QuerySpec("mst", q, p, k=3) for q, p in workload]
        calls = 8 * len(requests)
        with ShardedQueryEngine(sharded) as engine:
            want = [engine.execute(r).answer_json() for r in requests]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(8) as pool:
                    got = list(pool.map(
                        lambda i: engine.execute(
                            requests[i % len(requests)]
                        ).answer_json(),
                        range(calls),
                        timeout=120,
                    ))
            finally:
                sys.setswitchinterval(interval)
            assert got == [want[i % len(requests)] for i in range(calls)]
            assert engine.metrics.value("engine.queries") == len(requests) + calls
