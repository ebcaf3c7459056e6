"""Executor session semantics: one pool per instance, reused across
batches, shut down with close() — plus the engine-owned executor, and
a sharded engine's work repeating under either in-process kind."""

import itertools
import sys

import pytest

from repro import QuerySpec, RTree3D, generate_gstd, make_workload
from repro.engine import (
    EngineConfig,
    QueryEngine,
    SerialExecutor,
    ShardedQueryEngine,
    ThreadedExecutor,
    make_executor,
)
from repro.obs import query_trace
from repro.sharding import (
    ShardedDataset,
    build_sharded_index,
    make_partitioner,
    save_sharded_index,
)


def double(i, item):
    return (i, item * 2)


class TestThreadedExecutorPool:
    def test_pool_created_lazily_and_reused(self):
        ex = ThreadedExecutor(max_workers=2)
        assert ex._pool is None
        assert ex.map(double, [1, 2, 3]) == [(0, 2), (1, 4), (2, 6)]
        pool = ex._pool
        assert pool is not None
        ex.map(double, [4, 5])
        assert ex._pool is pool  # regression: no fresh pool per batch
        ex.close()

    def test_close_is_idempotent_and_reopens_on_use(self):
        ex = ThreadedExecutor(max_workers=2)
        ex.map(double, [1, 2])
        ex.close()
        assert ex._pool is None
        ex.close()  # second close is a no-op
        assert ex.map(double, [7, 8]) == [(0, 14), (1, 16)]
        assert ex._pool is not None
        ex.close()

    def test_small_batches_skip_the_pool(self):
        ex = ThreadedExecutor(max_workers=2)
        assert ex.map(double, [9]) == [(0, 18)]
        assert ex._pool is None  # one request never spins up threads
        ex.close()

    def test_context_manager_closes(self):
        with ThreadedExecutor(max_workers=2) as ex:
            ex.map(double, [1, 2])
        assert ex._pool is None

    def test_order_preserved(self):
        ex = ThreadedExecutor(max_workers=4)
        got = ex.map(lambda i, x: x, list(range(50)))
        assert got == list(range(50))
        ex.close()


class TestSerialExecutor:
    def test_map_and_close(self):
        with SerialExecutor() as ex:
            assert ex.map(double, [1, 2]) == [(0, 2), (1, 4)]

    def test_make_executor(self):
        assert make_executor("serial").kind == "serial"
        assert make_executor("thread", 3).kind == "thread"
        assert make_executor("process", 2).kind == "process"
        with pytest.raises(ValueError):
            make_executor("fork")


class TestEngineOwnedExecutor:
    @pytest.fixture(scope="class")
    def world(self):
        dataset = generate_gstd(12, samples_per_object=15, seed=3)
        index = RTree3D(page_size=1024)
        index.bulk_insert(dataset)
        index.finalize()
        workload = list(make_workload(dataset, 3, seed=8))
        return index, dataset, workload

    def test_threaded_engine_reuses_one_pool(self, world):
        index, dataset, workload = world
        config = EngineConfig(executor="thread", max_workers=2)
        with QueryEngine(index, config=config) as engine:
            requests = [QuerySpec("mst", q, p, k=2) for q, p in workload]
            engine.run_batch(requests)
            pool = engine.executor._pool
            engine.run_batch(requests)
            assert engine.executor._pool is pool
            # threaded batches must have locked the buffer manager
            assert index.buffer._lock is not None
        assert engine.executor._pool is None  # close() tears it down


class TestShardWorkRepeats:
    """A sharded engine does the same work for the same specs, run
    after run, on the serial and the thread kind alike: both search a
    query's shards as one tree on the calling thread, so no count
    depends on which shard a scheduler lets tighten the bound first."""

    @pytest.fixture(scope="class")
    def shards(self, tmp_path_factory):
        dataset = generate_gstd(80, samples_per_object=30, seed=31)
        sharded = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner("hash", 4)),
            RTree3D,
            page_size=512,
        )
        directory = tmp_path_factory.mktemp("repeat") / "shards"
        save_sharded_index(sharded, directory, signatures=True)
        sharded.close()
        workload = make_workload(dataset, 24, 0.1, seed=17)
        specs = [
            QuerySpec("mst", query, period, k=k)
            for (query, period), k in zip(workload, itertools.cycle((1, 5, 10)))
        ]
        return directory, specs

    @staticmethod
    def run(directory, specs, executor):
        """Every spec once on a fresh engine: its answer and its work."""
        engine = ShardedQueryEngine.open(
            directory, config=EngineConfig(executor=executor, max_workers=2)
        )
        rows = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # any thread interleaving would show
        try:
            for spec in specs:
                with query_trace():
                    result = engine.execute(spec)
                s = result.stats
                rows.append(
                    (
                        result.answer_json(),
                        s.node_accesses,
                        s.signature_checks,
                        s.trapezoid_evals,
                        s.buffer_hits,
                        s.buffer_misses,
                        s.extra["per_shard"],
                    )
                )
        finally:
            sys.setswitchinterval(interval)
            engine.close()
            engine.index.close()
        return rows

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_two_runs_do_equal_work(self, shards, executor):
        directory, specs = shards
        first = self.run(directory, specs, executor)
        assert all(row[2] > 0 for row in first)  # the filter took part
        assert self.run(directory, specs, executor) == first

    def test_a_thread_pool_is_no_search_executor(self, shards):
        """The driver searches here or hands plans to ``run_parts``;
        an executor that only maps is refused before any part runs."""
        from repro.exceptions import QueryError
        from repro.search.bfmst import bfmst_search
        from repro.sharding import load_sharded_index

        directory, specs = shards
        sharded = load_sharded_index(directory)
        try:
            with ThreadedExecutor(2) as pool, pytest.raises(
                QueryError, match="run_parts"
            ):
                bfmst_search(
                    sharded, specs[0].query, specs[0].period, k=3,
                    executor=pool,
                )
            assert pool._pool is None
        finally:
            sharded.close()

    def test_thread_kind_does_the_serial_work(self, shards):
        directory, specs = shards
        assert self.run(directory, specs, "thread") == self.run(
            directory, specs, "serial"
        )
