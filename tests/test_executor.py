"""Executor session semantics: one pool per instance, reused across
batches, shut down with close() — plus the engine-owned executor."""

import pytest

from repro import QuerySpec, RTree3D, generate_gstd, make_workload
from repro.engine import (
    EngineConfig,
    QueryEngine,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
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
