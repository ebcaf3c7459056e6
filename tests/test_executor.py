"""A sharded engine's work repeats, run after run, under every
executor kind."""

import itertools
import sys

import pytest

from repro import QuerySpec, RTree3D, generate_gstd, make_workload
from repro.engine import EngineConfig, ShardedQueryEngine
from repro.obs import query_trace
from repro.sharding import (
    ShardedDataset,
    build_sharded_index,
    make_partitioner,
    save_sharded_index,
)


class TestShardWorkRepeats:
    """A sharded engine does the same work for the same specs, run
    after run, on every kind alike: each searches a query's shards as
    one tree on the calling thread, so no count depends on which shard
    a scheduler lets tighten the bound first."""

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

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_two_runs_do_equal_work(self, shards, executor):
        directory, specs = shards
        first = self.run(directory, specs, executor)
        assert all(row[2] > 0 for row in first)  # the filter took part
        assert self.run(directory, specs, executor) == first

    def test_thread_kind_does_the_serial_work(self, shards):
        directory, specs = shards
        assert self.run(directory, specs, "thread") == self.run(
            directory, specs, "serial"
        )
