"""Process-per-shard execution: picklable plans, columnar answers.

Covers the four contracts of the process-pool path:

* **identity** — ``executor="process"`` answers are byte-identical to
  ``executor="serial"`` across both trees × both partitioners ×
  k ∈ {1, 5, 10} (the answers travel as columnar
  :class:`~repro.engine.planner.ShardAnswer` buffers and merge through
  the same code path, so this is the acceptance property);
* **serialization** — :class:`~repro.engine.planner.ShardPlan` /
  :class:`ShardAnswer` round-trip through pickle *and* the versioned
  JSON codec (the pickle form is the codec), malformed payloads and
  stale generation signatures are rejected;
* **deadlines** — the absolute deadline is an explicit plan field
  enforced inside workers, and a served process-pool engine still
  returns 504;
* **observability** — workers start from fresh registries and ship
  per-call counter deltas; the parent's shard-labelled totals match the
  serial executor's for the same batch.
"""

import json
import math
import multiprocessing
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RTree3D, TBTree, generate_gstd, make_workload
from repro.engine import (
    EngineConfig,
    ProcessPoolShardExecutor,
    ShardAnswer,
    ShardedQueryEngine,
    ShardPlan,
)
from repro.engine.executor import _execute_shard_plan
from repro.exceptions import DeadlineExceeded, QueryError
from repro.search.spec import QuerySpec
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.serve.client import ServeRejected
from repro.sharding import (
    ShardedDataset,
    build_sharded_index,
    make_partitioner,
    save_sharded_index,
)

from conftest import staggered_fleet, trajectories

ALL_KINDS = ("hash", "temporal")


@pytest.fixture(scope="module")
def dataset():
    return generate_gstd(24, samples_per_object=20, seed=13)


@pytest.fixture(scope="module")
def workload(dataset):
    return list(make_workload(dataset, 2, 0.15, seed=5))


def _save_sharded(dataset, tree_cls, kind, directory, num_shards=4):
    sharded_ds = ShardedDataset.partition(
        dataset, make_partitioner(kind, num_shards)
    )
    sharded = build_sharded_index(sharded_ds, tree_cls, page_size=1024)
    save_sharded_index(sharded, directory)
    sharded.close()


# ----------------------------------------------------------------------
# byte-identity — the acceptance property
# ----------------------------------------------------------------------
class TestProcessExecutorIdentity:
    @pytest.mark.parametrize("tree_cls", [RTree3D, TBTree])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_process_answers_identical_to_serial(
        self, tree_cls, kind, dataset, workload, tmp_path
    ):
        directory = tmp_path / "shards"
        _save_sharded(dataset, tree_cls, kind, directory)
        serial = ShardedQueryEngine.open(
            directory, config=EngineConfig(executor="serial")
        )
        proc = ShardedQueryEngine.open(
            directory,
            config=EngineConfig(executor="process", max_workers=2),
        )
        try:
            for query, period in workload:
                for k in (1, 5, 10):
                    want = serial.execute(
                        QuerySpec("mst", query, period, k=k)
                    )
                    got = proc.execute(QuerySpec("mst", query, period, k=k))
                    assert got.answer_json() == want.answer_json()
        finally:
            proc.close()
            serial.close()

    def test_clean_shutdown_leaves_no_workers(self, dataset, workload, tmp_path):
        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "hash", directory)
        proc = ShardedQueryEngine.open(
            directory,
            config=EngineConfig(executor="process", max_workers=2),
        )
        query, period = workload[0]
        proc.execute(QuerySpec("mst", query, period, k=3))
        assert multiprocessing.active_children()  # pool is actually up
        proc.close()
        assert multiprocessing.active_children() == []

    def test_process_executor_requires_shard_paths(self, dataset):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("hash", 2)
        )
        sharded = build_sharded_index(sharded_ds, RTree3D, page_size=1024)
        try:
            with pytest.raises(QueryError, match="manifest"):
                ShardedQueryEngine(
                    sharded, config=EngineConfig(executor="process")
                )
        finally:
            sharded.close()

    def test_pool_close_is_idempotent_and_reopens(self, dataset, workload, tmp_path):
        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "hash", directory)
        proc = ShardedQueryEngine.open(
            directory,
            config=EngineConfig(executor="process", max_workers=2),
        )
        query, period = workload[0]
        try:
            first = proc.execute(QuerySpec("mst", query, period, k=3))
            proc.executor.close()
            proc.executor.close()  # second close is a no-op
            again = proc.execute(QuerySpec("mst", query, period, k=3))
            assert again.answer_json() == first.answer_json()
        finally:
            proc.close()

    def test_dead_worker_costs_one_request_at_most(
        self, dataset, workload, tmp_path
    ):
        """A worker killed between requests breaks its pool.  At most
        one request fails; the engine starts a fresh pool, and every
        later request answers like the serial executor."""
        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "hash", directory)
        serial = ShardedQueryEngine.open(
            directory, config=EngineConfig(executor="serial")
        )
        proc = ShardedQueryEngine.open(
            directory,
            config=EngineConfig(executor="process", max_workers=2),
        )
        query, period = workload[0]
        spec = QuerySpec("mst", query, period, k=3)
        try:
            want = serial.execute(spec).answer_json()
            assert proc.execute(spec).answer_json() == want
            victim = next(iter(proc.executor._pool._processes))
            os.kill(victim, signal.SIGKILL)
            failures = 0
            for _ in range(3):
                try:
                    got = proc.execute(spec)
                except BrokenProcessPool:
                    failures += 1
                    continue
                assert got.answer_json() == want
            assert failures <= 1
        finally:
            proc.close()
            serial.close()


# ----------------------------------------------------------------------
# the serialization contract
# ----------------------------------------------------------------------
def _plan_for(query, **overrides) -> ShardPlan:
    spec = QuerySpec(
        "mst",
        query,
        (query.t_start, query.t_end),
        k=3,
        options={"exclude_ids": frozenset({7, 2})},
    )
    fields = dict(
        spec=spec,
        shard_id=1,
        shard_path="/data/shards/shard_0001.pages",
        signature=(12, 310, 4),
        vmax=3.5,
        buffer_pages=25,
        deadline=1234.5,
    )
    fields.update(overrides)
    return ShardPlan(**fields)


#: Hostile values for any field of a work-unit message.
HOSTILE = [
    None, True, 0, -3, 5, 1.5, math.nan, math.inf, "x", "", [], {},
    ["a", "b", "c"], [1, 2, 3], [1.5], [-1], [True],
]


class TestSerializationContract:
    @given(query=trajectories(id_=-1), vmax=st.floats(0.0, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_shard_plan_round_trips_pickle_and_json(self, query, vmax):
        plan = _plan_for(query, vmax=vmax)
        doc = plan.as_dict()
        # pickle is routed through the dict codec
        assert pickle.loads(pickle.dumps(plan)).as_dict() == doc
        # and the dict codec survives a real JSON hop
        assert ShardPlan.from_dict(json.loads(json.dumps(doc))).as_dict() == doc

    @given(
        values=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.floats(0.0, 1e6, allow_nan=False),
                st.floats(0.0, 1e3, allow_nan=False),
            ),
            max_size=8,
        ),
        windows=st.lists(
            st.tuples(
                st.floats(0.0, 1e3, allow_nan=False),  # lo
                st.floats(0.01, 1e3, allow_nan=False),  # hi - lo
                st.floats(-1e3, 1e3, allow_nan=False),  # x1
                st.floats(-1e3, 1e3, allow_nan=False),  # y1
                st.floats(0.0, 1e3, allow_nan=False),  # t1
                st.floats(-1e3, 1e3, allow_nan=False),  # x2
                st.floats(-1e3, 1e3, allow_nan=False),  # y2
                st.floats(0.01, 1e3, allow_nan=False),  # t2 - t1
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_shard_answer_round_trips_pickle_and_json(self, values, windows):
        answer = ShardAnswer(
            shard_id=2,
            signature=(5, 40, 1),
            exact_tids=[tid for tid, _v, _e in values],
            exact_values=[v for _t, v, _e in values],
            exact_error_bounds=[e for _t, _v, e in values],
            window_counts=[0] * len(values),
            window_data=[],
            partial_tids=[9000],
            partial_values=[1.25],
            stats={"node_accesses": 3},
            counters={"index.mindist_evaluations": 7},
        )
        if values:  # hang the sampled windows off the first candidate
            answer.window_counts[0] = len(windows)
            for lo, span, x1, y1, t1, x2, y2, dt in windows:
                answer.window_data.extend(
                    (lo, lo + span, x1, y1, t1, x2, y2, t1 + dt)
                )
        doc = answer.as_dict()
        assert pickle.loads(pickle.dumps(answer)).as_dict() == doc
        revived = ShardAnswer.from_dict(json.loads(json.dumps(doc)))
        assert revived.as_dict() == doc
        # decode → re-encode is lossless too
        rebuilt = ShardAnswer.from_records(
            answer.shard_id,
            answer.signature,
            revived.to_records(),
            revived.stats,
            revived.counters,
        )
        assert rebuilt.as_dict() == doc

    def test_unknown_plan_version_is_rejected(self, dataset):
        doc = _plan_for(next(iter(dataset))).as_dict()
        doc["shard_plan"] = 99
        with pytest.raises(QueryError, match="version"):
            ShardPlan.from_dict(doc)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"shard_answer": 2},
            {"signature": [1, 2]},
            {"exact_tids": [1, 2], "exact_values": [0.5]},
            {"window_counts": [2], "exact_tids": [1], "exact_values": [0.5],
             "exact_error_bounds": [0.0], "window_data": [0.0] * 8},
        ],
    )
    def test_malformed_answers_are_rejected(self, mutation):
        doc = ShardAnswer(shard_id=0, signature=(1, 2, 3)).as_dict()
        doc.update(mutation)
        with pytest.raises(QueryError):
            ShardAnswer.from_dict(doc)

    @pytest.mark.parametrize(
        "field",
        ["spec", "shard_id", "shard_path", "signature", "vmax",
         "buffer_pages", "deadline"],
    )
    def test_plan_decoder_mutation_table(self, field, dataset):
        """Every hostile value of every plan field is a QueryError or
        decodes to itself — never a bare TypeError or ValueError, and
        never a value the worker would misread."""
        doc = _plan_for(next(iter(dataset))).as_dict()
        for value in HOSTILE:
            bad = {**doc, field: value}
            try:
                plan = ShardPlan.from_dict(bad)
            except QueryError:
                continue
            assert plan.as_dict() == bad, (field, value)
        del doc[field]
        if field != "deadline":
            with pytest.raises(QueryError):
                ShardPlan.from_dict(doc)

    @pytest.mark.parametrize(
        "field",
        ["shard_id", "signature", "exact_tids", "exact_values",
         "exact_error_bounds", "window_counts", "window_data",
         "partial_tids", "partial_values", "stats", "counters"],
    )
    def test_answer_decoder_mutation_table(self, field):
        doc = ShardAnswer(
            shard_id=1,
            signature=(5, 40, 1),
            exact_tids=[3],
            exact_values=[2.5],
            exact_error_bounds=[0.0],
            window_counts=[1],
            window_data=[0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            partial_tids=[9],
            partial_values=[4.0],
            stats={"node_accesses": 3},
            counters={"index.mindist_evaluations": 7},
        ).as_dict()
        for value in HOSTILE:
            bad = {**doc, field: value}
            try:
                answer = ShardAnswer.from_dict(bad)
            except QueryError:
                continue
            assert answer.as_dict() == bad, (field, value)

    def test_worker_pool_takes_the_session_budget(
        self, dataset, workload, tmp_path, monkeypatch
    ):
        """A pool worker sizes its shard's buffer pool to the capacity
        the parent's global budget gave that shard."""
        from repro.engine.executor import _WORKER_INDEXES

        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "hash", directory)
        engine = ShardedQueryEngine.open(
            directory, config=EngineConfig(executor="process")
        )
        # The function a pool worker imports, run in this process.
        monkeypatch.setattr(
            engine.executor, "run_plans",
            lambda plans: [_execute_shard_plan(plan) for plan in plans],
        )
        query, period = workload[0]
        try:
            result = engine.execute(QuerySpec("mst", query, period, k=3))
            searched = [
                row["shard"] for row in result.stats.extra["per_shard"]
                if not row["pruned"]
            ]
            assert searched
            for shard in searched:
                path = str(directory / f"shard_{shard:04d}.pages")
                index, _signature = _WORKER_INDEXES.pop(path)
                assert index.buffer.capacity == engine.buffer_capacities[shard]
                index.pagefile.close()
        finally:
            engine.close()
            engine.index.close()

    def test_stale_answer_signature_is_rejected_at_merge(
        self, dataset, workload, tmp_path
    ):
        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "hash", directory)
        engine = ShardedQueryEngine.open(
            directory, config=EngineConfig(executor="serial")
        )
        try:
            stale = ShardAnswer(shard_id=0, signature=(0, 0, 0))
            with pytest.raises(QueryError, match="signature"):
                engine._validate_answer(stale)
            good = ShardAnswer(
                shard_id=0, signature=engine.signature()[0]
            )
            engine._validate_answer(good)  # current generation passes
        finally:
            engine.close()

    def test_worker_rejects_plan_against_rebuilt_store(
        self, dataset, tmp_path
    ):
        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "hash", directory)
        query = next(iter(dataset))
        plan = _plan_for(
            query,
            shard_path=str(directory / "shard_0000.pages"),
            signature=(1, 1, 1),  # no real generation looks like this
            deadline=None,
        )
        # _execute_shard_plan is the exact function pool workers import;
        # running it in-process exercises the same open-and-verify path.
        with pytest.raises(QueryError, match="signature"):
            _execute_shard_plan(plan)


# ----------------------------------------------------------------------
# deadline propagation
# ----------------------------------------------------------------------
class TestDeadlinePropagation:
    def test_expired_deadline_is_checked_before_the_store_opens(self, dataset):
        plan = _plan_for(
            next(iter(dataset)),
            shard_path="/nonexistent/shard.pages",
            deadline=time.monotonic() - 1.0,
        )
        # DeadlineExceeded, not a file error: the deadline gate comes
        # first, so an overloaded pool sheds work without touching I/O.
        with pytest.raises(DeadlineExceeded):
            _execute_shard_plan(plan)

    def test_served_process_engine_returns_504(
        self, dataset, workload, tmp_path
    ):
        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "hash", directory)
        engine = ShardedQueryEngine.open(
            directory,
            config=EngineConfig(executor="process", max_workers=2),
        )
        config = ServeConfig(port=0, workers=2)
        try:
            with BackgroundServer(engine, config) as bg:
                query, period = workload[0]
                spec = QuerySpec(
                    "mst", query, period, k=2, deadline_ms=0.001
                )
                with ServeClient(*bg.address) as client:
                    with pytest.raises(ServeRejected) as info:
                        client.query(spec)
                    assert info.value.status == 504
                    assert info.value.reason == "deadline_exceeded"
        finally:
            engine.close()


# ----------------------------------------------------------------------
# worker obs isolation
# ----------------------------------------------------------------------
class TestWorkerObsIsolation:
    def test_fresh_registry_ships_per_call_deltas(self, dataset, tmp_path):
        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "hash", directory)
        query = next(iter(dataset))
        engine = ShardedQueryEngine.open(directory)
        signature = engine.signature()[0]
        engine.close()
        plan = _plan_for(
            query,
            shard_id=0,
            shard_path=str(directory / "shard_0000.pages"),
            signature=signature,
            deadline=None,
        )
        _execute_shard_plan(plan)  # cold call warms the buffer pool
        first = _execute_shard_plan(plan)
        second = _execute_shard_plan(plan)
        assert first.counters  # the traversal counted something
        # identical query on a warm store, identical deltas — nothing
        # accumulated between calls (each call starts from a fresh
        # registry; only the page buffer is carried over)
        assert second.counters == first.counters
        assert second.stats == first.stats

    def test_parent_shard_totals_match_serial_executor(self, tmp_path):
        dataset, workloads = staggered_fleet()
        directory = tmp_path / "shards"
        _save_sharded(dataset, RTree3D, "temporal", directory, num_shards=3)
        requests = [
            QuerySpec("mst", q, p, k=3) for q, p in workloads
        ]
        serial = ShardedQueryEngine.open(
            directory, config=EngineConfig(executor="serial")
        )
        proc = ShardedQueryEngine.open(
            directory,
            config=EngineConfig(executor="process", max_workers=2),
        )
        try:
            want_batch = serial.run_batch(requests)
            got_batch = proc.run_batch(requests)
            for want, got in zip(want_batch.results, got_batch.results):
                assert got.answer_json() == want.answer_json()
                # single-shard plans ⇒ identical bounds ⇒ identical
                # per-shard work breakdown, not just identical answers
                assert got.stats.extra["shards_searched"] == 1
                assert (
                    got.stats.extra["per_shard"]
                    == want.stats.extra["per_shard"]
                )
            shard_keys = [
                name
                for name in serial.metrics.counters
                if name.startswith("engine.shard.")
            ]
            assert shard_keys
            for name in shard_keys:
                assert proc.metrics.value(name) == serial.metrics.value(name)
        finally:
            proc.close()
            serial.close()
