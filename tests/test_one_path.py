"""One k-MST search path behind every entry point.

The bare index and the three engines, of every executor kind, all run
:func:`repro.search.bfmst.bfmst_search` over parts, so an option or a
deadline means the same wherever a spec is executed.  These tests pin
that down across the entry points at once; the per-feature identity
matrices live in their own files.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from contextlib import contextmanager

import pytest

from repro import IngestStore
from repro.datagen import generate_gstd, make_workload
from repro.engine import (
    BatchResult,
    EngineConfig,
    LiveQueryEngine,
    QueryEngine,
    ShardedQueryEngine,
)
from repro.exceptions import DeadlineExceeded, QueryError
from repro.index import TBTree
from repro.obs import query_trace
from repro.search import QuerySpec, bfmst as bfmst_module, bfmst_search
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.sharding import (
    ShardedDataset,
    build_sharded_index,
    make_partitioner,
    save_sharded_index,
)

EXECUTORS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def dataset():
    return generate_gstd(24, samples_per_object=20, seed=13)


@pytest.fixture(scope="module")
def query_and_period(dataset):
    (pair,) = make_workload(dataset, 1, 0.3, seed=5)
    return pair


@pytest.fixture(scope="module")
def single_index(dataset):
    """The from-scratch rebuild every other path must agree with."""
    index = TBTree(page_size=512)
    for tr in dataset:
        index.insert(tr)
    index.finalize()
    return index


@pytest.fixture(scope="module")
def shards_dir(dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("one_path") / "shards"
    sharded = build_sharded_index(
        ShardedDataset.partition(dataset, make_partitioner("hash", 4)),
        TBTree,
        page_size=512,
    )
    save_sharded_index(sharded, directory)
    sharded.close()
    return directory


def sharded_engine(shards_dir, executor):
    return ShardedQueryEngine.open(
        shards_dir,
        config=EngineConfig(executor=executor, max_workers=2),
    )


def feed_objects(store, trajectories):
    for tr in trajectories:
        for p in tr:
            store.append(tr.object_id, p.x, p.y, p.t)


def live_store(directory, dataset, layout):
    """A store holding ``dataset``: all in the memtable, all in one
    compacted generation, or half and half (the layout in which the
    generation part and the memtable part are both searched)."""
    store = IngestStore.create(directory, sync_every=64, page_size=512)
    trajectories = list(dataset)
    if layout == "uncompacted":
        feed_objects(store, trajectories)
    elif layout == "compacted":
        feed_objects(store, trajectories)
        store.compact()
    else:
        half = len(trajectories) // 2
        feed_objects(store, trajectories[:half])
        store.compact()
        feed_objects(store, trajectories[half:])
    return store


# ----------------------------------------------------------------------
# one spec, every engine
# ----------------------------------------------------------------------
class TestOptionsMeanTheSameEverywhere:
    def test_exclude_ids_on_every_engine(
        self, dataset, query_and_period, single_index, shards_dir, tmp_path
    ):
        query, period = query_and_period
        with QueryEngine(single_index) as engine:
            best = engine.execute(QuerySpec("mst", query, period, k=3)).ids[0]
            spec = QuerySpec(
                "mst", query, period, k=3, options={"exclude_ids": [best]}
            )
            want = engine.execute(spec)
        assert best not in want.ids and len(want.ids) == 3

        for executor in EXECUTORS:
            with sharded_engine(shards_dir, executor) as engine:
                got = engine.execute(spec)
                engine.index.close()
            assert got.answer_json() == want.answer_json(), executor
        for layout in ("uncompacted", "compacted", "mixed"):
            with live_store(tmp_path / layout, dataset, layout) as store:
                with LiveQueryEngine(store) as engine:
                    got = engine.execute(spec)
            assert got.answer_json() == want.answer_json(), layout
            # the echoed spec is normalised in one place for all engines
            assert got.spec.options == want.spec.options

    def test_unknown_option_is_a_type_error_on_every_engine(
        self, dataset, query_and_period, single_index, shards_dir, tmp_path
    ):
        query, period = query_and_period
        spec = QuerySpec("mst", query, period, options={"selected": [0]})
        with QueryEngine(single_index) as engine:
            with pytest.raises(TypeError, match="selected"):
                engine.execute(spec)
        for executor in EXECUTORS:
            with sharded_engine(shards_dir, executor) as engine:
                with pytest.raises(TypeError, match="selected"):
                    engine.execute(spec)
                engine.index.close()
        with live_store(tmp_path / "s", dataset, "uncompacted") as store:
            with LiveQueryEngine(store) as engine:
                with pytest.raises(TypeError, match="selected"):
                    engine.execute(spec)

    def test_process_engine_through_the_unified_api(
        self, query_and_period, shards_dir
    ):
        query, period = query_and_period
        with sharded_engine(shards_dir, "process") as engine:
            via_api = bfmst_search(engine, None, query, period=period, k=3)
            spec = QuerySpec("mst", query, period, k=3)
            assert via_api.answer_json() == engine.execute(spec).answer_json()
            engine.index.close()


# ----------------------------------------------------------------------
# deadlines stop a query mid-flight on every path
# ----------------------------------------------------------------------
@pytest.fixture()
def clock(monkeypatch):
    """Patch the clock the traversal reads: real time for the first
    ``after`` dequeues, then past ``deadline``.  Engines read their own
    clock for the check before a query starts, so that check passes and
    the abort comes from inside the traversal."""

    class Clock:
        deadline = time.monotonic() + 3600.0
        after = 1

        def __init__(self):
            self.reads = itertools.count()  # next() is atomic under the GIL

        def __call__(self):
            if next(self.reads) < self.after:
                return time.monotonic()
            return self.deadline + 1.0

    fake = Clock()
    monkeypatch.setattr(bfmst_module, "monotonic", fake)
    return fake


class TestDeadlinesStopTheTraversal:
    def test_bare_search(self, clock, single_index, query_and_period):
        query, period = query_and_period
        with pytest.raises(DeadlineExceeded, match="exceeded"):
            bfmst_search(
                single_index, None, query, period=period, k=3,
                deadline=clock.deadline,
            )
        # aborted at the dequeue after the last one the budget covered
        assert next(clock.reads) == clock.after + 1

    def test_query_engine(self, clock, dataset, single_index, query_and_period):
        query, period = query_and_period
        spec = QuerySpec("mst", query, period, k=3)
        with QueryEngine(single_index) as engine:
            for aborted in (1, 2):
                with pytest.raises(DeadlineExceeded, match="exceeded"):
                    engine.execute(spec, deadline=clock.deadline)
                assert engine.metrics.value("engine.deadline_misses") == aborted

    @pytest.mark.parametrize("executor", ("serial", "thread"))
    def test_sharded_engine(self, executor, clock, query_and_period, shards_dir):
        query, period = query_and_period
        spec = QuerySpec("mst", query, period, k=3)
        with sharded_engine(shards_dir, executor) as engine:
            with pytest.raises(DeadlineExceeded, match="exceeded"):
                engine.execute(spec, deadline=clock.deadline)
            assert engine.metrics.value("engine.deadline_misses") == 1
            engine.index.close()

    def test_live_engine_releases_its_pins(
        self, clock, dataset, query_and_period, tmp_path
    ):
        query, period = query_and_period
        spec = QuerySpec("mst", query, period, k=3)
        with live_store(tmp_path / "s", dataset, "mixed") as store:
            with LiveQueryEngine(store) as engine:
                with pytest.raises(DeadlineExceeded, match="exceeded"):
                    engine.execute(spec, deadline=clock.deadline)
                assert engine.counters()["engine.deadline_misses"] == 1
            pins = store.metrics.value("ingest.generation_pins")
            assert pins == 1
            assert store.metrics.value("ingest.generation_unpins") == pins


# ----------------------------------------------------------------------
# one session body behind the three engine classes
# ----------------------------------------------------------------------
ENGINES = ("single", "sharded", "live")


@contextmanager
def engine_of(which, executor, dataset, single_index, shards_dir, directory):
    """The same data behind the engine class ``which``, of the given
    executor kind (a live store is made in ``directory``)."""
    config = EngineConfig(executor=executor, max_workers=2)
    if which == "single":
        with QueryEngine(single_index, config=config) as engine:
            yield engine
    elif which == "sharded":
        with sharded_engine(shards_dir, executor) as engine:
            yield engine
            engine.index.close()
    else:
        with live_store(directory, dataset, "mixed") as store:
            with LiveQueryEngine(store, config) as engine:
                yield engine


@pytest.fixture(params=ENGINES)
def any_engine(request, dataset, single_index, shards_dir, tmp_path):
    """The same data behind each engine class, serial executor."""
    with engine_of(
        request.param, "serial", dataset, single_index, shards_dir,
        tmp_path / "s",
    ) as engine:
        yield engine


def test_one_behaviour_three_engines(any_engine, query_and_period):
    """What the shared session body guarantees, on every engine class:
    requests counted in one registry, an expired deadline refused
    before any part is obtained, batch telemetry, the same ``/stats``
    shape, nothing after ``close()``."""
    engine, (query, period) = any_engine, query_and_period
    spec = QuerySpec("mst", query, period, k=3)
    for served in (1, 2):
        engine.execute(spec)
        assert engine.metrics.value("engine.queries") == served
        assert engine.metrics.value("engine.queries.mst") == served

    stores = getattr(engine, "stores", ())
    pins = [s.metrics.value("ingest.generation_pins") for s in stores]
    plans = engine.metrics.value("engine.planner.plans")
    with pytest.raises(DeadlineExceeded, match="before the mst query"):
        engine.execute(spec, deadline=time.monotonic() - 1.0)
    assert engine.metrics.value("engine.deadline_misses") == 1
    assert engine.metrics.value("engine.planner.plans") == plans
    assert pins == [s.metrics.value("ingest.generation_pins") for s in stores]

    batch = engine.run_batch([spec] * 2)
    assert isinstance(batch, BatchResult) and len(batch) == 2
    assert batch.executor == engine.config.executor == "serial"
    assert set(batch.cache_counters) == {
        "engine.buffer.hits", "engine.buffer.misses", "engine.buffer.pinned"
    }
    assert batch.metrics["engine.queries"] == 4  # the refused one is not one
    assert batch.metrics["engine.batches"] == 1

    with BackgroundServer(engine, ServeConfig(port=0, workers=1)) as bg:
        with ServeClient(*bg.address) as client:
            doc = client.stats()["engine"]
    assert doc["type"] == type(engine).__name__
    assert set(doc["metrics"]) == {"counters", "gauges", "timers", "histograms"}
    assert doc["metrics"]["counters"]["engine.queries.mst"] == 4

    engine.close()
    for call in (engine.execute, lambda s: engine.run_batch([s])):
        with pytest.raises(QueryError, match="closed"):
            call(spec)


def _work(engine, specs) -> list[tuple]:
    """Every spec once: its answer and the work it did."""
    rows = []
    for spec in specs:
        with query_trace():
            result = engine.execute(spec)
        s = result.stats
        rows.append(
            (
                result.answer_json(),
                s.node_accesses,
                s.leaf_accesses,
                s.entries_processed,
                s.candidates_created,
                s.candidates_rejected,
                s.signature_checks,
                s.trapezoid_evals,
                s.extra.get("per_shard"),
            )
        )
    return rows


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("which", ENGINES)
def test_every_kind_runs_the_serial_session(
    which, executor, dataset, single_index, shards_dir, tmp_path
):
    """Every executor kind, on every engine class, answers as the
    serial kind does with the same work, and starts no thread and no
    process; an unknown kind is refused when the engine is built."""
    workload = make_workload(dataset, 4, 0.3, seed=21)
    specs = [
        QuerySpec("mst", query, period, k=k)
        for (query, period), k in zip(workload, (1, 3, 5, 10))
    ]
    with engine_of(
        which, "serial", dataset, single_index, shards_dir, tmp_path / "a"
    ) as engine:
        want = _work(engine, specs)

    threads = threading.active_count()

    def started_nothing():
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    with engine_of(
        which, executor, dataset, single_index, shards_dir, tmp_path / "b"
    ) as engine:
        assert _work(engine, specs) == want
        started_nothing()
        batch = engine.run_batch(specs)
        assert batch.executor == executor
        assert [r.answer_json() for r in batch] == [row[0] for row in want]
        started_nothing()
    started_nothing()

    with pytest.raises(ValueError, match="unknown executor kind 'fork'"):
        with engine_of(
            which, "fork", dataset, single_index, shards_dir, tmp_path / "c"
        ):
            pass  # pragma: no cover - the kind is refused first
