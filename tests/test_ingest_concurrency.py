"""Generation pinning under concurrency.

Queries on a :class:`~repro.engine.LiveQueryEngine`, from reader
threads of their own, race a writer thread that appends and compacts
as fast as it can.  A
query must keep the generation it pinned — its answers can never be
torn between two generations — and every pin must be matched by an
unpin (checked via the ``ingest.generation_*`` counters), with retired
generations' files actually leaving the disk.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import IngestStore
from repro.datagen import generate_gstd, make_query
from repro.engine import LiveQueryEngine
from repro.search import QuerySpec
from repro.search.api import bfmst_search
from repro.trajectory import Trajectory

#: an object id and time range far outside the base dataset, so writer
#: traffic never changes the answers to period-constrained queries
NOISE_ID = 99_999
NOISE_T0 = 1e9


def _feed(store, dataset):
    for oid, x, y, t in sorted(
        ((tr.object_id, p.x, p.y, p.t) for tr in dataset for p in tr),
        key=lambda e: (e[3], e[0]),
    ):
        store.append(oid, x, y, t)


def _oracle(dataset, query, period, k):
    from repro.index import TBTree

    index = TBTree(page_size=4096)
    for tr in dataset:
        index.insert(tr)
    index.finalize()
    result = bfmst_search(index, None, query, period=period, k=k)
    return [(m.trajectory_id, m.dissim) for m in result.matches]


@pytest.fixture()
def base_store(tmp_path):
    dataset = generate_gstd(10, samples_per_object=16, seed=67)
    store = IngestStore.create(tmp_path / "s", sync_every=8)
    _feed(store, dataset)
    store.compact()
    rng = random.Random(3)
    query, period = make_query(dataset, 0.4, rng)
    want = _oracle(store.current_dataset(), query, period, 4)
    assert want  # the scenario must actually have answers
    yield store, query, period, want
    if not store._closed:
        store.close()


def test_threaded_queries_race_compactions(base_store):
    store, query, period, want = base_store
    stop = threading.Event()
    writer_error = []

    def writer():
        t = NOISE_T0
        try:
            while not stop.is_set():
                store.append(NOISE_ID, 0.0, 0.0, t)
                t += 1.0
                store.compact()
        except Exception as exc:  # surfaced after the join
            writer_error.append(exc)

    requests = [QuerySpec("mst", query, period, k=4)] * 32
    results = []
    reader_error = []

    def reader(engine, share):
        try:
            for request in share:
                results.append(engine.execute(request))
        except Exception as exc:  # surfaced after the join
            reader_error.append(exc)

    thread = threading.Thread(target=writer, name="ingest-writer")
    thread.start()
    try:
        with LiveQueryEngine(store) as engine:
            readers = [
                threading.Thread(
                    target=reader, args=(engine, requests[i::4]),
                    name=f"reader-{i}",
                )
                for i in range(4)
            ]
            for r in readers:
                r.start()
            for r in readers:
                r.join(timeout=60)
            assert not any(r.is_alive() for r in readers)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert not writer_error, writer_error
    assert not reader_error, reader_error

    # every racing query saw a consistent pinned snapshot: the noise
    # object lives outside the period, so all answers are the baseline
    assert len(results) == len(requests)
    for result in results:
        got = [(m.trajectory_id, m.dissim) for m in result.matches]
        assert got == want

    # no pin leaks: every view released its generation
    pins = store.metrics.value("ingest.generation_pins")
    unpins = store.metrics.value("ingest.generation_unpins")
    assert pins == unpins
    assert pins >= len(requests)

    # retired generations are gone from disk — only the live one stays
    compactions = store.metrics.value("ingest.compactions")
    retired = store.metrics.value("ingest.generations_retired")
    assert compactions >= 2
    assert retired == compactions - 1
    live = store.generation_number
    pages = sorted(store.directory.glob("gen-*.pages"))
    assert [p.name for p in pages] == [f"gen-{live:06d}.pages"]


def test_pinned_view_survives_a_compaction_storm(base_store):
    """A long-lived view keeps answering from its pinned generation
    while dozens of compactions retire and delete newer state."""
    store, query, period, want = base_store
    view = store.view()
    pinned = view.generation_number
    t = NOISE_T0
    for _ in range(10):
        store.append(NOISE_ID, 0.0, 0.0, t)
        t += 1.0
        store.compact()
    assert store.generation_number == pinned + 10
    # the pinned generation's files are still on disk ...
    assert (store.directory / f"gen-{pinned:06d}.pages").exists()
    got = [(m.trajectory_id, m.dissim) for m in view.kmst(query, period, 4)[0]]
    assert got == want
    view.close()
    # ... and leave it the moment the pin drops
    assert not (store.directory / f"gen-{pinned:06d}.pages").exists()


def test_concurrent_viewers_share_one_generation(base_store):
    """Many threads opening and closing views concurrently never
    unbalance the refcount."""
    store, query, period, want = base_store
    errors = []

    def reader():
        try:
            for _ in range(20):
                matches, _ = store.kmst(query, period, 4)
                got = [(m.trajectory_id, m.dissim) for m in matches]
                assert got == want
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    pins = store.metrics.value("ingest.generation_pins")
    assert pins == 6 * 20
    assert pins == store.metrics.value("ingest.generation_unpins")
