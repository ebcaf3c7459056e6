"""Randomized-interleaving property test for the live ingestion path.

A seeded RNG drives arbitrary interleavings of *append batch / query /
compact / reopen* against one store (both tree kinds) and against a multi-store fleet split by every partitioner.
After every query op the live answer — generation + memtable merged
under one shared bound — must be **byte-identical** (same ids, same
float dissims) to a from-scratch rebuild of the points acknowledged so
far.  The oracle is built from the appended events, never from the
store's own history, so a point the store loses at reopen shows.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro import TREES, IngestStore
from repro.datagen import generate_gstd, make_query
from repro.engine import LiveQueryEngine
from repro.search import QuerySpec
from repro.search.api import bfmst_search
from repro.sharding import make_partitioner
from repro.trajectory import Trajectory, TrajectoryDataset

K_CHOICES = (1, 5, 10)


def _events(dataset):
    return sorted(
        ((tr.object_id, p.x, p.y, p.t) for tr in dataset for p in tr),
        key=lambda e: (e[3], e[0]),
    )


def _acknowledged(events):
    """The dataset the acknowledged ``(oid, x, y, t)`` events make:
    every object with at least two points, in id order."""
    history = {}
    for oid, x, y, t in events:
        history.setdefault(oid, []).append((x, y, t))
    return TrajectoryDataset(
        Trajectory(oid, pts)
        for oid, pts in sorted(history.items())
        if len(pts) >= 2
    )


def _oracle(dataset, query, period, k, *, tree):
    """The from-scratch rebuild, made the way the compactor makes a
    generation: the static build (``bulk_insert`` on an empty tree).
    The floats are compared with ``==``, and a DISSIM is summed leaf by
    leaf, so the oracle has to group segments into leaves the way the
    store does — an insert-built oracle differs from a packed
    generation in the last ulp."""
    index = TREES[tree](page_size=4096)
    index.bulk_insert(dataset)
    index.finalize()
    if index.num_entries == 0:
        return []
    result = bfmst_search(index, None, query, period=period, k=k)
    return [(m.trajectory_id, m.dissim) for m in result.matches]


# ----------------------------------------------------------------------
# single store
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tree", ["tbtree", "rtree"])
def test_random_interleavings_single_store(tmp_path, tree):
    dataset = generate_gstd(10, samples_per_object=16, seed=29)
    events = _events(dataset)
    rng = random.Random(zlib.crc32(tree.encode()))
    queries = [make_query(dataset, 0.4, rng) for _ in range(4)]

    store = IngestStore.create(tmp_path / "s", tree=tree, sync_every=4)
    cursor = 0
    checked = 0
    try:
        for _step in range(60):
            op = rng.choice(("append", "append", "append", "query", "compact", "reopen"))
            if op == "append" and cursor < len(events):
                for oid, x, y, t in events[cursor : cursor + rng.randint(1, 12)]:
                    store.append(oid, x, y, t)
                    cursor += 1
            elif op == "query":
                query, period = rng.choice(queries)
                k = rng.choice(K_CHOICES)
                matches, _ = store.kmst(query, period, k)
                got = [(m.trajectory_id, m.dissim) for m in matches]
                want = _oracle(
                    _acknowledged(events[:cursor]), query, period, k,
                    tree=tree,
                )
                assert got == want, f"drift at step {_step} ({op})"
                checked += 1
            elif op == "compact":
                store.compact()
            elif op == "reopen":
                store.close()
                store = IngestStore.open(tmp_path / "s", sync_every=4)

        # drain the stream, then a final exhaustive check
        for oid, x, y, t in events[cursor:]:
            store.append(oid, x, y, t)
        everything = _acknowledged(events)
        for query, period in queries:
            for k in K_CHOICES:
                matches, _ = store.kmst(query, period, k)
                got = [(m.trajectory_id, m.dissim) for m in matches]
                assert got == _oracle(
                    everything, query, period, k,
                    tree=tree,
                )
                checked += 1
        assert checked >= len(queries) * len(K_CHOICES)
    finally:
        store.close()


# ----------------------------------------------------------------------
# multi-store fleet, one store per partition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("partitioner", ["hash", "temporal"])
def test_random_interleavings_partitioned_fleet(tmp_path, partitioner):
    dataset = generate_gstd(12, samples_per_object=14, seed=31)
    num_shards = 3
    part = make_partitioner(partitioner, num_shards)
    part.fit(dataset)
    shard_of = {tr.object_id: part.shard_of(tr) for tr in dataset}

    events = _events(dataset)
    rng = random.Random(zlib.crc32(partitioner.encode()))
    queries = [make_query(dataset, 0.4, rng) for _ in range(3)]

    stores = [
        IngestStore.create(tmp_path / f"shard-{i}", sync_every=4)
        for i in range(num_shards)
    ]
    try:
        cursor = 0
        for _step in range(40):
            op = rng.choice(("append", "append", "query", "compact", "reopen"))
            if op == "append" and cursor < len(events):
                for oid, x, y, t in events[cursor : cursor + rng.randint(1, 10)]:
                    stores[shard_of[oid]].append(oid, x, y, t)
                    cursor += 1
            elif op == "query":
                query, period = rng.choice(queries)
                k = rng.choice(K_CHOICES)
                with LiveQueryEngine(stores) as engine:
                    result = engine.execute(
                        QuerySpec("mst", query, period, k=k)
                    )
                got = [(m.trajectory_id, m.dissim) for m in result.matches]
                want = _oracle(
                    _acknowledged(events[:cursor]), query, period, k,
                    tree="tbtree",
                )
                assert got == want, f"drift at step {_step} ({partitioner})"
            elif op == "compact":
                rng.choice(stores).compact()
            elif op == "reopen":
                i = rng.randrange(num_shards)
                stores[i].close()
                stores[i] = IngestStore.open(
                    tmp_path / f"shard-{i}", sync_every=4
                )

        for oid, x, y, t in events[cursor:]:
            stores[shard_of[oid]].append(oid, x, y, t)
        merged = _acknowledged(events)
        for query, period in queries:
            for k in K_CHOICES:
                with LiveQueryEngine(stores) as engine:
                    result = engine.execute(
                        QuerySpec("mst", query, period, k=k)
                    )
                got = [(m.trajectory_id, m.dissim) for m in result.matches]
                assert got == _oracle(
                    merged, query, period, k, tree="tbtree"
                )
    finally:
        for store in stores:
            store.close()
