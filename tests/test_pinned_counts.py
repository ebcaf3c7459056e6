"""The search's work counts on a fixed input, pinned as literals.

A small GSTD set is packed into both trees, saved with its signature
sidecar and loaded back, and one query per harness cell — query length
{2 %, 5 %, 10 %} x k {1, 5, 10} — runs under a trace.  The counts that
decide what the search reads, scores and integrates (node accesses,
nodes enqueued, MINDIST evaluations, entries, candidates, Heuristic 1
rejections, trapezoid and exact integrals, the buffer's logical reads,
the leaves the signature tier skips, and its checks and prunes) must
equal the recorded ones exactly.  Every answer must still be the
linear scan's.  How a page is held once read (and so how many reads
hit the buffer) is free to change: the logical reads are pinned, the
hits and misses are not.

A change that moves one of these counts changes what the search does,
and must re-record them with its reasons.  The signature checks and
prunes were re-recorded when expanded nodes and pops began refusing a
leaf by its page's least signature bound: such a page decides all its
trajectories with one compare, where the per-trajectory loop counted a
check (and a prune) for each, so both counts fell (to no prunes at all
on the TB-tree, whose leaves hold one trajectory each) while every
other count, and every answer, stayed the same.

Every block was re-recorded when each candidate's speed-dependent
bounds took the candidate's own speed (the sidecar's speed column)
instead of the dataset's fastest, and live candidates were held to
their signature bound: node accesses, entries, candidates created,
trapezoid integrals, logical reads, nodes enqueued, MINDIST
evaluations and signature checks fell or stayed in every cell,
Heuristic 1 rejections and leaf skips rose, and the exact integrals
and every answer stayed the same.

The same set split into four ``hash`` shards, each packed and saved
with its sidecar, and opened by a serial sharded engine, pins the shard
plan's counts the same way (``PINNED_SHARDS``): the engine searches the
shards as one tree, so they repeat exactly.  They were recorded when
that search replaced one traversal per shard.
"""

import inspect
import random

import pytest

from repro import TREES, load_index, save_index
from repro.datagen import generate_gstd, make_query
from repro.engine import ShardedQueryEngine
from repro.obs import query_trace
from repro.obs import registry as obs_registry
from repro.obs import state as obs_state
from repro.search.bfmst import bfmst_search
from repro.search.linear_scan import linear_scan_kmst
from repro.search.spec import QuerySpec
from repro.sharding import (
    ShardedDataset,
    build_sharded_index,
    make_partitioner,
    save_sharded_index,
)

from conftest import packed

CELLS = [(length, k) for k in (1, 5, 10) for length in (0.02, 0.05, 0.10)]

EXACT = (
    "node_accesses",
    "entries_processed",
    "candidates_created",
    "candidates_rejected",
    "trapezoid_evals",
    "exact_integral_evals",
    "storage.logical_reads",
    "leaf_skips",
    "index.nodes_enqueued",
    "signature_checks",
    "signature_pruned",
    "mindist_evaluations",
)

#: ``(tree, length, k)`` -> the EXACT counts.
PINNED = {
    ('rtree', 0.02, 1): (17, 5, 4, 2, 7, 0, 17, 9, 32, 11, 7, 32),
    ('rtree', 0.05, 1): (17, 8, 5, 3, 12, 0, 17, 16, 37, 25, 20, 37),
    ('rtree', 0.1, 1): (28, 27, 13, 12, 51, 0, 28, 39, 51, 56, 34, 51),
    ('rtree', 0.02, 5): (20, 19, 12, 5, 27, 15, 20, 8, 33, 36, 23, 33),
    ('rtree', 0.05, 5): (36, 45, 20, 9, 74, 20, 36, 21, 58, 75, 46, 58),
    ('rtree', 0.1, 5): (60, 98, 35, 25, 168, 36, 60, 41, 91, 107, 54, 91),
    ('rtree', 0.02, 10): (32, 39, 26, 7, 63, 28, 32, 20, 49, 79, 48, 49),
    ('rtree', 0.05, 10): (43, 58, 24, 8, 97, 50, 43, 32, 70, 92, 62, 70),
    ('rtree', 0.1, 10): (75, 120, 32, 16, 197, 86, 75, 57, 95, 124, 70, 95),
    ('tbtree', 0.02, 1): (34, 8, 5, 1, 13, 0, 34, 98, 41, 14, 0, 41),
    ('tbtree', 0.05, 1): (33, 20, 7, 1, 33, 0, 33, 105, 32, 16, 0, 32),
    ('tbtree', 0.1, 1): (60, 76, 20, 8, 146, 0, 60, 163, 93, 77, 0, 93),
    ('tbtree', 0.02, 5): (42, 31, 17, 3, 50, 15, 42, 65, 59, 45, 0, 59),
    ('tbtree', 0.05, 5): (47, 68, 23, 1, 113, 20, 47, 73, 51, 54, 0, 51),
    ('tbtree', 0.1, 5): (54, 101, 22, 6, 194, 36, 54, 97, 56, 54, 0, 56),
    ('tbtree', 0.02, 10): (65, 61, 39, 4, 103, 28, 65, 81, 68, 83, 0, 68),
    ('tbtree', 0.05, 10): (70, 109, 38, 1, 184, 50, 70, 80, 76, 86, 0, 76),
    ('tbtree', 0.1, 10): (66, 157, 34, 5, 263, 86, 66, 86, 71, 75, 0, 71),
}


#: ``(tree, length, k)`` -> the EXACT counts of the 4-shard ``hash``
#: plan, searched by a serial :class:`ShardedQueryEngine`.
PINNED_SHARDS = {
    ('rtree', 0.02, 1): (34, 8, 6, 2, 11, 0, 34, 39, 58, 20, 9, 58),
    ('rtree', 0.05, 1): (47, 11, 8, 6, 16, 0, 47, 48, 76, 41, 13, 76),
    ('rtree', 0.1, 1): (41, 19, 7, 5, 34, 0, 41, 76, 55, 44, 31, 55),
    ('rtree', 0.02, 5): (33, 15, 8, 1, 22, 15, 33, 22, 65, 43, 33, 65),
    ('rtree', 0.05, 5): (56, 37, 15, 6, 62, 20, 56, 43, 83, 68, 46, 83),
    ('rtree', 0.1, 5): (79, 112, 36, 29, 204, 36, 79, 64, 112, 123, 52, 112),
    ('rtree', 0.02, 10): (50, 35, 23, 5, 58, 28, 50, 19, 83, 67, 43, 83),
    ('rtree', 0.05, 10): (70, 69, 29, 10, 122, 50, 70, 41, 88, 114, 57, 88),
    ('rtree', 0.1, 10): (98, 122, 36, 18, 199, 86, 98, 41, 141, 118, 55, 141),
    ('tbtree', 0.02, 1): (50, 11, 7, 1, 18, 0, 50, 108, 54, 20, 0, 54),
    ('tbtree', 0.05, 1): (34, 6, 2, 0, 8, 0, 34, 118, 35, 2, 0, 35),
    ('tbtree', 0.1, 1): (76, 93, 24, 14, 178, 0, 76, 175, 114, 92, 0, 114),
    ('tbtree', 0.02, 5): (60, 29, 17, 5, 50, 15, 60, 103, 81, 53, 0, 81),
    ('tbtree', 0.05, 5): (59, 75, 27, 6, 133, 20, 59, 93, 56, 65, 0, 56),
    ('tbtree', 0.1, 5): (76, 151, 33, 11, 293, 36, 76, 87, 78, 87, 0, 78),
    ('tbtree', 0.02, 10): (72, 65, 40, 2, 106, 28, 72, 80, 74, 87, 0, 74),
    ('tbtree', 0.05, 10): (75, 90, 32, 3, 155, 50, 75, 88, 76, 70, 0, 76),
    ('tbtree', 0.1, 10): (75, 152, 32, 3, 248, 86, 75, 88, 80, 74, 0, 80),
}


#: ``length, k`` -> the EXACT counts of the TB-tree at 4096-byte pages,
#: where every leaf holds one whole trajectory and the search seeds its
#: bound from up to k of them.
PINNED_4096 = {
    (0.02, 1): (4, 2, 1, 0, 2, 0, 4, 120, 2, 1, 0, 2),
    (0.05, 1): (4, 3, 1, 0, 3, 0, 4, 120, 2, 1, 0, 2),
    (0.1, 1): (4, 5, 1, 0, 5, 0, 4, 120, 2, 1, 0, 2),
    (0.02, 5): (11, 14, 8, 2, 23, 15, 11, 117, 6, 15, 0, 6),
    (0.05, 5): (18, 42, 15, 3, 73, 20, 18, 110, 15, 38, 0, 15),
    (0.1, 5): (20, 78, 17, 6, 149, 36, 20, 108, 15, 42, 0, 15),
    (0.02, 10): (26, 37, 23, 3, 62, 28, 26, 107, 20, 54, 0, 20),
    (0.05, 10): (24, 59, 21, 3, 102, 50, 24, 109, 14, 44, 0, 14),
    (0.1, 10): (21, 79, 18, 6, 138, 86, 21, 112, 10, 34, 0, 10),
}


#: ``length, k`` -> the EXACT counts of the 4-shard ``hash`` TB plan at
#: 4096-byte pages, searched by a serial :class:`ShardedQueryEngine`.
PINNED_SHARDS_4096 = {
    (0.02, 1): (5, 2, 1, 0, 2, 0, 5, 120, 0, 1, 0, 0),
    (0.05, 1): (5, 3, 1, 0, 3, 0, 5, 120, 0, 1, 0, 0),
    (0.1, 1): (5, 5, 1, 0, 5, 0, 5, 120, 0, 1, 0, 0),
    (0.02, 5): (12, 14, 8, 2, 23, 15, 12, 117, 4, 15, 0, 4),
    (0.05, 5): (17, 37, 13, 2, 63, 20, 17, 112, 15, 36, 0, 15),
    (0.1, 5): (22, 81, 18, 7, 158, 36, 22, 107, 16, 47, 0, 16),
    (0.02, 10): (27, 37, 23, 2, 61, 28, 27, 107, 21, 57, 0, 21),
    (0.05, 10): (25, 59, 21, 3, 102, 50, 25, 109, 13, 45, 0, 13),
    (0.1, 10): (22, 79, 18, 6, 138, 86, 22, 112, 8, 34, 0, 8),
}


def make_dataset():
    return generate_gstd(120, samples_per_object=40, seed=23)


def open_index(tree, page_size, dataset, directory):
    """The packed tree, saved with its sidecar and loaded back."""
    built = packed(TREES[tree], dataset, page_size=page_size)
    built.finalize()
    path = directory / "index.pages"
    save_index(built, path, signatures=True)
    return load_index(path)


def open_shard_engine(tree, page_size, dataset, directory):
    """The 4-shard ``hash`` plan, saved with sidecars, opened by a
    serial sharded engine."""
    sharded = build_sharded_index(
        ShardedDataset.partition(dataset, make_partitioner("hash", 4)),
        TREES[tree],
        page_size=page_size,
    )
    save_sharded_index(sharded, directory / "shards", signatures=True)
    sharded.close()
    return ShardedQueryEngine.open(directory / "shards")


def close_shard_engine(engine):
    engine.close()
    engine.index.close()


def _query(dataset, length, k):
    rng = random.Random(int(length * 100) * 100 + k)
    return make_query(dataset, length, rng)


def _run(index, dataset, length, k):
    query, period = _query(dataset, length, k)
    with query_trace(index) as trace:
        matches, stats = bfmst_search(index, query, period, k=k)
    want = linear_scan_kmst(dataset, query, period, k=k, exact=True)
    counts = {**vars(stats), **trace.counters}
    return matches, want, stats, counts


def _run_shards(engine, dataset, length, k):
    query, period = _query(dataset, length, k)
    with query_trace() as trace:
        result = engine.execute(QuerySpec("mst", query, period, k))
    want = linear_scan_kmst(dataset, query, period, k=k, exact=True)
    counts = {**vars(result.stats), **trace.counters}
    return result, want, counts


def exact_counts(counts) -> tuple:
    # A trace counter nothing incremented is absent: a search whose
    # seeded bound refuses every leaf child enqueues no node.
    return tuple(counts.get(name, 0) for name in EXACT)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset()


@pytest.fixture(scope="module", params=sorted(TREES))
def loaded(request, dataset, tmp_path_factory):
    index = open_index(
        request.param, 512, dataset, tmp_path_factory.mktemp(request.param)
    )
    yield request.param, index
    index.pagefile.close()


@pytest.fixture(scope="module")
def loaded_4096(dataset, tmp_path_factory):
    index = open_index("tbtree", 4096, dataset, tmp_path_factory.mktemp("tb4k"))
    yield index
    index.pagefile.close()


@pytest.fixture(scope="module", params=sorted(TREES))
def shard_engine(request, dataset, tmp_path_factory):
    engine = open_shard_engine(
        request.param, 512, dataset, tmp_path_factory.mktemp(request.param)
    )
    yield request.param, engine
    close_shard_engine(engine)


@pytest.fixture(scope="module")
def shard_engine_4096(dataset, tmp_path_factory):
    engine = open_shard_engine(
        "tbtree", 4096, dataset, tmp_path_factory.mktemp("tb4k-shards")
    )
    yield engine
    close_shard_engine(engine)


def same_ids(got, want):
    assert [m.trajectory_id for m in got] == [m.trajectory_id for m in want]


@pytest.mark.parametrize("length,k", CELLS)
def test_work_counts_pinned(loaded, dataset, length, k):
    tree, index = loaded
    matches, want, stats, counts = _run(index, dataset, length, k)
    same_ids(matches, want)
    assert stats.signature_checks > 0
    assert exact_counts(counts) == PINNED[tree, length, k]


@pytest.mark.parametrize("length,k", CELLS)
def test_work_counts_pinned_4096(loaded_4096, dataset, length, k):
    matches, want, stats, counts = _run(loaded_4096, dataset, length, k)
    same_ids(matches, want)
    assert counts["search.bfmst.seeded_leaves"] == k
    assert exact_counts(counts) == PINNED_4096[length, k]


@pytest.mark.parametrize("length,k", CELLS)
def test_shard_plan_counts_pinned(shard_engine, dataset, length, k):
    tree, engine = shard_engine
    result, want, counts = _run_shards(engine, dataset, length, k)
    same_ids(result.matches, want)
    assert result.stats.extra["shards_searched"] == 4
    assert exact_counts(counts) == PINNED_SHARDS[tree, length, k]


@pytest.mark.parametrize("length,k", CELLS)
def test_shard_plan_counts_pinned_4096(shard_engine_4096, dataset, length, k):
    result, want, counts = _run_shards(shard_engine_4096, dataset, length, k)
    same_ids(result.matches, want)
    assert counts["search.bfmst.seeded_leaves"] == k
    assert exact_counts(counts) == PINNED_SHARDS_4096[length, k]


def test_untraced_search_never_calls_the_metrics_registry(
    loaded, dataset, monkeypatch
):
    """Zero cost when untraced: with no trace active, the nine cells
    call no method of a registry or of its instruments — not even one
    that would do nothing."""
    _tree, index = loaded
    calls: list[str] = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for cls in vars(obs_registry).values():
        if inspect.isclass(cls) and cls.__module__ == obs_registry.__name__:
            for name, fn in list(vars(cls).items()):
                if inspect.isfunction(fn):
                    monkeypatch.setattr(
                        cls, name, counting(f"{cls.__name__}.{name}", fn)
                    )
    assert obs_state.ACTIVE is None
    for length, k in CELLS:
        query, period = _query(dataset, length, k)
        bfmst_search(index, query, period, k=k)
    assert calls == []
    with query_trace(index):  # the guard sees a traced search's calls
        bfmst_search(index, query, period, k=k)
    assert "MetricsRegistry.inc" in calls


def print_literals() -> None:
    """Print every pinned block as a literal, measured on this checkout,
    for pasting over the blocks above when a change moves a count."""
    import tempfile
    from pathlib import Path

    dataset = make_dataset()
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, trees, page_size, keyed in (
            ("PINNED", sorted(TREES), 512, True),
            ("PINNED_SHARDS", sorted(TREES), 512, True),
            ("PINNED_4096", ["tbtree"], 4096, False),
            ("PINNED_SHARDS_4096", ["tbtree"], 4096, False),
        ):
            rows = []
            for tree in trees:
                directory = tmp / f"{name}-{tree}"
                directory.mkdir()
                if "SHARDS" in name:
                    engine = open_shard_engine(tree, page_size, dataset, directory)
                    for length, k in CELLS:
                        counts = _run_shards(engine, dataset, length, k)[2]
                        rows.append(((tree, length, k), exact_counts(counts)))
                    close_shard_engine(engine)
                else:
                    index = open_index(tree, page_size, dataset, directory)
                    for length, k in CELLS:
                        counts = _run(index, dataset, length, k)[3]
                        rows.append(((tree, length, k), exact_counts(counts)))
                    index.pagefile.close()
            lines = [f"{name} = {{"]
            for (tree, length, k), counts in rows:
                key = (tree, length, k) if keyed else (length, k)
                lines.append(f"    {key!r}: {counts!r},")
            blocks.append("\n".join([*lines, "}"]))
    print("\n\n".join(blocks))


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_pinned_counts.py
    print_literals()
