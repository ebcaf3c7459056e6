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
"""

import inspect
import random

import pytest

from repro import TREES, load_index, save_index
from repro.datagen import generate_gstd, make_query
from repro.obs import query_trace
from repro.obs import registry as obs_registry
from repro.obs import state as obs_state
from repro.search.bfmst import bfmst_search
from repro.search.linear_scan import linear_scan_kmst

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
    ('rtree', 0.02, 1): (18, 6, 4, 0, 8, 0, 18, 7, 33, 13, 9, 33),
    ('rtree', 0.05, 1): (20, 9, 5, 1, 22, 0, 20, 6, 45, 41, 32, 45),
    ('rtree', 0.1, 1): (34, 46, 20, 7, 83, 0, 34, 15, 72, 77, 48, 72),
    ('rtree', 0.02, 5): (22, 21, 12, 1, 32, 15, 22, 4, 35, 37, 24, 35),
    ('rtree', 0.05, 5): (41, 53, 20, 7, 86, 20, 41, 15, 63, 80, 49, 63),
    ('rtree', 0.1, 5): (68, 138, 38, 21, 252, 36, 68, 16, 108, 108, 51, 108),
    ('rtree', 0.02, 10): (33, 43, 27, 3, 67, 28, 33, 14, 52, 82, 50, 52),
    ('rtree', 0.05, 10): (56, 66, 25, 5, 112, 50, 56, 47, 79, 109, 72, 79),
    ('rtree', 0.1, 10): (87, 146, 35, 13, 238, 86, 87, 39, 111, 129, 72, 111),
    ('tbtree', 0.02, 1): (34, 8, 5, 1, 13, 0, 34, 98, 41, 14, 0, 41),
    ('tbtree', 0.05, 1): (33, 20, 7, 1, 33, 0, 33, 105, 33, 17, 0, 33),
    ('tbtree', 0.1, 1): (67, 105, 26, 11, 202, 0, 67, 151, 97, 93, 0, 97),
    ('tbtree', 0.02, 5): (42, 32, 17, 2, 50, 15, 42, 65, 59, 45, 0, 59),
    ('tbtree', 0.05, 5): (48, 70, 24, 2, 118, 20, 48, 72, 51, 56, 0, 51),
    ('tbtree', 0.1, 5): (57, 114, 25, 8, 221, 36, 57, 94, 58, 62, 0, 58),
    ('tbtree', 0.02, 10): (65, 61, 39, 4, 103, 28, 65, 81, 69, 84, 0, 69),
    ('tbtree', 0.05, 10): (70, 109, 38, 1, 184, 50, 70, 80, 76, 86, 0, 76),
    ('tbtree', 0.1, 10): (66, 158, 34, 5, 263, 86, 66, 86, 71, 75, 0, 71),
}


@pytest.fixture(scope="module")
def dataset():
    return generate_gstd(120, samples_per_object=40, seed=23)


@pytest.fixture(scope="module", params=sorted(TREES))
def loaded(request, dataset, tmp_path_factory):
    built = packed(TREES[request.param], dataset, page_size=512)
    built.finalize()
    path = tmp_path_factory.mktemp(request.param) / "index.pages"
    save_index(built, path, signatures=True)
    index = load_index(path)
    yield request.param, index
    index.pagefile.close()


def _run(index, dataset, length, k):
    rng = random.Random(int(length * 100) * 100 + k)
    query, period = make_query(dataset, length, rng)
    with query_trace(index) as trace:
        matches, stats = bfmst_search(index, query, period, k=k)
    want = linear_scan_kmst(dataset, query, period, k=k, exact=True)
    counts = {**vars(stats), **trace.counters}
    return matches, want, stats, counts


@pytest.mark.parametrize("length,k", CELLS)
def test_work_counts_pinned(loaded, dataset, length, k):
    tree, index = loaded
    matches, want, stats, counts = _run(index, dataset, length, k)
    assert [m.trajectory_id for m in matches] == [
        m.trajectory_id for m in want
    ]
    assert stats.signature_checks > 0
    assert tuple(counts[name] for name in EXACT) == PINNED[tree, length, k]


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
        rng = random.Random(int(length * 100) * 100 + k)
        query, period = make_query(dataset, length, rng)
        bfmst_search(index, query, period, k=k)
    assert calls == []
    with query_trace(index):  # the guard sees a traced search's calls
        bfmst_search(index, query, period, k=k)
    assert "MetricsRegistry.inc" in calls
