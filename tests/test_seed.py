"""The seed: whole-trajectory leaf pages read before the traversal.

Before its first expansion, BFMST reads up to ``k`` leaf pages that
each hold one whole trajectory, least signature bound first
(:meth:`repro.filter.runtime.SignatureFilter.seed_pages`), so the
k-th-best bound is finite from the first node on.  A TB-tree at
4096-byte pages holds one trajectory per leaf; at 512-byte pages no
leaf holds a whole one, and an R-tree leaf mixes trajectories, so
those seed nothing.

The property test draws the configuration the seed can meet — both
trees at both page sizes, k past the number of eligible pages,
exclusions covering the would-be seeds, query lengths up to the whole
lifetime, a 4-shard ``hash`` TB index and a live view whose memtable
holds a time slice of some objects — and holds every answer to the
exact linear scan.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RTree3D, TBTree, TrajectoryDataset, load_index, save_index
from repro.datagen import generate_gstd, make_query
from repro.filter import SignatureFilter, build_signatures
from repro.ingest import IngestStore
from repro.obs import query_trace
from repro.search.bfmst import bfmst_search, make_signature_filters
from repro.search.linear_scan import linear_scan_kmst
from repro.sharding import (
    ShardedDataset,
    build_sharded_index,
    load_sharded_index,
    make_partitioner,
    save_sharded_index,
)

from conftest import assert_ranks_like_the_scan, packed

DATA_SEEDS = (3, 8)
LAYOUTS = (
    "rtree-512", "rtree-4096", "tbtree-512", "tbtree-4096",
    "tbtree-4096-shards", "tbtree-4096-live",
)
#: Objects that get a point after the live store's compaction, so the
#: memtable holds a slice of them.
SLICED = 5


def _dataset(seed):
    return generate_gstd(14, samples_per_object=30, seed=seed)


def _saved(cls, dataset, page_size, directory):
    built = packed(cls, dataset, page_size=page_size)
    built.finalize()
    path = directory / "index.pages"
    save_index(built, path, signatures=True)
    return load_index(path)


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    """``seed`` -> ``(dataset, layouts)``: every layout of LAYOUTS as
    ``(searchable, parts, oracle dataset)``; the live view's oracle
    holds its sliced objects' extra point."""
    out = {}
    opened = []
    for seed in DATA_SEEDS:
        dataset = _dataset(seed)
        layouts = {}
        for name, cls in (("rtree", RTree3D), ("tbtree", TBTree)):
            for page_size in (512, 4096):
                index = _saved(
                    cls, dataset, page_size,
                    tmp_path_factory.mktemp(f"{name}{page_size}"),
                )
                opened.append(index.pagefile)
                layouts[f"{name}-{page_size}"] = (index, [index], dataset)
        sharded = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner("hash", 4)),
            TBTree,
            page_size=4096,
        )
        directory = tmp_path_factory.mktemp("shards") / "shards"
        save_sharded_index(sharded, directory, signatures=True)
        sharded.close()
        shards = load_sharded_index(directory)
        opened.append(shards)
        layouts["tbtree-4096-shards"] = (shards, list(shards.shards), dataset)
        store = IngestStore.create(
            tmp_path_factory.mktemp("live") / "store", tree="tbtree"
        )
        opened.append(store)
        for t, oid, x, y in sorted(
            (p.t, tr.object_id, p.x, p.y) for tr in dataset for p in tr
        ):
            store.append(oid, x, y, t)
        store.compact()
        for oid in dataset.ids()[:SLICED]:
            last = list(dataset[oid])[-1]
            store.append(oid, last.x + 1.0, last.y, last.t + 10.0)
        view = store.view()
        opened.append(view)
        layouts["tbtree-4096-live"] = (
            view.parts, view.parts, store.current_dataset()
        )
        out[seed] = (dataset, layouts)
    yield out
    for thing in reversed(opened):
        thing.close()


def _filters(parts, query, period):
    vmax = max(p.max_speed for p in parts) + query.max_speed()
    return make_signature_filters(parts, query, *period, vmax)


def would_be_seeds(parts, query, period, k):
    """The trajectory ids a search that excludes nothing would seed."""
    filters = _filters(parts, query, period)
    seeds = SignatureFilter.seed_pages(filters, set(), k)
    return {tid for part, page in seeds for tid in filters[part].page_tids(page)}


def eligible(parts, query, period):
    return len(would_be_seeds(parts, query, period, 10**9))


class TestEligibility:
    def test_only_whole_trajectory_leaves_seed(self, worlds):
        dataset, layouts = worlds[DATA_SEEDS[0]]
        query, period = make_query(dataset, 1.0, random.Random(1))
        counts = {
            name: eligible(parts, query, period)
            for name, (_target, parts, _data) in layouts.items()
        }
        assert counts["tbtree-512"] == 0
        assert counts["rtree-512"] == 0
        # Every TB leaf at 4096 B holds one whole trajectory.
        assert counts["tbtree-4096"] == len(dataset)
        assert counts["tbtree-4096-shards"] == len(dataset)
        # The live view's generation seeds every object: the memtable's
        # slices, which have no sidecar, start where the period ends.
        assert counts["tbtree-4096-live"] == len(dataset)

    def test_a_seed_needs_the_whole_period(self):
        full = _dataset(5)
        # Odd objects end half way: their pages seed only a period
        # inside their lifetime.
        cut = TrajectoryDataset(
            tr.sliced(0.0, 1000.0) if tr.object_id % 2 else tr for tr in full
        )
        index = packed(TBTree, cut, page_size=4096)
        index.finalize()
        index.signatures = build_signatures(index)
        whole = {tr.object_id for tr in cut if tr.t_end >= 1500.0}
        source = cut[min(whole)]
        inside, across = (100.0, 900.0), (500.0, 1500.0)
        query = source.sliced(*inside).with_id(-1)
        assert eligible([index], query, inside) == len(cut)
        for k in (1, 5, len(cut)):
            got, _stats = bfmst_search(index, query, inside, k=k)
            want = linear_scan_kmst(cut, query, inside, k=k, exact=True)
            assert_ranks_like_the_scan(got, want)
        query = source.sliced(*across).with_id(-1)
        seeds = would_be_seeds([index], query, across, 10**9)
        assert seeds == whole

    def test_seeded_reads_are_counted_once(self, worlds):
        dataset, layouts = worlds[DATA_SEEDS[0]]
        index, _parts, _data = layouts["tbtree-4096"]
        query, period = make_query(dataset, 0.3, random.Random(5))
        for k in (1, 4, len(dataset) + 2):
            with query_trace(index) as trace:
                got, stats = bfmst_search(index, query, period, k=k)
            seeded = trace.counters.get("search.bfmst.seeded_leaves", 0)
            assert seeded == min(k, len(dataset))
            # A seeded read is a node access, a leaf access and a check;
            # the traversal never dequeues its page again.
            assert stats.node_accesses == (
                trace.counters["index.nodes_dequeued"] + seeded
            )
            assert stats.node_accesses == trace.counters["storage.logical_reads"]
            assert stats.signature_checks >= seeded
            want = linear_scan_kmst(dataset, query, period, k=k, exact=True)
            assert_ranks_like_the_scan(got, want)

    def test_filter_off_seeds_nothing(self, worlds):
        dataset, layouts = worlds[DATA_SEEDS[0]]
        index, _parts, _data = layouts["tbtree-4096"]
        query, period = make_query(dataset, 0.3, random.Random(5))
        with query_trace(index) as trace:
            bfmst_search(index, query, period, k=3, filter="off")
        assert "search.bfmst.seeded_leaves" not in trace.counters

    @pytest.mark.parametrize("layout", ["rtree-512", "rtree-4096", "tbtree-512"])
    def test_mixed_and_split_leaves_seed_nothing(self, worlds, layout):
        dataset, layouts = worlds[DATA_SEEDS[0]]
        index, _parts, _data = layouts[layout]
        query, period = make_query(dataset, 0.3, random.Random(5))
        with query_trace(index) as trace:
            bfmst_search(index, query, period, k=3)
        assert "search.bfmst.seeded_leaves" not in trace.counters


@given(
    seed=st.sampled_from(DATA_SEEDS),
    layout=st.sampled_from(LAYOUTS),
    length=st.floats(min_value=0.02, max_value=1.0),
    query_seed=st.integers(min_value=0, max_value=2**16),
    extra_k=st.integers(min_value=0, max_value=17),
    exclusion=st.sampled_from(("none", "seeds", "seeds+random", "random")),
    data=st.data(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_seeded_search_answers_like_the_exact_scan(
    worlds, seed, layout, length, query_seed, extra_k, exclusion, data
):
    dataset, layouts = worlds[seed]
    target, parts, oracle = layouts[layout]
    query, period = make_query(dataset, length, random.Random(query_seed))
    # k from 1 to past the number of eligible pages.
    k = 1 + extra_k % (eligible(parts, query, period) + 3)
    excluded = set()
    if exclusion in ("seeds", "seeds+random"):
        excluded |= would_be_seeds(parts, query, period, k)
    if exclusion in ("random", "seeds+random"):
        excluded |= set(
            data.draw(st.sets(st.sampled_from(dataset.ids()), max_size=6))
        )
    got, _stats = bfmst_search(
        target, query, period, k=k, exclude_ids=frozenset(excluded)
    )
    want = linear_scan_kmst(
        oracle, query, period, k=k, exact=True, exclude_ids=excluded
    )
    assert_ranks_like_the_scan(got, want)
