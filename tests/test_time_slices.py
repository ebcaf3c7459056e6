"""Time slices across parts: one object's history split over several
parts answers as the unsplit set.

DISSIM is an integral over the query period, so an object's value is
the sum of its values over time slices.  BFMST keeps one candidate per
id across the parts it searches, so two parts may hold one id where its
time ranges in them meet at most at an endpoint — the shape of a live
store's generation and memtable, which meet at each object's joint
sample.  Each object of a GSTD set is cut here at random inner samples
into 1–4 slices that share their cut samples, and the slices are
placed in 1–4 parts, at most one slice of an id per part.  The property
test draws both trees at 512 and 4096-byte pages, each part with or
without its sidecar, k from 1 to 10 and query lengths of 2–100 %, and
holds every answer to the exact scan of the unsplit set.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RTree3D, TBTree, TrajectoryDataset
from repro.datagen import generate_gstd, make_query
from repro.filter import build_signatures
from repro.search.bfmst import bfmst_search
from repro.search.linear_scan import linear_scan_kmst
from repro.trajectory import Trajectory

from conftest import assert_ranks_like_the_scan, packed

DATA_SEEDS = (3, 8)
TREES = {"rtree": RTree3D, "tbtree": TBTree}
PAGE_SIZES = (512, 4096)
PART_COUNTS = (1, 2, 3, 4)


def _dataset(seed):
    return generate_gstd(14, samples_per_object=30, seed=seed)


def split_into_parts(dataset, parts: int, rng) -> list[TrajectoryDataset]:
    """Each object cut at random inner samples into 1 to ``parts``
    slices sharing their cut samples, each slice in a part of its own;
    parts left empty are dropped."""
    members = [[] for _ in range(parts)]
    for tr in dataset:
        points = [(p.x, p.y, p.t) for p in tr]
        count = rng.randint(1, min(parts, len(points) - 1))
        cuts = sorted(rng.sample(range(1, len(points) - 1), count - 1))
        bounds = [0, *cuts, len(points) - 1]
        homes = rng.sample(range(parts), count)
        for home, lo, hi in zip(homes, bounds, bounds[1:]):
            members[home].append(Trajectory(tr.object_id, points[lo : hi + 1]))
    return [TrajectoryDataset(m) for m in members if m]


@pytest.fixture(scope="module")
def worlds():
    """``(seed, tree, page_size, parts)`` -> ``(dataset, [(index,
    sidecar), ...])``: the parts of one split, each packed and with its
    sidecar built but not attached."""
    out = {}
    for seed in DATA_SEEDS:
        dataset = _dataset(seed)
        for count in PART_COUNTS:
            sliced = split_into_parts(
                dataset, count, random.Random(seed * 10 + count)
            )
            for name, cls in TREES.items():
                for page_size in PAGE_SIZES:
                    built = []
                    for members in sliced:
                        index = packed(cls, members, page_size=page_size)
                        index.finalize()
                        built.append((index, build_signatures(index)))
                    out[seed, name, page_size, count] = (dataset, built)
    return out


def attach(built, sidecars) -> list:
    """The parts, each carrying its sidecar where ``sidecars`` says so."""
    parts = []
    for (index, sigs), on in zip(built, sidecars):
        index.signatures = sigs if on else None
        parts.append(index)
    return parts


class TestSplit:
    def test_split_keeps_every_segment_once(self, worlds):
        dataset, built = worlds[DATA_SEEDS[0], "tbtree", 4096, 4]
        pieces: dict[int, list] = {}
        for index, _sigs in built:
            for tid in index.trajectory_ids:
                pieces.setdefault(tid, []).append(index)
        assert set(pieces) == set(dataset.ids())
        # Some objects are in several parts; none twice in one.
        assert max(len(homes) for homes in pieces.values()) > 1
        assert all(len(set(map(id, h))) == len(h) for h in pieces.values())
        assert sum(index.num_entries for index, _ in built) == sum(
            len(tr) - 1 for tr in dataset
        )


def _touched(parts, t_start, t_end) -> set:
    """Wrap each part's ``read_node`` to collect the ids with a window
    in the period on any leaf the search reads; returns that set."""
    touched = set()
    for index in parts:
        read = index.read_node

        def read_node(page_id, _read=read):
            node = _read(page_id)
            if node.is_leaf:
                for tid, _x1, _y1, t1, _x2, _y2, t2 in node.rows_in_period(
                    t_start, t_end
                ):
                    if max(t1, t_start) < min(t2, t_end):
                        touched.add(tid)
            return node

        index.read_node = read_node
    return touched


@pytest.mark.parametrize("filter_mode", ["off", "auto"])
@pytest.mark.parametrize("tree", sorted(TREES))
def test_a_rejected_object_is_never_a_candidate_again(worlds, tree, filter_mode):
    """A rejection settles the id in every part: the slice of a
    rejected object in another part is never made a candidate, so no id
    is created twice: at most one candidate per id touched (an id with
    a window in the period on a leaf the search read)."""
    rejections = 0
    for seed in DATA_SEEDS:
        for count in (2, 3, 4):
            dataset, built = worlds[seed, tree, 512, count]
            rng = random.Random(seed + count)
            for _ in range(8):
                query, period = make_query(dataset, rng.uniform(0.2, 1.0), rng)
                parts = attach(built, [True] * len(built))
                touched = _touched(parts, *period)
                try:
                    _got, stats = bfmst_search(
                        parts, query, period, k=1, filter=filter_mode
                    )
                finally:
                    for index in parts:
                        del index.read_node
                assert stats.candidates_created <= len(touched)
                rejections += stats.candidates_rejected
    assert rejections > 0


@given(
    seed=st.sampled_from(DATA_SEEDS),
    tree=st.sampled_from(sorted(TREES)),
    page_size=st.sampled_from(PAGE_SIZES),
    count=st.sampled_from(PART_COUNTS),
    length=st.floats(min_value=0.02, max_value=1.0),
    query_seed=st.integers(min_value=0, max_value=2**16),
    k=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_sliced_parts_answer_like_the_exact_scan(
    worlds, seed, tree, page_size, count, length, query_seed, k, data
):
    dataset, built = worlds[seed, tree, page_size, count]
    sidecars = data.draw(
        st.lists(st.booleans(), min_size=len(built), max_size=len(built))
    )
    parts = attach(built, sidecars)
    query, period = make_query(dataset, length, random.Random(query_seed))
    got, _stats = bfmst_search(parts, query, period, k=k)
    want = linear_scan_kmst(dataset, query, period, k=k, exact=True)
    assert_ranks_like_the_scan(got, want)
