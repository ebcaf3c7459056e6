"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import math
import random
import zlib

import pytest
from hypothesis import strategies as st

from repro import (
    RTree3D,
    TBTree,
    Trajectory,
    TrajectoryDataset,
    generate_gstd,
    make_workload,
)


# ----------------------------------------------------------------------
# helpers shared by several test modules
# ----------------------------------------------------------------------
def work_counters(stats) -> dict:
    """A traced k-MST search's work, as counts that repeat exactly."""
    return {
        name: getattr(stats, name)
        for name in (
            "node_accesses",
            "entries_processed",
            "mindist_evaluations",
            "trapezoid_evals",
            "kernel_segments",
        )
    }


def hexes(values):
    """Floats as their exact hex spelling (``None`` kept): equal lists
    mean bit-equal values."""
    return [None if v is None else float.hex(v) for v in values]


def assert_ranks_like_the_scan(got, want):
    """The ids of the exact scan in its order, under the tie rule of
    ``benchmarks/e2e/truth.py`` (ids whose true DISSIMs agree within
    1e-9 relative may swap), each certified interval covering the true
    DISSIM of the id it ranks."""
    assert len(got) == len(want)
    truth = {m.trajectory_id: m.dissim for m in want}
    for g, w in zip(got, want):
        assert g.trajectory_id in truth
        true = truth[g.trajectory_id]
        assert true == pytest.approx(w.dissim, rel=1e-9, abs=1e-12)
        slack = 1e-9 * max(1.0, true)
        assert g.lower - slack <= true <= g.upper + slack


def inserted(cls, dataset, **kwargs):
    """An index built the dynamic way — one ``insert`` per trajectory,
    so choose-subtree, splits and the TB-tree's leaf appends run.
    (``bulk_insert`` packs the empty tree instead.)"""
    index = cls(**kwargs)
    for tr in dataset:
        index.insert(tr)
    return index


def packed(cls, dataset, **kwargs):
    """An index built the static way: ``bulk_insert`` packs the empty
    tree in one pass."""
    index = cls(**kwargs)
    index.bulk_insert(dataset)
    return index


def staggered_fleet(epochs=3, gap=2500.0):
    """GSTD epochs laid back to back, so the temporal partitioner gives
    each epoch its own shard and per-epoch queries select exactly one
    shard — the regime where serial and process traversals see the same
    bounds and must report the same work counters.  Returns the dataset
    and a workload of two queries per epoch."""
    dataset = TrajectoryDataset()
    workloads = []
    for epoch in range(epochs):
        raw = generate_gstd(8, samples_per_object=16, seed=40 + epoch)
        offset = epoch * gap
        shifted = TrajectoryDataset()
        for tr in raw:
            shifted.add(
                Trajectory(
                    epoch * 1000 + tr.object_id,
                    [(p.x, p.y, p.t + offset) for p in tr.samples],
                )
            )
        for tr in shifted:
            dataset.add(tr)
        workloads.extend(make_workload(shifted, 2, 0.25, seed=9 + epoch))
    return dataset, workloads


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
finite_coord = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)

small_coord = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def trajectories(draw, min_samples=2, max_samples=12, id_=0):
    """Random well-formed trajectories on a [0, n] time axis."""
    n = draw(st.integers(min_value=min_samples, max_value=max_samples))
    # Strictly increasing timestamps with bounded, non-degenerate gaps.
    gaps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=5.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    t = 0.0
    times = [0.0]
    for g in gaps:
        t += g
        times.append(t)
    xs = draw(st.lists(small_coord, min_size=n, max_size=n))
    ys = draw(st.lists(small_coord, min_size=n, max_size=n))
    return Trajectory(id_, list(zip(xs, ys, times)))


def cotemporal_trajectory_pairs(max_samples=10):
    """Two trajectories spanning the same [0, T] window (possibly with
    different sampling instants) — the DISSIM setting."""
    return cotemporal_trajectories(2, max_samples)


@st.composite
def cotemporal_trajectories(draw, count, max_samples=10):
    """``count`` trajectories (ids ``0 .. count-1``) spanning the same
    [0, T] window, each with its own sampling instants."""
    total = draw(st.floats(min_value=1.0, max_value=20.0))

    def one(idx: int) -> Trajectory:
        n = draw(st.integers(min_value=2, max_value=max_samples))
        interior = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=0.99),
                min_size=n - 2,
                max_size=n - 2,
                unique=True,
            )
        )
        times = sorted([0.0, *[f * total for f in interior], total])
        # unique fractions can still collide after scaling; nudge.
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                times[i] = math.nextafter(times[i - 1], math.inf)
        xs = draw(st.lists(small_coord, min_size=len(times), max_size=len(times)))
        ys = draw(st.lists(small_coord, min_size=len(times), max_size=len(times)))
        return Trajectory(idx, list(zip(xs, ys, times)))

    return tuple(one(i) for i in range(count))


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _pin_global_rng(request):
    """Determinism guard: every test starts from a fixed global-RNG
    state derived from its own nodeid, so an accidental unseeded
    ``random.*`` (or ``numpy.random``) call can never make a run
    order-dependent or flaky.  The audited suite only uses explicitly
    seeded ``random.Random`` instances; this pins anything that slips
    through review.  Prior state is restored afterwards.
    """
    seed = zlib.crc32(request.node.nodeid.encode())
    state = random.getstate()
    random.seed(seed)
    np_state = None
    try:  # CI runs the pure-Python layers' tests without numpy
        import numpy as np

        np_state = np.random.get_state()
        np.random.seed(seed & 0xFFFFFFFF)
    except ImportError:
        np = None
    yield
    random.setstate(state)
    if np_state is not None:
        np.random.set_state(np_state)


@pytest.fixture(scope="session")
def tiny_dataset() -> TrajectoryDataset:
    """20 objects, 40 samples each, common [0, 2000] window."""
    return generate_gstd(20, samples_per_object=40, seed=11)


@pytest.fixture(scope="session")
def small_dataset() -> TrajectoryDataset:
    """60 objects, 60 samples each — big enough for index structure."""
    return generate_gstd(60, samples_per_object=60, seed=5)


@pytest.fixture(scope="session")
def small_rtree(small_dataset) -> RTree3D:
    index = RTree3D()
    index.bulk_insert(small_dataset)
    index.finalize()
    return index


@pytest.fixture(scope="session")
def small_tbtree(small_dataset) -> TBTree:
    index = TBTree()
    index.bulk_insert(small_dataset)
    index.finalize()
    return index


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


def straight_line(object_id, x0, y0, vx, vy, times) -> Trajectory:
    """Uniform linear motion sampled at ``times`` (test helper)."""
    return Trajectory(
        object_id,
        [(x0 + vx * t, y0 + vy * t, t) for t in times],
    )
