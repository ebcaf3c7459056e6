"""Per-pair speed bounds (docs/ALGORITHMS.md, "Per-pair speeds").

The distance ``|Q(t) - S(t)|`` changes no faster than ``v_max(Q) +
v_max(S)``, so the speed-dependent bounds hold with that pair speed in
place of the global ``V_max``.  Checked here: the OPTDISSIM /
PESDISSIM bracket under the pair speed on random partial coverage; the
signature pass with each row's own speed against its scalar reference
and the exact DISSIM, zero-speed rows and a stationary query included;
the sidecar's speed column against the index's ``max_speed``; the
rule that picks each candidate's speeds; and a live store whose
memtable slice of an object outruns the object's generation speed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    TREES,
    IngestStore,
    RTree3D,
    Trajectory,
    TrajectoryDataset,
    dissim_exact,
    generate_gstd,
    load_index,
    save_index,
)
from repro.distance import PartialDissim, segment_dissim
from repro.filter import SignatureFilter, build_signatures, signatures_from_points
from repro.search.bfmst import _pair_speeds
from repro.search.linear_scan import linear_scan_kmst

from conftest import assert_ranks_like_the_scan, cotemporal_trajectories, hexes


def partial_coverage(q, t, cuts, keep):
    """A PartialDissim of ``t`` over ``q``'s period with the stretches
    between consecutive ``cuts`` retrieved where ``keep`` says so, each
    cut further at ``t``'s sample times into per-segment windows."""
    partial = PartialDissim(q.t_start, q.t_end)
    bounds = sorted({q.t_start, q.t_end, *cuts})
    for (lo, hi), kept in zip(zip(bounds, bounds[1:]), keep):
        if not kept:
            continue
        for seg in t.segments():
            a, b = max(lo, seg.ts), min(hi, seg.te)
            if a < b:
                total, d_lo, d_hi = segment_dissim(q, seg, a, b)
                partial.add_interval(a, b, total, d_lo, d_hi)
    return partial


class TestPartialBounds:
    @given(
        pair=cotemporal_trajectories(2),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
        keep=st.lists(st.booleans(), min_size=7, max_size=7),
        extra=st.sampled_from([0.0, 0.5, 10.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_pair_speed_brackets_dissim(self, pair, cuts, keep, extra):
        q, t = pair
        cuts = [q.t_start + c * (q.t_end - q.t_start) for c in cuts]
        partial = partial_coverage(q, t, cuts, keep)
        exact = dissim_exact(q, t)
        speed = q.max_speed() + t.max_speed()
        slack = 1e-6 * max(1.0, exact)
        assert partial.optdissim(speed) <= exact + slack
        assert partial.pesdissim(speed) >= exact - slack
        # One pass, two speeds: each bound as if computed alone.
        wider = speed + extra
        assert hexes(partial.bounds(wider, speed)) == hexes(
            (partial.optdissim(speed), partial.pesdissim(wider))
        )


@st.composite
def fleets(draw):
    """A query and a few trajectories over one period, some of them
    stationary, and maybe a stationary query."""
    q, *others = draw(cotemporal_trajectories(draw(st.integers(3, 6))))
    still = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))

    def halt(tr, object_id):
        x, y = tr[0].x, tr[0].y
        return Trajectory(object_id, [(x, y, p.t) for p in tr])

    dataset = TrajectoryDataset(
        halt(tr, tr.object_id) if stop else tr
        for tr, stop in zip(others, still)
    )
    query = halt(q, -1) if draw(st.booleans()) else Trajectory(-1, list(q))
    return query, dataset


class TestSignaturePass:
    @given(fleet=fleets(), probes=st.sampled_from([1, 5, 32]))
    @settings(max_examples=100, deadline=None)
    def test_row_speeds_bit_equal_and_below_dissim(self, fleet, probes):
        query, dataset = fleet
        tree = RTree3D(page_size=512)
        tree.bulk_insert(dataset)
        sigs = build_signatures(tree)
        period = (query.t_start, query.t_end)
        vmax = tree.max_speed + query.max_speed()
        filt = SignatureFilter(sigs, query, *period, vmax, probes=probes)
        for tr in dataset:
            tid = tr.object_id
            speed = sigs.speed(tid)
            assert speed == tr.max_speed()
            lb = filt.bound(tid)
            want = filt._evaluate(*sigs.knots(tid), speed)
            assert hexes([lb]) == hexes([want])
            exact = dissim_exact(query, tr, period)
            assert lb <= exact + 1e-9 * max(1.0, exact)

    def test_zero_speed_row_and_stationary_query(self):
        # Both still: the pair speed is 0 and the bound is the distance
        # times the covered length, less the radii (none here).
        query = Trajectory(-1, [(0.0, 0.0, 0.0), (0.0, 0.0, 8.0)])
        dataset = TrajectoryDataset(
            [
                Trajectory(1, [(3.0, 4.0, 0.0), (3.0, 4.0, 8.0)]),
                Trajectory(2, [(0.0, 1.0, 0.0), (5.0, 1.0, 8.0)]),
            ]
        )
        tree = RTree3D()
        tree.bulk_insert(dataset)
        sigs = build_signatures(tree)
        assert [sigs.speed(1), sigs.speed(2)] == [0.0, 0.625]
        vmax = tree.max_speed + query.max_speed()
        filt = SignatureFilter(sigs, query, 0.0, 8.0, vmax)
        assert filt.bound(1) == 40.0 == dissim_exact(query, dataset.get(1))
        assert hexes([filt.bound(2)]) == hexes(
            [filt._evaluate(*sigs.knots(2), 0.625)]
        )


class TestSpeedColumn:
    @pytest.mark.parametrize("kind", sorted(TREES))
    @pytest.mark.parametrize("build", ["pack", "insert"])
    def test_largest_speed_is_the_index_max_speed(self, kind, build, tmp_path):
        dataset = generate_gstd(30, samples_per_object=25, seed=4)
        tree = TREES[kind](page_size=512)
        if build == "pack":
            leaf_tids = tree.pack(
                (tr.object_id, [(p.x, p.y, p.t) for p in tr]) for tr in dataset
            )
            points = {tr.object_id: [(p.x, p.y, p.t) for p in tr] for tr in dataset}
            sigs = signatures_from_points(tree, points, leaf_tids)
            assert bytes(sigs.speeds) == bytes(build_signatures(tree).speeds)
        else:
            for tr in dataset:
                tree.insert(tr)
            sigs = build_signatures(tree)
        tree.finalize()
        assert list(sigs.speeds) == [dataset.get(t).max_speed() for t in sigs.tids]
        assert max(sigs.speeds) == tree.max_speed
        path = tmp_path / "idx.pages"
        save_index(tree, path, signatures=sigs)
        loaded = load_index(path)
        try:
            assert list(loaded.signatures.speeds) == list(sigs.speeds)
            assert max(loaded.signatures.speeds) == loaded.max_speed
        finally:
            loaded.signatures.close()
            loaded.pagefile.close()


class TestPairSpeedRule:
    def test_sidecar_rows_spanning_the_period_price_both_bounds(self, tmp_path):
        dataset = generate_gstd(12, samples_per_object=20, seed=8)
        tree = RTree3D()
        tree.bulk_insert(dataset)
        path = tmp_path / "idx.pages"
        save_index(tree, path, signatures=True)
        loaded = load_index(path)
        try:
            tr = dataset.get(dataset.ids()[0])
            vmax = loaded.max_speed + 0.5
            inside = _pair_speeds([loaded], tr.t_start, tr.t_end, 0.5, vmax)
            own = min(0.5 + tr.max_speed(), vmax)
            assert inside(tr.object_id) == (own, own)
            # A period past the object's samples: PESDISSIM keeps vmax.
            after = _pair_speeds([loaded], tr.t_start, tr.t_end + 1.0, 0.5, vmax)
            assert after(tr.object_id) == (own, vmax)
            # Without the sidecar the part's max_speed stands in.
            bare = _pair_speeds([tree], tr.t_start, tr.t_end, 0.5, vmax)
            assert bare(tr.object_id) == (min(0.5 + tree.max_speed, vmax), vmax)
        finally:
            loaded.signatures.close()
            loaded.pagefile.close()


class TestLiveSlices:
    def test_memtable_slice_faster_than_generation(self, tmp_path):
        """Object 1 is slow in the generation (0.09) and jumps at speed
        4 in the memtable.  The query sits still at the origin; after
        objects 2 and 3 complete, object 1's generation slice is read
        with its memtable slice still a gap.  Priced with the
        generation's speed alone, that gap's OPTDISSIM (275) would
        exceed the k-th best (220) and reject object 1, whose DISSIM is
        189.5; the memtable's own ``max_speed`` keeps it."""
        points = {
            1: [(0.5, 0.0, 0.0), (5.0, 0.0, 50.0), (1.0, 0.0, 51.0), (1.0, 0.0, 100.0)],
            2: [(0.45, 0.0, 0.0), (0.45, 0.0, 50.0), (0.45, 0.0, 100.0)],
            3: [(0.4, 0.0, 0.0), (4.0, 0.0, 45.0), (0.4, 0.0, 50.0), (4.0, 0.0, 100.0)],
        }
        events = sorted(
            (t, oid, x, y) for oid, pts in points.items() for x, y, t in pts
        )
        query = Trajectory(-1, [(0.0, 0.0, 0.0), (0.0, 0.0, 100.0)])
        for kind in sorted(TREES):
            with IngestStore.create(tmp_path / kind, tree=kind) as store:
                for t, oid, x, y in events:
                    if t > 50.0 and store.generation_number < 0:
                        store.compact()
                    store.append(oid, x, y, t)
                got, _stats = store.kmst(query, (0.0, 100.0), 2)
                want = linear_scan_kmst(
                    store.current_dataset(), query, (0.0, 100.0), k=2, exact=True
                )
                assert [m.trajectory_id for m in want] == [2, 1]
                assert_ranks_like_the_scan(got, want)
