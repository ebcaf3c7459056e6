"""Fault-injection suite for the live ingestion path.

Extends the kill-a-byte style of ``test_failure_injection.py`` to the
write path: the WAL is truncated and bit-flipped at every record
boundary and at mid-record offsets, and compaction is killed at every
internal step.  The invariant under test is the crash contract of
``docs/INGEST.md``: recovery either replays a clean prefix of what was
acknowledged or raises :class:`~repro.exceptions.StorageError` — it
never serves wrong answers.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from repro import IngestStore, StorageError
from repro.datagen import generate_gstd, make_query
from repro.ingest import WAL_RECORD_BYTES
from repro.search.api import bfmst_search
from repro.storage.format import PAGE_HEADER_BYTES
from repro.trajectory import Trajectory, TrajectoryDataset

K = 4


class SimulatedCrash(RuntimeError):
    """Raised by the fault hook to model dying at a compaction step."""


# ----------------------------------------------------------------------
# scenario: a store with one published generation plus a live WAL tail
# ----------------------------------------------------------------------
def _dataset():
    return generate_gstd(10, samples_per_object=16, seed=97)


def _events(dataset):
    return sorted(
        ((tr.object_id, p.x, p.y, p.t) for tr in dataset for p in tr),
        key=lambda e: (e[3], e[0]),
    )


def _oracle(history, query, period, k):
    """Ground truth for a point-history dict: from-scratch TB-tree."""
    from repro.index import TBTree

    index = TBTree(page_size=4096)
    for oid in sorted(history):
        pts = history[oid]
        if len(pts) >= 2:
            index.insert(Trajectory(oid, pts))
    index.finalize()
    if index.num_entries == 0:
        return []
    result = bfmst_search(index, None, query, period=period, k=k)
    return [(m.trajectory_id, m.dissim) for m in result.matches]


def _answers(store, query, period, k):
    matches, _ = store.kmst(query, period, k)
    return [(m.trajectory_id, m.dissim) for m in matches]


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """A closed store directory: generation 0 + a WAL of known records.

    Returns ``(root, base_history, wal_events, query, period)`` where
    ``base_history`` is the point history at the time of compaction and
    ``wal_events`` the ``(oid, x, y, t)`` records the WAL holds, in
    order.  Tests copy ``root`` before damaging it.
    """
    dataset = _dataset()
    events = _events(dataset)
    half = len(events) // 2
    root = tmp_path_factory.mktemp("crash") / "store"

    with IngestStore.create(root, sync_every=1) as store:
        for oid, x, y, t in events[:half]:
            store.append(oid, x, y, t)
        store.compact()
        base_history = {
            oid: [(p.x, p.y, p.t) for p in store.trajectory(oid)]
            for oid in store.ids()
        }
        wal_events = events[half : half + 24]
        for oid, x, y, t in wal_events:
            store.append(oid, x, y, t)

    rng = random.Random(5)
    query, period = make_query(dataset, 0.4, rng)
    return root, base_history, wal_events, query, period


def _state_after(base_history, wal_events, n):
    """The logical point history once ``n`` WAL records survive."""
    history = {oid: list(pts) for oid, pts in base_history.items()}
    for oid, x, y, t in wal_events[:n]:
        history.setdefault(oid, []).append((x, y, t))
    return history


def _copy(scenario_root, tmp_path, name):
    target = tmp_path / name
    shutil.copytree(scenario_root, target)
    return target


def _wal_path(root):
    wals = sorted(root.glob("wal-*.log"))
    assert len(wals) == 1
    return wals[0]


# ----------------------------------------------------------------------
# torn writes: truncation at every record boundary and mid-record
# ----------------------------------------------------------------------
class TestWalTruncation:
    def test_every_record_boundary(self, scenario, tmp_path):
        root, base, wal_events, query, period = scenario
        for n in range(len(wal_events) + 1):
            target = _copy(root, tmp_path, f"boundary-{n}")
            wal = _wal_path(target)
            blob = wal.read_bytes()
            assert len(blob) == len(wal_events) * WAL_RECORD_BYTES
            wal.write_bytes(blob[: n * WAL_RECORD_BYTES])

            with IngestStore.open(target) as store:
                assert store.metrics.value("ingest.wal_replayed_records") == n
                want = _oracle(_state_after(base, wal_events, n), query, period, K)
                assert _answers(store, query, period, K) == want

    def test_every_mid_record_offset_of_one_record(self, scenario, tmp_path):
        """A torn write anywhere inside a record loses exactly that
        record and everything after it."""
        root, base, wal_events, query, period = scenario
        cut_record = len(wal_events) // 2
        want = _oracle(
            _state_after(base, wal_events, cut_record), query, period, K
        )
        for extra in range(1, WAL_RECORD_BYTES):
            target = _copy(root, tmp_path, f"torn-{extra}")
            wal = _wal_path(target)
            blob = wal.read_bytes()
            wal.write_bytes(blob[: cut_record * WAL_RECORD_BYTES + extra])

            with IngestStore.open(target) as store:
                assert (
                    store.metrics.value("ingest.wal_replayed_records")
                    == cut_record
                )
                assert store.metrics.value("ingest.wal_truncations") == 1
                assert _answers(store, query, period, K) == want

    def test_recovery_truncates_the_file_itself(self, scenario, tmp_path):
        root, base, wal_events, query, period = scenario
        target = _copy(root, tmp_path, "truncated-file")
        wal = _wal_path(target)
        blob = wal.read_bytes()
        wal.write_bytes(blob[: 3 * WAL_RECORD_BYTES + 7])
        with IngestStore.open(target):
            pass
        assert _wal_path(target).stat().st_size == 3 * WAL_RECORD_BYTES


# ----------------------------------------------------------------------
# bit-flips: every offset of one record, first byte of every record
# ----------------------------------------------------------------------
class TestWalBitFlips:
    def _check(self, target, base, wal_events, flip_record, query, period):
        """Recovery must fence off the flipped record: the surviving
        answers equal the clean prefix's, or opening raises
        StorageError.  Nothing else is acceptable."""
        try:
            store = IngestStore.open(target)
        except StorageError:
            return
        with store:
            survivors = store.metrics.value("ingest.wal_replayed_records")
            assert survivors == flip_record
            want = _oracle(
                _state_after(base, wal_events, survivors), query, period, K
            )
            assert _answers(store, query, period, K) == want

    def test_every_offset_of_one_record(self, scenario, tmp_path):
        root, base, wal_events, query, period = scenario
        flip_record = len(wal_events) // 3
        for offset in range(WAL_RECORD_BYTES):
            target = _copy(root, tmp_path, f"flip-{offset}")
            wal = _wal_path(target)
            blob = bytearray(wal.read_bytes())
            blob[flip_record * WAL_RECORD_BYTES + offset] ^= 0x10
            wal.write_bytes(bytes(blob))
            self._check(target, base, wal_events, flip_record, query, period)

    def test_first_byte_of_every_record(self, scenario, tmp_path):
        root, base, wal_events, query, period = scenario
        for n in range(len(wal_events)):
            target = _copy(root, tmp_path, f"flip-rec-{n}")
            wal = _wal_path(target)
            blob = bytearray(wal.read_bytes())
            blob[n * WAL_RECORD_BYTES] ^= 0x01
            wal.write_bytes(bytes(blob))
            self._check(target, base, wal_events, n, query, period)


# ----------------------------------------------------------------------
# killed compactions: every internal step
# ----------------------------------------------------------------------
FAULT_SITES = [
    "compact.begin",
    "compact.pages_committed",
    "compact.wal_rotated",
    "compact.manifest_committed",
    "compact.done",
]


class TestCompactionCrash:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_killed_at_every_site(self, scenario, tmp_path, site):
        """Dying at any compaction step loses nothing: the WAL was
        synced before the first step, so recovery always reconstructs
        the full acknowledged state (from the old generation + old WAL
        before the manifest commit, from the new generation after)."""
        root, base, wal_events, query, period = scenario
        target = _copy(root, tmp_path, f"kill-{site.replace('.', '-')}")
        full = _state_after(base, wal_events, len(wal_events))
        want = _oracle(full, query, period, K)

        store = IngestStore.open(target)
        assert _answers(store, query, period, K) == want

        def die(at):
            if at == site:
                raise SimulatedCrash(site)

        store._failpoints = die
        with pytest.raises(SimulatedCrash):
            store.compact()
        # the store poisons itself: on-disk state is consistent but the
        # in-process state may be half-applied, so everything now
        # demands a reopen ...
        with pytest.raises(StorageError):
            store.append(1, 0.0, 0.0, 1e12)
        with pytest.raises(StorageError):
            store.view()
        store._failpoints = None
        store.close()

        # ... and the reopen serves exactly the acknowledged state
        with IngestStore.open(target) as reopened:
            assert _answers(reopened, query, period, K) == want
            points = sum(len(pts) for pts in full.values())
            assert reopened.num_points == points
            # the recovered store is fully usable: compact + ingest on
            reopened.compact()
            assert _answers(reopened, query, period, K) == want
            reopened.append(424242, 0.0, 0.0, 1e12)
            reopened.append(424242, 1.0, 1.0, 1e12 + 1)
            assert reopened.num_points == points + 2

    def test_orphans_are_swept_on_reopen(self, scenario, tmp_path):
        """A crash between writing generation files and the manifest
        commit leaves orphans; reopening deletes them."""
        root, _base, _wal_events, _query, _period = scenario
        target = _copy(root, tmp_path, "orphans")

        store = IngestStore.open(target)
        store._failpoints = lambda at: (
            (_ for _ in ()).throw(SimulatedCrash(at))
            if at == "compact.wal_rotated"
            else None
        )
        with pytest.raises(SimulatedCrash):
            store.compact()
        store.close()

        # gen-1's files and the rotated-to WAL exist but are
        # unreferenced (the scenario's own compaction used up wal-2)
        orphans = {p.name for p in target.glob("gen-000001*")}
        orphans |= {p.name for p in target.glob("wal-000003*")}
        assert orphans
        with IngestStore.open(target):
            pass
        for name in orphans:
            assert not (target / name).exists()


# ----------------------------------------------------------------------
# corrupt metadata refuses, never misleads
# ----------------------------------------------------------------------
class TestCorruptMetadata:
    def test_corrupt_manifest_raises(self, scenario, tmp_path):
        root, *_ = scenario
        target = _copy(root, tmp_path, "bad-manifest")
        (target / "MANIFEST.json").write_bytes(b"{not json")
        with pytest.raises(StorageError):
            IngestStore.open(target)

    def test_missing_generation_raises(self, scenario, tmp_path):
        root, *_ = scenario
        target = _copy(root, tmp_path, "no-gen")
        for p in target.glob("gen-*.pages"):
            p.unlink()
        with pytest.raises(StorageError):
            IngestStore.open(target)

    def test_corrupt_generation_page_raises_at_open(self, scenario, tmp_path):
        """The generation's pages are the only copy of its points, so
        open reads every leaf back and a damaged one refuses."""
        root, *_ = scenario
        target = _copy(root, tmp_path, "bad-leaf")
        (pages,) = target.glob("gen-*.pages")
        with IngestStore.open(target) as store:
            index = store._generation.index
            leaf = next(
                page
                for page in range(index.pagefile.num_pages)
                if index.read_node(page).is_leaf and page != index.root_page
            )
            page_size = index.page_size
        blob = bytearray(pages.read_bytes())
        blob[leaf * page_size + PAGE_HEADER_BYTES + 40] ^= 0x01
        pages.write_bytes(bytes(blob))
        with pytest.raises(StorageError):
            IngestStore.open(target)

    def test_format_1_store_is_refused_untouched(self, scenario, tmp_path):
        """A store whose manifest says format 1 kept its points in a
        JSON file beside the pages; open refuses it before deleting
        anything, and says how to recover."""
        root, *_ = scenario
        target = _copy(root, tmp_path, "format-1")
        manifest = json.loads((target / "MANIFEST.json").read_text())
        manifest["format"] = 1
        (target / "MANIFEST.json").write_text(json.dumps(manifest))
        # files a format-1 store holds that a format-2 open would sweep
        (target / "gen-000000.data.json").write_text('{"objects": {}}')
        (target / "wal-000009.log").touch()
        listing = sorted(p.name for p in target.iterdir())
        with pytest.raises(StorageError, match="format 1.*format 2.*feed the points again"):
            IngestStore.open(target)
        assert sorted(p.name for p in target.iterdir()) == listing
