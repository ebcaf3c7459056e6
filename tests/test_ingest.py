"""Unit tests for the live ingestion path (``repro.ingest``).

Covers the WAL record framing, replay/recovery, memtable semantics,
store validation, compaction + reopen, generation pinning and the
LiveQueryEngine / CLI surfaces.  The crash-consistency fault matrix
lives in ``test_ingest_crash.py``; the randomized interleavings in
``test_ingest_property.py``.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro import IngestStore, StorageError, TrajectoryError
from repro.cli import main
from repro.datagen import generate_gstd, make_query
from repro.engine import EngineConfig, LiveQueryEngine
from repro.exceptions import ChecksumError, QueryError
from repro.ingest import (
    WAL_RECORD_BYTES,
    Memtable,
    WalRecord,
    WriteAheadLog,
    recover_wal,
    replay_wal,
)
from repro.search import QuerySpec
from repro.search.api import bfmst_search
from repro.storage import RECORD_HEADER_BYTES, frame_record, parse_record
from repro.storage.format import KIND_WAL
from repro.trajectory import Trajectory, write_json


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def events_of(dataset):
    """Flatten a dataset into time-ordered (oid, x, y, t) append events."""
    return sorted(
        ((tr.object_id, p.x, p.y, p.t) for tr in dataset for p in tr),
        key=lambda e: (e[3], e[0]),
    )


def feed(store, dataset):
    for oid, x, y, t in events_of(dataset):
        store.append(oid, x, y, t)


def oracle_answers(dataset, query, period, k, *, tree="tbtree"):
    """Ground truth: k-MST over a from-scratch index of ``dataset``."""
    from repro.index.persistence import _KINDS

    index = _KINDS[tree](page_size=4096)
    for tr in dataset:
        index.insert(tr)
    index.finalize()
    result = bfmst_search(index, None, query, period=period, k=k)
    return [(m.trajectory_id, m.dissim) for m in result.matches]


def live_answers(store, query, period, k, **kwargs):
    matches, _stats = store.kmst(query, period, k, **kwargs)
    return [(m.trajectory_id, m.dissim) for m in matches]


@pytest.fixture()
def ingest_dataset():
    return generate_gstd(12, samples_per_object=24, seed=41)


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------
class TestRecordFraming:
    def test_roundtrip(self):
        payload = b"hello framed world"
        framed = frame_record(payload)
        kind, got, end = parse_record(framed)
        assert kind == KIND_WAL
        assert got == payload
        assert end == len(framed) == RECORD_HEADER_BYTES + len(payload)

    def test_records_pack_back_to_back(self):
        blob = frame_record(b"a") + frame_record(b"bb") + frame_record(b"ccc")
        offset, payloads = 0, []
        while offset < len(blob):
            _kind, payload, offset = parse_record(blob, offset)
            payloads.append(payload)
        assert payloads == [b"a", b"bb", b"ccc"]

    def test_kill_a_byte_every_flip_detected(self):
        framed = bytearray(frame_record(b"\x01\x02\x03\x04payload"))
        for pos in range(len(framed)):
            broken = bytearray(framed)
            broken[pos] ^= 0x40
            with pytest.raises(StorageError):
                parse_record(bytes(broken))

    def test_truncation_at_every_length_detected(self):
        framed = frame_record(b"truncate me")
        for cut in range(len(framed)):
            with pytest.raises(StorageError):
                parse_record(framed[:cut])

    def test_unknown_kind_rejected(self):
        # a page-kind frame is not a valid *record*
        framed = bytearray(frame_record(b"x"))
        import struct as _struct
        import zlib as _zlib

        from repro.storage.format import FORMAT_VERSION, PAGE_MAGIC

        prefix = _struct.Struct("<HBBI").pack(PAGE_MAGIC, FORMAT_VERSION, 99, 1)
        crc = _zlib.crc32(b"x", _zlib.crc32(prefix))
        framed = prefix + _struct.Struct("<II").pack(crc, 0) + b"x"
        with pytest.raises(StorageError, match="kind"):
            parse_record(framed)

    def test_crc_mismatch_is_checksum_error(self):
        framed = bytearray(frame_record(b"payload!"))
        framed[-1] ^= 0xFF  # corrupt payload, CRC now wrong
        with pytest.raises(ChecksumError):
            parse_record(bytes(framed))


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
class TestWal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(1, 0.25, 0.5, 1.0)
            wal.append(2, -3.5, 7.0, 2.0)
            wal.sync()
        records, clean, damage = replay_wal(path)
        assert damage is None
        assert clean == path.stat().st_size == 2 * WAL_RECORD_BYTES
        assert records == [
            WalRecord(1, 0.25, 0.5, 1.0),
            WalRecord(2, -3.5, 7.0, 2.0),
        ]

    def test_unsynced_counter(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            assert wal.unsynced_appends == 0
            wal.append(1, 0, 0, 1)
            wal.append(1, 0, 0, 2)
            assert wal.unsynced_appends == 2
            wal.sync()
            assert wal.unsynced_appends == 0

    def test_replay_reports_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for i in range(4):
                wal.append(7, float(i), 0.0, float(i))
        blob = path.read_bytes()
        path.write_bytes(blob[: 2 * WAL_RECORD_BYTES + 5])
        records, clean, damage = replay_wal(path)
        assert len(records) == 2
        assert clean == 2 * WAL_RECORD_BYTES
        assert damage is not None

    def test_recover_truncates_damage_and_is_idempotent(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for i in range(5):
                wal.append(3, float(i), float(i), float(i + 1))
        blob = bytearray(path.read_bytes())
        blob[3 * WAL_RECORD_BYTES + 8] ^= 0x01  # flip a bit in record 3
        path.write_bytes(bytes(blob))

        survivors = recover_wal(path)
        assert [r.t for r in survivors] == [1.0, 2.0, 3.0]
        assert path.stat().st_size == 3 * WAL_RECORD_BYTES
        # second recovery is a no-op on the already-clean file
        assert recover_wal(path) == survivors

    def test_empty_wal(self, tmp_path):
        path = tmp_path / "wal.log"
        path.touch()
        assert replay_wal(path) == ([], 0, None)
        assert recover_wal(path) == []


# ----------------------------------------------------------------------
# memtable
# ----------------------------------------------------------------------
class TestMemtable:
    def test_adopt_then_append_builds_segments(self):
        mt = Memtable()
        mt.adopt(5, [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)])
        mt.append(5, 2.0, 0.0, 2.0)
        assert 5 in mt
        assert mt.num_points == 3
        assert mt.num_entries == 2  # two segments
        assert mt.points_of(5) == [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (2.0, 0.0, 2.0)]

    def test_single_point_object_has_no_segments_until_second(self):
        mt = Memtable()
        mt.adopt(9, [(0.0, 0.0, 0.0)])
        assert mt.num_entries == 0
        mt.append(9, 1.0, 1.0, 1.0)
        assert mt.num_entries == 1

    def test_double_adopt_rejected(self):
        mt = Memtable()
        mt.adopt(1, [(0.0, 0.0, 0.0)])
        with pytest.raises(TrajectoryError):
            mt.adopt(1, [(0.0, 0.0, 0.0)])

    def test_new_points_excludes_seeded_history(self):
        mt = Memtable()
        mt.adopt(1, [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (2.0, 0.0, 2.0)])
        assert mt.num_points == 3
        assert mt.new_points == 1  # only the point that made it dirty
        mt.append(1, 3.0, 0.0, 3.0)
        assert mt.new_points == 2

    def test_snapshot_is_isolated_from_later_appends(self):
        mt = Memtable()
        mt.adopt(1, [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)])
        frozen = mt.snapshot()
        assert frozen is not None and frozen.num_entries == 1
        mt.append(1, 2.0, 0.0, 2.0)
        mt.append(1, 3.0, 0.0, 3.0)
        assert frozen.num_entries == 1  # unchanged
        assert mt.num_entries == 3

    def test_empty_snapshot_is_none(self):
        assert Memtable().snapshot() is None

    def test_snapshot_is_searchable(self):
        mt = Memtable()
        mt.adopt(1, [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)])
        mt.adopt(2, [(5.0, 5.0, 0.0), (6.0, 5.0, 1.0)])
        frozen = mt.snapshot()
        query = Trajectory(-1, [(0.0, 0.1, 0.0), (1.0, 0.1, 1.0)])
        result = bfmst_search(frozen, None, query, k=1)
        assert [m.trajectory_id for m in result.matches] == [1]


# ----------------------------------------------------------------------
# store: validation and lifecycle
# ----------------------------------------------------------------------
class TestStoreValidation:
    def test_create_then_open(self, tmp_path):
        with IngestStore.create(tmp_path / "s") as store:
            store.append(1, 0.0, 0.0, 1.0)
        with IngestStore.open(tmp_path / "s") as store:
            assert store.num_points == 1
            assert store.ids() == [1]

    def test_create_refuses_existing_store(self, tmp_path):
        IngestStore.create(tmp_path / "s").close()
        with pytest.raises(StorageError):
            IngestStore.create(tmp_path / "s")

    def test_open_refuses_non_store(self, tmp_path):
        with pytest.raises(StorageError):
            IngestStore.open(tmp_path / "nothing-here")

    def test_bad_tree_kind_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            IngestStore.create(tmp_path / "s", tree="btree")

    def test_non_integer_id_rejected_before_write(self, tmp_path):
        with IngestStore.create(tmp_path / "s") as store:
            with pytest.raises(TrajectoryError):
                store.append("bus-1", 0.0, 0.0, 1.0)
            assert store.num_points == 0
            assert store.info()["wal_bytes"] == 0

    @pytest.mark.parametrize(
        "object_id", [True, False, 2**63, -(2**63) - 1],
        ids=["true", "false", "int64-max-plus-1", "int64-min-minus-1"],
    )
    def test_id_outside_int64_rejected_before_write(self, tmp_path, object_id):
        """A bool is no object id, and the WAL packs ids as int64: both
        are refused with a TrajectoryError before the log grows."""
        with IngestStore.create(tmp_path / "s") as store:
            store.append(2**63 - 1, 0.0, 0.0, 1.0)  # the largest id fits
            with pytest.raises(TrajectoryError, match="int64"):
                store.append(object_id, 0.0, 0.0, 1.0)
            assert store.num_points == 1
            assert store.info()["wal_bytes"] == WAL_RECORD_BYTES

    def test_non_finite_point_rejected_before_write(self, tmp_path):
        with IngestStore.create(tmp_path / "s") as store:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(TrajectoryError):
                    store.append(1, bad, 0.0, 1.0)
            assert store.info()["wal_bytes"] == 0

    def test_time_regression_rejected_before_write(self, tmp_path):
        with IngestStore.create(tmp_path / "s") as store:
            store.append(1, 0.0, 0.0, 5.0)
            with pytest.raises(TrajectoryError):
                store.append(1, 1.0, 1.0, 5.0)  # equal is also a regression
            with pytest.raises(TrajectoryError):
                store.append(1, 1.0, 1.0, 4.0)
            assert store.num_points == 1
            # the rejected points never reached the WAL
            assert store.info()["wal_bytes"] == WAL_RECORD_BYTES

    def test_closed_store_refuses_everything(self, tmp_path):
        store = IngestStore.create(tmp_path / "s")
        store.append(1, 0.0, 0.0, 1.0)
        store.close()
        with pytest.raises(StorageError):
            store.append(1, 1.0, 1.0, 2.0)
        with pytest.raises(StorageError):
            store.view()


# ----------------------------------------------------------------------
# store: querying, compaction, reopen
# ----------------------------------------------------------------------
class TestStoreQueries:
    def test_live_answers_match_rebuild_oracle(self, tmp_path, ingest_dataset):
        rng = random.Random(11)
        query, period = make_query(ingest_dataset, 0.3, rng)
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            want = oracle_answers(store.current_dataset(), query, period, 5)
            assert live_answers(store, query, period, 5) == want

    def test_answers_stable_across_compact_and_reopen(
        self, tmp_path, ingest_dataset
    ):
        rng = random.Random(12)
        query, period = make_query(ingest_dataset, 0.3, rng)
        events = events_of(ingest_dataset)
        half = len(events) // 2

        with IngestStore.create(tmp_path / "s") as store:
            for oid, x, y, t in events[:half]:
                store.append(oid, x, y, t)
            store.compact()
            for oid, x, y, t in events[half:]:
                store.append(oid, x, y, t)
            want = oracle_answers(store.current_dataset(), query, period, 5)
            assert live_answers(store, query, period, 5) == want
            store.compact()
            assert live_answers(store, query, period, 5) == want

        with IngestStore.open(tmp_path / "s") as store:
            assert live_answers(store, query, period, 5) == want

    def test_reopen_replays_wal_into_memtable(self, tmp_path, ingest_dataset):
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            points = store.num_points
        with IngestStore.open(tmp_path / "s") as store:
            assert store.generation_number == -1
            assert store.num_points == points
            assert store.metrics.value("ingest.wal_replayed_records") == points
            assert store.metrics.value("ingest.recoveries") == 1

    def test_compact_truncates_wal_and_bumps_generation(
        self, tmp_path, ingest_dataset
    ):
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            assert store.generation_number == -1
            assert store.compact() == 0
            assert store.generation_number == 0
            assert store.memtable_points == 0
            assert store.info()["wal_bytes"] == 0
            assert store.compact() is None  # empty memtable: nothing to do
            store.append(1, 1e6, 1e6, 1e6)
            assert store.compact() == 1

    def test_dirty_object_adopts_full_history(self, tmp_path, ingest_dataset):
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            store.compact()
            oid = store.ids()[0]
            n_before = len(store.trajectory(oid))
            store.append(oid, 0.5, 0.5, 1e9)
            # the whole history is in the memtable, not just the new point
            assert store.memtable_points == n_before + 1
            with store.view() as view:
                _gen_index, exclude = view.parts[0]
                assert exclude == frozenset({oid})

    def test_auto_compaction_threshold(self, tmp_path):
        with IngestStore.create(
            tmp_path / "s", auto_compact_points=10
        ) as store:
            for i in range(25):
                store.append(1, float(i), 0.0, float(i))
            # 25 appends / threshold 10 -> at least two compactions, and
            # adopted history must not re-trigger immediately
            assert store.metrics.value("ingest.compactions") == 2
            assert store.generation_number == 1

    def test_query_of_empty_store(self, tmp_path):
        query = Trajectory(-1, [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)])
        with IngestStore.create(tmp_path / "s") as store:
            assert live_answers(store, query, None, 3) == []


# ----------------------------------------------------------------------
# generation pinning
# ----------------------------------------------------------------------
class TestGenerationPinning:
    def test_pins_balance_unpins(self, tmp_path, ingest_dataset):
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            store.compact()
            for _ in range(5):
                with store.view():
                    pass
            assert store.metrics.value("ingest.generation_pins") == 5
            assert store.metrics.value("ingest.generation_unpins") == 5

    def test_pinned_generation_survives_compaction(
        self, tmp_path, ingest_dataset
    ):
        rng = random.Random(13)
        query, period = make_query(ingest_dataset, 0.3, rng)
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            store.compact()
            want = oracle_answers(store.current_dataset(), query, period, 3)

            view = store.view()
            pinned = view.generation_number
            # new data + compaction retires generation 0 ...
            store.append(999, 0.0, 0.0, 1.0)
            store.append(999, 1.0, 1.0, 2.0)
            store.compact()
            assert store.generation_number == pinned + 1
            # ... but the pinned view still answers from its snapshot
            got = [(m.trajectory_id, m.dissim) for m in view.kmst(query, period, 3)[0]]
            assert got == want
            view.close()
            # now the retired generation's files are gone
            assert not list(store.directory.glob(f"gen-{pinned:06d}*"))
            assert store.metrics.value("ingest.generations_retired") == 1

    def test_closed_view_refuses_queries(self, tmp_path, ingest_dataset):
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            view = store.view()
            view.close()
            with pytest.raises(StorageError):
                view.kmst(Trajectory(-1, [(0, 0, 0), (1, 1, 1)]))


# ----------------------------------------------------------------------
# LiveQueryEngine
# ----------------------------------------------------------------------
class TestLiveQueryEngine:
    def test_engine_matches_store_kmst(self, tmp_path, ingest_dataset):
        rng = random.Random(14)
        query, period = make_query(ingest_dataset, 0.3, rng)
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            want = live_answers(store, query, period, 4)
            with LiveQueryEngine(store) as engine:
                result = engine.execute(QuerySpec("mst", query, period, k=4))
                got = [(m.trajectory_id, m.dissim) for m in result.matches]
            assert got == want

    def test_engine_merges_multiple_stores(self, tmp_path, ingest_dataset):
        rng = random.Random(15)
        query, period = make_query(ingest_dataset, 0.3, rng)
        trajectories = list(ingest_dataset)
        a, b = trajectories[::2], trajectories[1::2]
        store_a = IngestStore.create(tmp_path / "a")
        store_b = IngestStore.create(tmp_path / "b")
        try:
            from repro.trajectory import TrajectoryDataset

            feed(store_a, TrajectoryDataset(a))
            feed(store_b, TrajectoryDataset(b))
            store_a.compact()
            want = oracle_answers(ingest_dataset, query, period, 5)
            with LiveQueryEngine([store_a, store_b]) as engine:
                result = engine.execute(QuerySpec("mst", query, period, k=5))
                got = [(m.trajectory_id, m.dissim) for m in result.matches]
            assert got == want
        finally:
            store_a.close()
            store_b.close()

    def test_engine_rejects_non_mst(self, tmp_path):
        with IngestStore.create(tmp_path / "s") as store:
            with LiveQueryEngine(store) as engine:
                with pytest.raises(QueryError):
                    engine.execute(
                        QuerySpec(
                            "range", Trajectory(-1, [(0, 0, 0), (1, 1, 1)]), None
                        )
                    )

    def test_run_batch(self, tmp_path, ingest_dataset):
        rng = random.Random(16)
        requests = [
            QuerySpec("mst", *make_query(ingest_dataset, 0.3, rng), k=2)
            for _ in range(3)
        ]
        with IngestStore.create(tmp_path / "s") as store:
            feed(store, ingest_dataset)
            with LiveQueryEngine(
                store, EngineConfig(executor="serial")
            ) as engine:
                batch = engine.run_batch(requests)
            assert len(batch.results) == 3
            assert batch.metrics["engine.queries.mst"] == 3
            assert engine.signature()[0][0] == -1  # nothing compacted yet
            counters = engine.counters()
            assert counters.get("ingest.generation_pins", 0) == counters.get(
                "ingest.generation_unpins", 0
            )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestIngestCli:
    def test_init_feed_query_compact_info(self, tmp_path, capsys, ingest_dataset):
        data = tmp_path / "data.json"
        write_json(ingest_dataset, data)
        root = str(tmp_path / "store")

        assert main(["ingest", "init", root]) == 0
        assert main(["ingest", "feed", root, str(data)]) == 0
        assert main(["ingest", "query", root, "--k", "3", "--seed", "5"]) == 0
        assert main(["ingest", "compact", root]) == 0
        assert main(["ingest", "info", root]) == 0

        out = capsys.readouterr().out
        assert "absorbed" in out
        assert "generation" in out
        assert "DISSIM=" in out and "pruning power" in out
        # the info verb prints a JSON document last (its opening brace
        # is the only one that starts a line)
        doc = json.loads(out[out.rfind("\n{") + 1 :])
        assert doc["points"] == sum(len(tr) for tr in ingest_dataset)
        assert doc["generation"] == 0
