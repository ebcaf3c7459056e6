"""Round-trip tests for index persistence (save/load on disk) — single
page files and sharded manifest directories, the v2 durability
guarantees (atomic commit, truncation detection, digest verification),
built-vs-loaded answer identity, read-only loading and the v1
migration path."""

import json
import os
import random

import pytest

from repro import (
    TREES,
    IngestStore,
    QueryEngine,
    QuerySpec,
    RTree3D,
    TBTree,
    Trajectory,
    bfmst_search,
    generate_gstd,
    load_index,
    save_index,
)
from repro.cli import main as cli_main
from repro.datagen import make_query
from repro.engine import ShardedQueryEngine
from repro.experiments import build_index
from repro.exceptions import IndexError_, StorageError
from repro.index import PageVerdict, fsck, fsck_index
from repro.ingest.store import MANIFEST_NAME as INGEST_MANIFEST_NAME
from repro.sharding import (
    MANIFEST_NAME,
    ShardedDataset,
    build_sharded_index,
    load_sharded_index,
    make_partitioner,
    save_sharded_index,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_gstd(15, samples_per_object=40, seed=21)


@pytest.mark.parametrize("cls", [RTree3D, TBTree])
class TestRoundTrip:
    def test_search_results_survive_reload(self, cls, dataset, tmp_path):
        index = cls()
        index.bulk_insert(dataset)
        index.finalize()
        path = tmp_path / "index.pages"
        save_index(index, path)

        loaded = load_index(path)
        rng = random.Random(4)
        for _ in range(3):
            query, period = make_query(dataset, 0.2, rng)
            got = bfmst_search(loaded, None, query, period=period, k=3).matches
            want = bfmst_search(index, None, query, period=period, k=3).matches
            assert [m.trajectory_id for m in got] == [
                m.trajectory_id for m in want
            ]
            for g, w in zip(got, want):
                assert g.dissim == pytest.approx(w.dissim)
        loaded.pagefile.close()

    def test_metadata_restored(self, cls, dataset, tmp_path):
        index = cls()
        index.bulk_insert(dataset)
        index.finalize()
        path = tmp_path / "index.pages"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.num_entries == index.num_entries
        assert loaded.num_nodes == index.num_nodes
        assert loaded.root_page == index.root_page
        assert loaded.max_speed == pytest.approx(index.max_speed)
        assert loaded.trajectory_ids == index.trajectory_ids
        assert type(loaded) is cls
        loaded.pagefile.close()

    def test_loaded_index_is_read_only(self, cls, dataset, tmp_path):
        index = cls()
        index.bulk_insert(dataset)
        path = tmp_path / "index.pages"
        save_index(index, path)
        loaded = load_index(path)
        with pytest.raises(IndexError_):
            loaded.insert(Trajectory(9999, [(0, 0, 0), (1, 1, 1)]))
        loaded.pagefile.close()


class TestTBTreeChainSurvives:
    def test_trajectory_segments_on_loaded_tree(self, dataset, tmp_path):
        index = TBTree(page_size=512)  # force multi-leaf chains
        index.bulk_insert(dataset)
        path = tmp_path / "tb.pages"
        save_index(index, path)
        loaded = load_index(path)
        some_id = next(iter(dataset)).object_id
        got = [e.segment for e in loaded.trajectory_segments(some_id)]
        assert got == list(dataset[some_id].segments())
        loaded.pagefile.close()


class TestErrorHandling:
    def test_refuses_overwrite(self, dataset, tmp_path):
        index = RTree3D()
        index.bulk_insert(dataset)
        path = tmp_path / "index.pages"
        save_index(index, path)
        with pytest.raises(StorageError):
            save_index(index, path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "index.pages"
        path.write_bytes(b"\x00" * 4096)
        with pytest.raises(StorageError):
            load_index(path)

    def test_corrupt_sidecar(self, dataset, tmp_path):
        index = RTree3D()
        index.bulk_insert(dataset)
        path = tmp_path / "index.pages"
        save_index(index, path)
        (tmp_path / "index.pages.meta.json").write_text("{oops")
        with pytest.raises(StorageError):
            load_index(path)

    def test_unknown_kind(self, dataset, tmp_path):
        index = RTree3D()
        index.bulk_insert(dataset)
        path = tmp_path / "index.pages"
        save_index(index, path)
        meta_path = tmp_path / "index.pages.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["kind"] = "btree"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StorageError):
            load_index(path)

    def test_wrong_version(self, dataset, tmp_path):
        index = RTree3D()
        index.bulk_insert(dataset)
        path = tmp_path / "index.pages"
        save_index(index, path)
        meta_path = tmp_path / "index.pages.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StorageError):
            load_index(path)


# ----------------------------------------------------------------------
# sharded manifest directories
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_world(dataset):
    sharded_ds = ShardedDataset.partition(
        dataset, make_partitioner("hash", 3)
    )
    index = build_sharded_index(sharded_ds, RTree3D, page_size=1024)
    yield dataset, sharded_ds, index
    index.close()


def _save(sharded_world, tmp_path):
    _, _, index = sharded_world
    directory = tmp_path / "shards"
    save_sharded_index(index, directory)
    return directory


@pytest.mark.parametrize("cls", [RTree3D, TBTree])
class TestShardedRoundTrip:
    def test_manifest_and_queries_survive_reload(
        self, cls, dataset, tmp_path
    ):
        sharded_ds = ShardedDataset.partition(
            dataset, make_partitioner("temporal", 3)
        )
        index = build_sharded_index(sharded_ds, cls, page_size=1024)
        directory = tmp_path / "shards"
        save_sharded_index(index, directory)

        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["num_shards"] == 3
        assert manifest["partitioner"]["kind"] == "temporal"
        assert len(manifest["shards"]) == 3
        for entry in manifest["shards"]:
            assert (directory / entry["file"]).exists()

        loaded = load_sharded_index(directory)
        try:
            assert loaded.num_shards == index.num_shards
            assert loaded.num_nodes == index.num_nodes
            assert loaded.num_entries == index.num_entries
            assert loaded.trajectory_ids == index.trajectory_ids
            assert loaded.max_speed == pytest.approx(index.max_speed)
            rng = random.Random(4)
            for _ in range(2):
                query, period = make_query(dataset, 0.2, rng)
                got = bfmst_search(loaded, None, query, period=period, k=3)
                want = bfmst_search(index, None, query, period=period, k=3)
                assert [
                    (m.trajectory_id, m.dissim) for m in got.matches
                ] == [(m.trajectory_id, m.dissim) for m in want.matches]
        finally:
            loaded.close()
            index.close()


class TestShardedIdentityAfterReload:
    def test_reloaded_equals_unsharded_tree(self, sharded_world, tmp_path):
        dataset, _, _ = sharded_world
        directory = _save(sharded_world, tmp_path)
        single = RTree3D(page_size=1024)
        single.bulk_insert(dataset)
        single.finalize()
        loaded = load_sharded_index(directory)
        try:
            rng = random.Random(9)
            for _ in range(3):
                query, period = make_query(dataset, 0.2, rng)
                got = bfmst_search(loaded, None, query, period=period, k=5)
                want = bfmst_search(single, None, query, period=period, k=5)
                assert [
                    (m.trajectory_id, m.dissim, m.error_bound, m.exact)
                    for m in got.matches
                ] == [
                    (m.trajectory_id, m.dissim, m.error_bound, m.exact)
                    for m in want.matches
                ]
        finally:
            loaded.close()


class TestShardedErrorHandling:
    def test_refuses_overwrite(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        _, _, index = sharded_world
        with pytest.raises(StorageError):
            save_sharded_index(index, directory)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StorageError):
            load_sharded_index(tmp_path / "empty")

    def test_corrupt_manifest(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        (directory / MANIFEST_NAME).write_text("{oops")
        with pytest.raises(StorageError):
            load_sharded_index(directory)

    def test_wrong_manifest_version(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["version"] = 999
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_sharded_index(directory)

    def test_missing_shard_file(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        victim = directory / manifest["shards"][1]["file"]
        victim.unlink()
        # DiskPageFile would silently create a missing file on open;
        # the loader must notice the hole first.
        with pytest.raises(StorageError, match="missing shard"):
            load_sharded_index(directory)

    def test_shard_count_mismatch(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["shards"] = manifest["shards"][:2]
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_sharded_index(directory)

    def test_entry_count_mismatch(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["shards"][0]["num_entries"] += 1
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_sharded_index(directory)

    def test_tree_kind_mismatch(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["kind"] == "rtree"
        manifest["kind"] = "tbtree"
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="sidecar says 'rtree'"):
            load_sharded_index(directory)


# ----------------------------------------------------------------------
# v2 durability: atomic commit, truncation detection, digest verify
# ----------------------------------------------------------------------
def _saved_index(dataset, tmp_path, cls=RTree3D, **kw):
    index = cls(**kw)
    index.bulk_insert(dataset)
    index.finalize()
    path = tmp_path / "index.pages"
    meta = save_index(index, path)
    return index, path, meta


class TestDurability:
    def test_save_returns_meta_with_digest(self, dataset, tmp_path):
        _, path, meta = _saved_index(dataset, tmp_path)
        assert meta["version"] == 2
        assert meta["num_pages"] * meta["page_size"] == path.stat().st_size
        sidecar = json.loads((tmp_path / "index.pages.meta.json").read_text())
        assert sidecar == meta

    def test_no_temporaries_left_behind(self, dataset, tmp_path):
        _saved_index(dataset, tmp_path)
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_failed_save_leaves_no_partial_file(self, dataset, tmp_path):
        index = RTree3D()
        index.bulk_insert(dataset)
        index.finalize()

        def boom(page_id):
            raise RuntimeError("injected read failure")

        index.pagefile.read = boom
        path = tmp_path / "index.pages"
        with pytest.raises(RuntimeError, match="injected"):
            save_index(index, path)
        # Neither a torn page file nor a stale temporary may survive.
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file_rejected(self, dataset, tmp_path):
        _, path, meta = _saved_index(dataset, tmp_path)
        os.truncate(path, path.stat().st_size - 100)  # mid-page cut
        with pytest.raises(StorageError, match="truncated"):
            load_index(path)

    def test_whole_page_truncation_rejected(self, dataset, tmp_path):
        _, path, meta = _saved_index(dataset, tmp_path)
        os.truncate(path, path.stat().st_size - meta["page_size"])
        with pytest.raises(StorageError, match="truncated"):
            load_index(path)

    def test_verify_happy_path(self, dataset, tmp_path):
        index, path, _ = _saved_index(dataset, tmp_path)
        loaded = load_index(path, verify=True)
        rng = random.Random(11)
        query, period = make_query(dataset, 0.2, rng)
        got = bfmst_search(loaded, None, query, period=period, k=3).matches
        want = bfmst_search(index, None, query, period=period, k=3).matches
        assert [m.trajectory_id for m in got] == [
            m.trajectory_id for m in want
        ]
        loaded.pagefile.close()

    def test_verify_detects_tamper(self, dataset, tmp_path):
        _, path, _ = _saved_index(dataset, tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(path.stat().st_size // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(StorageError, match="digest"):
            load_index(path, verify=True)


# ----------------------------------------------------------------------
# built vs loaded: the saved-then-loaded index answers exactly as the
# in-memory one it was saved from, for both trees and both partitioners
# ----------------------------------------------------------------------
def _answers(engine, dataset, seed, n):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        query, period = make_query(dataset, 0.2, rng)
        out.append(
            engine.execute(QuerySpec("mst", query, period, k=5)).answer_json()
        )
    return out


@pytest.mark.parametrize("cls", [RTree3D, TBTree])
class TestBuiltVsLoadedIdentity:
    def test_single_index_loaded_equals_built(self, cls, dataset, tmp_path):
        index = cls()
        index.bulk_insert(dataset)
        index.finalize()
        path = tmp_path / "index.pages"
        save_index(index, path, signatures=True)
        with QueryEngine(index) as built:
            want = _answers(built, dataset, 7, 3)
        with QueryEngine.open(path) as loaded:
            try:
                assert _answers(loaded, dataset, 7, 3) == want
                assert loaded.index.pagefile.stats.physical_reads > 0
            finally:
                loaded.index.pagefile.close()

    @pytest.mark.parametrize("part", ["hash", "temporal"])
    def test_sharded_loaded_equals_built(self, cls, part, dataset, tmp_path):
        index = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner(part, 3)),
            cls,
            page_size=1024,
        )
        directory = tmp_path / "shards"
        save_sharded_index(index, directory, signatures=True)
        with ShardedQueryEngine(index) as built:
            want = _answers(built, dataset, 13, 2)
        with ShardedQueryEngine.open(directory, verify=True) as loaded:
            try:
                assert _answers(loaded, dataset, 13, 2) == want
            finally:
                loaded.index.close()


# ----------------------------------------------------------------------
# every door that opens a saved index opens it read-only
# ----------------------------------------------------------------------
def _saved_files(dataset, tmp_path, door):
    """The saved target a door opens, and its index/shard/generation
    files (pages, ``.meta.json``, ``.sig``)."""
    if door in ("load_sharded_index", "ShardedQueryEngine.open"):
        sharded = build_sharded_index(
            ShardedDataset.partition(dataset, make_partitioner("hash", 2)),
            RTree3D,
        )
        target = tmp_path / "shards"
        save_sharded_index(sharded, target, signatures=True)
        return target, sorted(target.iterdir())
    if door == "IngestStore":
        target = tmp_path / "store"
        with IngestStore.create(target) as store:
            store.extend(
                sorted(
                    ((tr.object_id, p.x, p.y, p.t) for tr in dataset for p in tr),
                    key=lambda e: e[3],
                )
            )
            store.compact()
        return target, sorted(target.glob("gen-*"))
    target = tmp_path / "index.pages"
    index = RTree3D()
    index.bulk_insert(dataset)
    save_index(index, target, signatures=True)
    return target, sorted(tmp_path.glob("index.pages*"))


def _open_door(door, target):
    """``(indexes, search, close)`` for one way of opening ``target``."""
    if door == "load_index":
        index = load_index(target)
        return (
            [index],
            lambda q, p: bfmst_search(index, None, q, period=p, k=3),
            index.pagefile.close,
        )
    if door == "load_sharded_index":
        sharded = load_sharded_index(target)
        return (
            sharded.shards,
            lambda q, p: bfmst_search(sharded, None, q, period=p, k=3),
            sharded.close,
        )
    if door == "IngestStore":
        store = IngestStore.open(target)
        return (
            [store._generation.index],
            lambda q, p: store.kmst(q, p, k=3),
            store.close,
        )
    opener = QueryEngine if door == "QueryEngine.open" else ShardedQueryEngine
    engine = opener.open(target)
    indexes = getattr(engine.index, "shards", [engine.index])

    def close():
        engine.close()
        for index in indexes:
            index.pagefile.close()

    return (
        indexes,
        lambda q, p: engine.execute(QuerySpec("mst", q, p, k=3)),
        close,
    )


@pytest.mark.parametrize(
    "door",
    [
        "load_index",
        "load_sharded_index",
        "QueryEngine.open",
        "ShardedQueryEngine.open",
        "IngestStore",
    ],
)
def test_saved_index_loads_read_only(door, dataset, tmp_path):
    """A loaded index is read-only whatever opened it: the page file
    refuses writes, the buffer is in read-only mode, and loading,
    querying and closing issue no fsync.  The files are mode 0444, so
    a non-root run also proves that nothing asks for write access."""
    target, files = _saved_files(dataset, tmp_path, door)
    for path in files:
        path.chmod(0o444)
    try:
        indexes, search, close = _open_door(door, target)
        query, period = make_query(dataset, 0.2, random.Random(5))
        search(query, period)
        close()
        for index in indexes:
            assert index.buffer.read_only is True
            assert index.pagefile.writable is False
            with pytest.raises(StorageError, match="read-only"):
                index.pagefile.allocate()
            with pytest.raises(StorageError, match="read-only"):
                index.pagefile.write(0, b"x")
            assert index.pagefile.stats.fsyncs == 0
            assert index.pagefile.stats.physical_writes == 0
        assert sum(ix.pagefile.stats.physical_reads for ix in indexes) > 0
    finally:
        for path in files:
            path.chmod(0o644)


# ----------------------------------------------------------------------
# v1 files are refused
# ----------------------------------------------------------------------
def _downgrade_to_v1(path, meta):
    """Mark a saved index as v1 the way a v1 writer did: a
    ``"version": 1`` sidecar without the v2 digest fields (the sidecar
    is read first, so the pages are never looked at)."""
    v1_meta = {
        k: v for k, v in meta.items() if k not in ("num_pages", "pages_sha256")
    }
    v1_meta["version"] = 1
    path.with_name(path.name + ".meta.json").write_text(json.dumps(v1_meta))


class TestV1Migration:
    @pytest.mark.parametrize("cls", [RTree3D, TBTree])
    def test_v1_file_rejected_with_migration_pointer(
        self, cls, dataset, tmp_path
    ):
        _, path, meta = _saved_index(dataset, tmp_path, cls=cls)
        _downgrade_to_v1(path, meta)
        with pytest.raises(StorageError, match="v1 index file.*version 2"):
            load_index(path)


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
class TestFsck:
    def test_clean_index_reports_ok(self, dataset, tmp_path):
        _, path, meta = _saved_index(dataset, tmp_path)
        report = fsck_index(path)
        assert report.ok
        assert report.errors == []
        assert report.bad_pages == []
        assert len(report.pages) == meta["num_pages"]
        assert "OK" in report.summary()

    def test_kill_a_byte_anywhere_is_detected(self, dataset, tmp_path):
        """The on-disk half of the kill-a-byte property: flip one byte
        at sampled offsets across the whole persisted file and fsck must
        flag the index every time (digest mismatch and/or a bad page)."""
        _, path, _ = _saved_index(dataset, tmp_path)
        pristine = path.read_bytes()
        rng = random.Random(99)
        offsets = rng.sample(range(len(pristine)), 24)
        for off in offsets:
            mutated = bytearray(pristine)
            mutated[off] ^= 0xFF
            path.write_bytes(bytes(mutated))
            report = fsck_index(path)
            assert not report.ok, f"flip at offset {off} went undetected"
            assert report.errors or report.bad_pages
        path.write_bytes(pristine)
        assert fsck_index(path).ok

    def test_missing_sidecar_is_an_error(self, dataset, tmp_path):
        _, path, _ = _saved_index(dataset, tmp_path)
        (tmp_path / "index.pages.meta.json").unlink()
        report = fsck_index(path)
        assert not report.ok
        assert any("sidecar" in e for e in report.errors)

    def test_unreadable_sidecar_leaves_the_pages_unjudged(
        self, dataset, tmp_path
    ):
        """Only the sidecar knows the page size: without it fsck names
        the sidecar's error and judges no page, rather than walking a
        512-byte index in 4096-byte steps and calling every page bad."""
        _, path, meta = _saved_index(dataset, tmp_path, cls=TBTree,
                                     page_size=512)
        assert meta["num_pages"] > 1
        meta_file = tmp_path / "index.pages.meta.json"
        raw = bytearray(meta_file.read_bytes())
        raw[len(raw) // 2] = 0xFF
        meta_file.write_bytes(bytes(raw))
        report = fsck_index(path)
        assert not report.ok
        assert report.pages == []
        assert any(meta_file.name in e for e in report.errors)
        assert any("page size unknown" in e for e in report.errors)

    def test_missing_page_file_is_an_error(self, dataset, tmp_path):
        _, path, _ = _saved_index(dataset, tmp_path)
        path.unlink()
        report = fsck_index(path)
        assert not report.ok
        assert any("missing page file" in e for e in report.errors)

    def test_truncation_is_an_error(self, dataset, tmp_path):
        _, path, _ = _saved_index(dataset, tmp_path)
        os.truncate(path, path.stat().st_size - 100)
        report = fsck_index(path)
        assert not report.ok
        assert any("truncated" in e for e in report.errors)

    def test_fsck_dispatches_on_directories(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        report = fsck(directory)
        assert report.ok
        assert len(report.shards) == 3
        assert all(s.ok for s in report.shards)

    def test_sharded_corruption_is_localised(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        victim = directory / manifest["shards"][1]["file"]
        with open(victim, "r+b") as fh:
            fh.seek(20)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        report = fsck(directory)
        assert not report.ok
        verdicts = [s.ok for s in report.shards]
        assert verdicts.count(False) == 1
        assert "CORRUPT" in report.summary()

    def test_sharded_missing_shard_file(self, sharded_world, tmp_path):
        directory = _save(sharded_world, tmp_path)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        (directory / manifest["shards"][0]["file"]).unlink()
        report = fsck(directory)
        assert not report.ok
        assert any("missing shard" in e for e in report.errors)


    @pytest.mark.parametrize("cls", [RTree3D, TBTree])
    def test_zeroed_page_is_bad(self, cls, dataset, tmp_path):
        """Every page a writer allocates holds a framed node, so an
        all-zero page is damage, not a free slot."""
        _, path, meta = _saved_index(dataset, tmp_path, cls=cls)
        page_size = meta["page_size"]
        assert meta["num_pages"] > 3
        with open(path, "r+b") as fh:
            fh.seek(3 * page_size)
            fh.write(bytes(page_size))
        report = fsck_index(path)
        assert not report.ok
        assert report.bad_pages == [PageVerdict(3, "bad", "page 3: zeroed page")]
        assert "zeroed page" in report.summary()
        assert "free" not in report.summary()


# ----------------------------------------------------------------------
# a broken .meta.json is a StorageError naming the file and the key
# ----------------------------------------------------------------------
def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


BROKEN_META = {
    "non-utf8": (lambda doc, raw: raw[:1] + b"\xff" + raw[1:], None),
    "no-root_page": (
        lambda doc, raw: json.dumps(_without(doc, "root_page")).encode(),
        "'root_page'",
    ),
    "json-list": (lambda doc, raw: json.dumps([doc]).encode(), None),
    "page_size-string": (
        lambda doc, raw: json.dumps({**doc, "page_size": "512"}).encode(),
        "'page_size'",
    ),
    "page_size-zero": (
        lambda doc, raw: json.dumps({**doc, "page_size": 0}).encode(),
        "'page_size'",
    ),
}

META_DOORS = {
    "load_index": lambda path, cap: _raised(StorageError, load_index, path),
    "QueryEngine.open": lambda path, cap: _raised(
        StorageError, QueryEngine.open, path
    ),
    "fsck": lambda path, cap: _fsck_exit_1(path, cap),
}


@pytest.mark.parametrize("door", META_DOORS)
@pytest.mark.parametrize("case", BROKEN_META)
def test_broken_meta_is_a_storage_error(case, door, dataset, tmp_path, capsys):
    """``load_index``, ``QueryEngine.open`` and ``repro fsck`` read the
    sidecar through one reader: a document that is not UTF-8, not an
    object, lacks a key or holds a page size that is not a positive
    int is refused with the file's name (and the key's), never with an
    untyped error or a traceback."""
    _, path, _ = _saved_index(dataset, tmp_path)
    meta_file = path.with_name(path.name + ".meta.json")
    raw = meta_file.read_bytes()
    mutate, key = BROKEN_META[case]
    meta_file.write_bytes(mutate(json.loads(raw), raw))
    text = META_DOORS[door](path, capsys)
    assert meta_file.name in text
    if key is not None:
        assert key in text


# ----------------------------------------------------------------------
# retired tree kinds: every door refuses them with the registry's message
# ----------------------------------------------------------------------
def _set_field(path, key, value):
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))


def _retired_index(kind, dataset, tmp_path):
    _, path, _ = _saved_index(dataset, tmp_path)
    _set_field(path.with_name(path.name + ".meta.json"), "kind", kind)
    return path


def _saved_shards(dataset, tmp_path):
    sharded = build_sharded_index(
        ShardedDataset.partition(dataset, make_partitioner("hash", 2)), RTree3D
    )
    directory = tmp_path / "shards"
    save_sharded_index(sharded, directory)
    sharded.close()
    return directory


def _retired_shards(kind, dataset, tmp_path):
    directory = _saved_shards(dataset, tmp_path)
    _set_field(directory / MANIFEST_NAME, "kind", kind)
    return directory


def _saved_store(dataset, tmp_path):
    """A store with one generation: its directory and the generation's
    page file."""
    directory = tmp_path / "store"
    with IngestStore.create(directory) as store:
        store.extend(
            sorted(
                ((tr.object_id, p.x, p.y, p.t) for tr in dataset for p in tr),
                key=lambda e: e[3],
            )
        )
        generation = store.compact()
    return directory, directory / f"gen-{generation:06d}.pages"


def _retired_store(kind, dataset, tmp_path):
    """A store with one generation, as a build that knew ``kind`` left
    it: the manifest and the generation's sidecar both record it."""
    directory, pages = _saved_store(dataset, tmp_path)
    _set_field(directory / INGEST_MANIFEST_NAME, "tree", kind)
    _set_field(pages.with_name(pages.name + ".meta.json"), "kind", kind)
    return directory, pages


def _raised(exc_type, call, *args):
    with pytest.raises(exc_type) as exc:
        call(*args)
    return str(exc.value)


def _fsck_exit_1(path, capsys):
    assert cli_main(["fsck", str(path)]) == 1
    return capsys.readouterr().out


def _argparse_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


RETIRED_DOORS = {
    "load_index": lambda kind, ds, tmp, cap: _raised(
        StorageError, load_index, _retired_index(kind, ds, tmp)
    ),
    "fsck-index": lambda kind, ds, tmp, cap: _fsck_exit_1(
        _retired_index(kind, ds, tmp), cap
    ),
    "load_sharded_index": lambda kind, ds, tmp, cap: _raised(
        StorageError, load_sharded_index, _retired_shards(kind, ds, tmp)
    ),
    "fsck-shards": lambda kind, ds, tmp, cap: _fsck_exit_1(
        _retired_shards(kind, ds, tmp), cap
    ),
    "IngestStore.open": lambda kind, ds, tmp, cap: _raised(
        StorageError, IngestStore.open, _retired_store(kind, ds, tmp)[0]
    ),
    "fsck-generation": lambda kind, ds, tmp, cap: _fsck_exit_1(
        _retired_store(kind, ds, tmp)[1], cap
    ),
    "IngestStore.create": lambda kind, ds, tmp, cap: _raised(
        StorageError, lambda: IngestStore.create(tmp / "new", tree=kind)
    ),
    "repro-build": lambda kind, ds, tmp, cap: _argparse_exit_2(
        ["build", str(tmp / "d.csv"), str(tmp / "i.pages"), "--tree", kind],
        cap,
    ),
    "build_index": lambda kind, ds, tmp, cap: _raised(
        ValueError, build_index, ds, kind
    ),
}


@pytest.mark.parametrize("kind", ["rstar", "strtree"])
@pytest.mark.parametrize("door", RETIRED_DOORS)
def test_retired_tree_kinds_are_refused_at_every_door(
    door, kind, dataset, tmp_path, capsys
):
    """The R*-tree and the STR-tree are gone.  A file that records one,
    or a caller that names one, gets a typed refusal naming the kind
    and the accepted ones: ``StorageError`` from the storage doors,
    exit 1 from ``repro fsck``, argparse's exit 2 from ``--tree``, and
    ``ValueError`` from ``build_index``."""
    text = RETIRED_DOORS[door](kind, dataset, tmp_path, capsys)
    assert repr(kind) in text
    assert all(repr(name) in text for name in TREES)


# ----------------------------------------------------------------------
# a broken manifest is a StorageError naming the file and the key
# ----------------------------------------------------------------------
def _with_field(key, value):
    return lambda doc, raw: json.dumps({**doc, key: value}).encode()


def _with_record_field(key, value):
    def mutate(doc, raw):
        records = [{**r, key: value} for r in doc["shards"]]
        return json.dumps({**doc, "shards": records}).encode()

    return mutate


#: Damage both manifests share: ``(mutate(doc, raw) -> bytes, key)``.
BROKEN_JSON = {
    "non-utf8": (lambda doc, raw: raw[:1] + b"\xff" + raw[1:], None),
    "json-list": (lambda doc, raw: json.dumps([doc]).encode(), None),
}

BROKEN_SHARD_MANIFEST = {
    **BROKEN_JSON,
    "no-num_shards": (
        lambda doc, raw: json.dumps(_without(doc, "num_shards")).encode(),
        "'num_shards'",
    ),
    "num_shards-float": (_with_field("num_shards", 2.0), "'num_shards'"),
    "record-not-object": (
        lambda doc, raw: json.dumps({**doc, "shards": [1, 2]}).encode(),
        "shard record 0",
    ),
    "record-file-int": (_with_record_field("file", 5), "'file'"),
}

SHARD_DOORS = {
    "load_sharded_index": lambda d, cap: _raised(
        StorageError, load_sharded_index, d
    ),
    "ShardedQueryEngine.open": lambda d, cap: _raised(
        StorageError, ShardedQueryEngine.open, d
    ),
    "fsck": lambda d, cap: _fsck_exit_1(d, cap),
    "shard-inspect": lambda d, cap: _cli_error(["shard", "inspect", str(d)], cap),
}


def _cli_error(argv, capsys):
    assert cli_main(argv) == 1
    return capsys.readouterr().err


@pytest.mark.parametrize("door", SHARD_DOORS)
@pytest.mark.parametrize("case", BROKEN_SHARD_MANIFEST)
def test_broken_shard_manifest_is_a_storage_error(
    case, door, dataset, tmp_path, capsys
):
    """A shard directory's ``manifest.json`` is read through the same
    typed reader as a ``.meta.json``: not UTF-8, not an object, a
    missing or ill-typed ``num_shards`` or a shard record that is not an
    object with a string ``file`` is refused with the file's name (and
    the key's), never with an untyped error or a traceback."""
    directory = _saved_shards(dataset, tmp_path)
    manifest = directory / MANIFEST_NAME
    raw = manifest.read_bytes()
    mutate, key = BROKEN_SHARD_MANIFEST[case]
    manifest.write_bytes(mutate(json.loads(raw), raw))
    text = SHARD_DOORS[door](directory, capsys)
    assert str(manifest) in text
    if key is not None:
        assert key in text


BROKEN_STORE_MANIFEST = {
    **BROKEN_JSON,
    "no-page_size": (
        lambda doc, raw: json.dumps(_without(doc, "page_size")).encode(),
        "'page_size'",
    ),
    "page_size-string": (_with_field("page_size", "4096"), "'page_size'"),
    "wal_seq-float": (_with_field("wal_seq", 1.5), "'wal_seq'"),
    "generation-string": (
        lambda doc, raw: json.dumps(
            {**doc, "generation": str(doc["generation"])}
        ).encode(),
        "'generation'",
    ),
    "no-wal": (
        lambda doc, raw: json.dumps(_without(doc, "wal")).encode(),
        "'wal'",
    ),
    "wal-int": (_with_field("wal", 5), "'wal'"),
}


@pytest.mark.parametrize("case", BROKEN_STORE_MANIFEST)
def test_broken_store_manifest_is_a_storage_error(case, dataset, tmp_path):
    """An ingest store's ``MANIFEST.json`` goes through the same typed
    reader: ``IngestStore.open`` refuses a damaged one with a
    ``StorageError`` naming the file (and the key)."""
    directory, _pages = _saved_store(dataset, tmp_path)
    manifest = directory / INGEST_MANIFEST_NAME
    raw = manifest.read_bytes()
    mutate, key = BROKEN_STORE_MANIFEST[case]
    manifest.write_bytes(mutate(json.loads(raw), raw))
    text = _raised(StorageError, IngestStore.open, directory)
    assert str(manifest) in text
    if key is not None:
        assert key in text


@pytest.mark.parametrize("kind", ["round_robin", "spatial"])
def test_retired_partitioner_kinds_still_load(kind, dataset, tmp_path):
    """The manifest's ``partitioner`` block is metadata a loaded
    directory never rebuilds from: a directory written by a build that
    still had the round-robin or spatial partitioner loads, passes
    fsck and answers exactly as it did before the kind was rewritten."""
    sharded = build_sharded_index(
        ShardedDataset.partition(dataset, make_partitioner("temporal", 3)),
        TBTree,
        page_size=1024,
    )
    directory = tmp_path / "shards"
    save_sharded_index(sharded, directory, signatures=True)
    sharded.close()

    def answers():
        with ShardedQueryEngine.open(directory) as engine:
            try:
                return _answers(engine, dataset, 17, 3)
            finally:
                engine.index.close()

    before = answers()
    manifest = directory / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    doc["partitioner"]["kind"] = kind
    manifest.write_text(json.dumps(doc, indent=2))

    loaded = load_sharded_index(directory, verify=True)
    assert loaded.partitioner_params["kind"] == kind
    loaded.close()
    assert fsck(directory).ok
    assert answers() == before
