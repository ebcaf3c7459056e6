"""Failure injection: corrupt pages, starved buffers, disk-backed
operation, and degenerate-but-legal inputs must all either work or
fail loudly with the library's own exceptions — never wrong answers or
silent corruption."""

import random

import pytest

from repro import RTree3D, TBTree, Trajectory, generate_gstd
from repro.search.bfmst import bfmst_search
from repro.search.linear_scan import linear_scan_kmst
from repro.datagen import make_query
from repro.exceptions import IndexError_, ReproError, StorageError
from repro.storage import DiskPageFile, InMemoryPageFile, LRUBufferManager


class TestCorruptPages:
    def test_corrupt_node_kind_detected(self, small_dataset):
        index = RTree3D()
        index.bulk_insert(small_dataset)
        index.finalize()
        # stomp on the root page behind the buffer's back; since v2
        # the page frame (magic/CRC) catches this before node parsing
        raw = bytearray(index.pagefile.read(index.root_page))
        raw[0] = 0xEE
        index.pagefile.write(index.root_page, bytes(raw))
        index.buffer.drop()
        with pytest.raises(StorageError):
            index.read_node(index.root_page)

    def test_truncated_entry_count_detected(self, small_dataset):
        index = RTree3D()
        index.bulk_insert(small_dataset)
        index.finalize()
        raw = bytearray(index.pagefile.read(index.root_page))
        raw[18] = 0xFF  # entry count bytes inside the framed payload
        raw[19] = 0xFF
        index.pagefile.write(index.root_page, bytes(raw))
        index.buffer.drop()
        with pytest.raises(StorageError):
            index.read_node(index.root_page)

    def test_all_failures_are_repro_errors(self, small_dataset):
        """Callers can catch the library's base class."""
        index = RTree3D()
        index.bulk_insert(small_dataset)
        index.finalize()
        raw = bytearray(index.pagefile.read(index.root_page))
        raw[0] = 0xEE
        index.pagefile.write(index.root_page, bytes(raw))
        index.buffer.drop()
        with pytest.raises(ReproError):
            index.read_node(index.root_page)


class TestStarvedBuffer:
    @pytest.mark.parametrize("cls", [RTree3D, TBTree])
    def test_query_correct_with_single_page_buffer(self, cls, tiny_dataset):
        """A buffer of capacity 1 thrashes but must not change any
        answer."""
        index = cls()
        index.bulk_insert(tiny_dataset)
        index.buffer.flush(index._serializer)
        index.buffer.capacity = 1
        index.buffer.drop()
        rng = random.Random(5)
        query, period = make_query(tiny_dataset, 0.2, rng)
        got, stats = bfmst_search(index, query, period, k=3)
        want = linear_scan_kmst(tiny_dataset, query, period, k=3, exact=True)
        assert [m.trajectory_id for m in got] == [
            m.trajectory_id for m in want
        ]
        assert stats.buffer_misses > stats.buffer_hits  # it really thrashed


class TestDiskBackedIndex:
    def test_build_and_query_directly_on_disk(self, tiny_dataset, tmp_path):
        """The whole lifecycle on a real file, no in-memory stage."""
        pagefile = DiskPageFile.create(tmp_path / "native.pages")
        index = RTree3D(pagefile=pagefile)
        index.bulk_insert(tiny_dataset)
        index.finalize()
        rng = random.Random(8)
        query, period = make_query(tiny_dataset, 0.2, rng)
        got, _ = bfmst_search(index, query, period, k=2)
        want = linear_scan_kmst(tiny_dataset, query, period, k=2, exact=True)
        assert [m.trajectory_id for m in got] == [
            m.trajectory_id for m in want
        ]
        assert pagefile.stats.physical_writes > 0
        pagefile.close()


class TestDegenerateInputs:
    def test_stationary_objects(self):
        """Objects that never move (zero speed, zero V_max)."""
        ds = [
            Trajectory(i, [(i * 1.0, 0.0, 0.0), (i * 1.0, 0.0, 10.0)])
            for i in range(5)
        ]
        index = RTree3D()
        for tr in ds:
            index.insert(tr)
        index.finalize()
        query = Trajectory(-1, [(0.2, 0.0, 2.0), (0.2, 0.0, 8.0)])
        got, _ = bfmst_search(index, query, (2.0, 8.0), k=2)
        assert [m.trajectory_id for m in got] == [0, 1]
        assert index.max_speed == 0.0

    def test_coincident_objects(self):
        """Several objects on exactly the same path: stable tie-break
        by id, all dissimilarities zero."""
        path = [(0.0, 0.0, 0.0), (5.0, 5.0, 10.0)]
        index = RTree3D()
        for i in range(4):
            index.insert(Trajectory(i, path))
        index.finalize()
        query = Trajectory(-1, path)
        got, _ = bfmst_search(index, query, (0.0, 10.0), k=4)
        assert [m.trajectory_id for m in got] == [0, 1, 2, 3]
        assert all(m.dissim == pytest.approx(0.0, abs=1e-12) for m in got)

    def test_two_sample_trajectories(self):
        """Minimum-size trajectories everywhere."""
        index = TBTree()
        rng = random.Random(0)
        for i in range(20):
            x, y = rng.random(), rng.random()
            index.insert(
                Trajectory(i, [(x, y, 0.0), (x + 0.1, y - 0.1, 10.0)])
            )
        index.finalize()
        query = Trajectory(-1, [(0.5, 0.5, 0.0), (0.6, 0.4, 10.0)])
        got, _ = bfmst_search(index, query, (0.0, 10.0), k=3)
        assert len(got) == 3

    def test_very_long_thin_world(self):
        """Everything on one line (zero-volume MBBs throughout)."""
        index = RTree3D(page_size=512)
        for i in range(30):
            index.insert(
                Trajectory(
                    i,
                    [(float(j), 0.0, float(j) + i * 0.001) for j in range(12)],
                )
            )
        index.finalize()
        ds_query = Trajectory(-1, [(3.0, 0.0, 3.5), (6.0, 0.0, 6.5)])
        got, stats = bfmst_search(index, ds_query, (3.5, 6.5), k=1)
        assert len(got) == 1
        assert stats.node_accesses > 0
