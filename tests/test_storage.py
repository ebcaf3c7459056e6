"""Tests for the paged-storage layer: page files (memory, disk),
the checksummed page format, the LRU buffer manager (including its
read-only mode), and I/O accounting."""

import threading

import pytest

from repro.exceptions import ChecksumError, PageOverflowError, StorageError
from repro.storage import (
    PAGE_SIZE_DEFAULT,
    DiskPageFile,
    InMemoryPageFile,
    IOStats,
    LRUBufferManager,
    frame_page,
    page_payload_capacity,
    unframe_page,
    verify_page,
)


class TestIOStats:
    def test_snapshot_and_diff(self):
        s = IOStats()
        s.physical_reads = 5
        s.buffer_hits = 2
        snap = s.snapshot()
        s.physical_reads = 9
        s.buffer_hits = 3
        d = s.diff(snap)
        assert d.physical_reads == 4
        assert d.buffer_hits == 1

    def test_hit_ratio(self):
        s = IOStats(buffer_hits=3, buffer_misses=1)
        assert s.hit_ratio == 0.75
        assert IOStats().hit_ratio == 0.0

    def test_reset(self):
        s = IOStats(physical_reads=3)
        s.reset()
        assert s.physical_reads == 0


class TestInMemoryPageFile:
    def test_allocate_read_write(self):
        pf = InMemoryPageFile(page_size=256)
        pid = pf.allocate()
        pf.write(pid, b"hello")
        data = pf.read(pid)
        assert data.startswith(b"hello")
        assert len(data) == 256

    def test_out_of_range_rejected(self):
        pf = InMemoryPageFile(page_size=256)
        with pytest.raises(StorageError):
            pf.read(0)
        pf.allocate()
        with pytest.raises(StorageError):
            pf.write(5, b"x")

    def test_oversized_payload_rejected(self):
        pf = InMemoryPageFile(page_size=128)
        pid = pf.allocate()
        with pytest.raises(PageOverflowError):
            pf.write(pid, b"x" * 129)

    def test_stats_count_physical_io(self):
        pf = InMemoryPageFile(page_size=128)
        pid = pf.allocate()
        pf.write(pid, b"a")
        pf.read(pid)
        pf.read(pid)
        assert pf.stats.physical_writes == 1
        assert pf.stats.physical_reads == 2

    def test_size_accounting(self):
        pf = InMemoryPageFile(page_size=1024)
        for _ in range(1024):
            pf.allocate()
        assert pf.size_bytes() == 1024 * 1024
        assert pf.size_mb() == pytest.approx(1.0)

    def test_tiny_page_size_rejected(self):
        with pytest.raises(StorageError):
            InMemoryPageFile(page_size=16)

    def test_default_page_size_is_paper_setup(self):
        assert InMemoryPageFile().page_size == PAGE_SIZE_DEFAULT == 4096


class TestDiskPageFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pages.bin"
        with DiskPageFile.create(path, page_size=256) as pf:
            pid = pf.allocate()
            pf.write(pid, b"persisted")
        with DiskPageFile(path, page_size=256) as pf:
            assert pf.num_pages == 1
            assert pf.read(0).startswith(b"persisted")

    def test_wrong_page_size_on_reopen_rejected(self, tmp_path):
        path = tmp_path / "pages.bin"
        with DiskPageFile.create(path, page_size=256) as pf:
            pf.allocate()
        with pytest.raises(StorageError):
            DiskPageFile(path, page_size=100)

    def test_out_of_range(self, tmp_path):
        with DiskPageFile.create(tmp_path / "p.bin", page_size=256) as pf:
            with pytest.raises(StorageError):
                pf.read(0)

    def test_reopened_file_is_read_only(self, tmp_path):
        path = tmp_path / "pages.bin"
        with DiskPageFile.create(path, page_size=256) as pf:
            assert pf.writable is True
            pf.write(pf.allocate(), b"x")
        with DiskPageFile(path, page_size=256) as pf:
            assert pf.writable is False
            with pytest.raises(StorageError, match="read-only"):
                pf.write(0, b"y")
            with pytest.raises(StorageError, match="read-only"):
                pf.allocate()
            assert pf.num_pages == 1
            assert pf.stats.physical_writes == 0
        assert path.read_bytes().startswith(b"x")

    def test_read_only_close_does_not_fsync(self, tmp_path):
        path = tmp_path / "pages.bin"
        with DiskPageFile.create(path, page_size=256) as pf:
            pf.allocate()
        pf = DiskPageFile(path, page_size=256)
        pf.read(0)
        pf.flush(fsync=True)
        pf.close()
        assert pf.stats.fsyncs == 0
        assert pf.stats.physical_reads == 1

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="no such page file"):
            DiskPageFile(tmp_path / "nope.bin", page_size=256)
        assert not (tmp_path / "nope.bin").exists()

    def test_empty_file_ok(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with DiskPageFile(path, page_size=256) as pf:
            assert pf.num_pages == 0
            with pytest.raises(StorageError):
                pf.read(0)

    def test_create_truncates(self, tmp_path):
        path = tmp_path / "pages.bin"
        path.write_bytes(b"\x01" * 512)
        with DiskPageFile.create(path, page_size=256) as pf:
            assert pf.num_pages == 0
        assert path.stat().st_size == 0


class TestLRUBufferManager:
    @staticmethod
    def make(capacity=2, page_size=256):
        pf = InMemoryPageFile(page_size=page_size)
        return pf, LRUBufferManager(pf, capacity=capacity)

    def test_capacity_validation(self):
        pf = InMemoryPageFile(page_size=256)
        with pytest.raises(StorageError):
            LRUBufferManager(pf, capacity=0)

    def test_hit_and_miss_accounting(self):
        pf, buf = self.make()
        pid = pf.allocate()
        pf.write(pid, b"\x07" * 10)
        loader = lambda data: data[0]
        assert buf.get(pid, loader) == 7
        assert buf.get(pid, loader) == 7
        assert pf.stats.buffer_misses == 1
        assert pf.stats.buffer_hits == 1
        assert pf.stats.logical_reads == 2

    def test_lru_eviction_order(self):
        pf, buf = self.make(capacity=2)
        pids = [pf.allocate() for _ in range(3)]
        for pid in pids:
            pf.write(pid, bytes([pid + 1]))
        loader = lambda data: data[0]
        ser = lambda obj: bytes([obj])
        buf.get(pids[0], loader, ser)
        buf.get(pids[1], loader, ser)
        buf.get(pids[0], loader, ser)  # refresh 0
        buf.get(pids[2], loader, ser)  # evicts 1 (LRU)
        assert buf.resident(pids[0])
        assert not buf.resident(pids[1])
        assert buf.resident(pids[2])
        assert pf.stats.evictions == 1

    def test_dirty_writeback_on_eviction(self):
        pf, buf = self.make(capacity=1)
        a = pf.allocate()
        b = pf.allocate()
        ser = lambda obj: bytes(obj)
        buf.put(a, bytearray(b"\x01\x02"), ser, dirty=True)
        buf.put(b, bytearray(b"\x03"), ser, dirty=True)  # evicts a
        assert pf.read(a).startswith(b"\x01\x02")

    def test_flush_writes_dirty_pages(self):
        pf, buf = self.make(capacity=4)
        a = pf.allocate()
        ser = lambda obj: bytes(obj)
        buf.put(a, bytearray(b"\x09"), ser, dirty=True)
        written = buf.flush()
        assert written == 1
        assert pf.read(a)[0] == 9
        # second flush is a no-op
        assert buf.flush() == 0

    def test_mark_dirty_requires_residency(self):
        pf, buf = self.make()
        with pytest.raises(StorageError):
            buf.mark_dirty(0)

    def test_drop_clears_without_writeback(self):
        pf, buf = self.make(capacity=4)
        a = pf.allocate()
        ser = lambda obj: bytes(obj)
        buf.put(a, bytearray(b"\x09"), ser, dirty=True)
        buf.drop()
        assert len(buf) == 0
        assert pf.read(a)[0] == 0  # never written

    def test_resize_to_fraction_policy(self):
        pf, buf = self.make(capacity=5000)
        for _ in range(200):
            pf.allocate()
        cap = buf.resize_to_fraction(0.10, max_pages=1000)
        assert cap == 20
        # cap at 1000 pages for huge files
        for _ in range(20_000):
            pf.allocate()
        assert buf.resize_to_fraction(0.10, max_pages=1000) == 1000
        # floor for tiny files
        pf2 = InMemoryPageFile(page_size=256)
        buf2 = LRUBufferManager(pf2, capacity=10)
        pf2.allocate()
        assert buf2.resize_to_fraction(0.10, min_pages=8) == 8

    def test_eviction_without_serializer_for_dirty_page_fails(self):
        pf, buf = self.make(capacity=1)
        a = pf.allocate()
        b = pf.allocate()
        buf._cache[a] = object()
        buf._dirty.add(a)
        with pytest.raises(StorageError):
            buf.get(b, lambda data: data)

    def test_all_pinned_overflows_instead_of_failing(self):
        """Pinning is advisory: when every resident page is pinned the
        cache overflows its capacity rather than erroring or evicting
        a pinned page."""
        pf, buf = self.make(capacity=2)
        pids = [pf.allocate() for _ in range(4)]
        for pid in pids:
            pf.write(pid, bytes([pid + 1]))
        loader = lambda data: data[0]
        for pid in pids:
            buf.pin(pid)
            buf.get(pid, loader)
        assert len(buf) == 4  # over capacity, nothing evicted
        assert all(buf.resident(pid) for pid in pids)
        assert pf.stats.evictions == 0
        # unpinning lets the next miss shrink the cache again
        buf.unpin_all()
        extra = pf.allocate()
        pf.write(extra, b"\x09")
        buf.get(extra, loader)
        assert len(buf) <= 2

    def test_threaded_eviction_writes_back_in_order(self):
        """Concurrent updates through a tiny locked buffer: every
        page's final content must be the last value written, whether
        it reached the page file via eviction or the final flush."""
        pf = InMemoryPageFile(page_size=256)
        buf = LRUBufferManager(pf, capacity=2)
        buf.enable_thread_safety()
        ser = lambda obj: bytes(obj)
        loader = lambda data: bytearray(data[:2])
        num_pages = 8
        pids = [pf.allocate() for _ in range(num_pages)]
        rounds = 30

        def worker(offset):
            for r in range(rounds):
                pid = pids[(offset + r) % num_pages]
                buf.put(pid, bytearray([pid, r]), ser, dirty=True)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        buf.flush()
        assert pf.stats.evictions > 0  # capacity 2 << 8 pages: it churned
        for pid in pids:
            data = pf.read(pid)
            # First byte identifies the page: write-back never crossed
            # pages, and the page saw a real (not torn) update.
            assert data[0] == pid


class TestPageFormat:
    def test_round_trip(self):
        payload = b"some node payload"
        framed = frame_page(payload)
        kind, back = unframe_page(framed)
        assert kind == 1
        assert bytes(back) == payload

    def test_round_trip_with_padding(self):
        payload = b"x" * 100
        padded = frame_page(payload).ljust(4096, b"\x00")
        _kind, back = unframe_page(padded)
        assert bytes(back) == payload

    def test_payload_capacity(self):
        assert page_payload_capacity(4096) == 4080
        with pytest.raises(StorageError):
            page_payload_capacity(8)

    def test_kill_a_byte_exhaustive(self):
        """Flipping ANY single byte of a framed, padded page is
        detected — frame header, payload, and padding alike."""
        payload = bytes(range(64))
        page = frame_page(payload).ljust(128, b"\x00")
        for offset in range(len(page)):
            for flip in (0x01, 0xFF):
                bad = bytearray(page)
                bad[offset] ^= flip
                with pytest.raises(StorageError):
                    unframe_page(bytes(bad), page_id=7)
                assert verify_page(bytes(bad), page_id=7) is not None
        # the untampered page is fine
        assert verify_page(page) is None

    def test_checksum_error_is_storage_error(self):
        payload = b"abc"
        bad = bytearray(frame_page(payload))
        bad[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            unframe_page(bytes(bad))
        assert issubclass(ChecksumError, StorageError)

    def test_v1_style_page_gets_actionable_error(self):
        """Raw (unframed) node bytes — a v1 page — name the version
        mismatch and point at the migration docs."""
        raw = b"\x01\x00\x05\x00" + b"\x00" * 60
        with pytest.raises(StorageError, match="migrated|docs/STORAGE"):
            unframe_page(raw)

    def test_truncated_frame_rejected(self):
        with pytest.raises(StorageError):
            unframe_page(b"\x50\x52")

    def test_memoryview_is_zero_copy(self):
        payload = b"q" * 32
        padded = frame_page(payload).ljust(256, b"\x00")
        view = memoryview(padded)
        _kind, back = unframe_page(view)
        assert isinstance(back, memoryview)
        assert bytes(back) == payload


class TestDiskDurability:
    def test_allocate_counts_physical_write(self, tmp_path):
        with DiskPageFile.create(tmp_path / "p.bin", page_size=256) as pf:
            pf.allocate()
            pf.allocate()
            assert pf.stats.physical_writes == 2

    def test_flush_fsync_counted(self, tmp_path):
        with DiskPageFile.create(tmp_path / "p.bin", page_size=256) as pf:
            pid = pf.allocate()
            pf.write(pid, b"x")
            pf.flush()
            assert pf.stats.fsyncs == 0
            pf.flush(fsync=True)
            assert pf.stats.fsyncs == 1

    def test_close_flushes_unflushed_writes(self, tmp_path):
        """The close() durability regression: data written but never
        explicitly flushed must survive the close."""
        path = tmp_path / "p.bin"
        pf = DiskPageFile.create(path, page_size=256)
        pid = pf.allocate()
        pf.write(pid, b"must survive close")
        pf.close()  # no flush() call before this
        assert pf.stats.fsyncs >= 1
        with DiskPageFile(path, page_size=256) as back:
            assert back.read(pid).startswith(b"must survive close")

    def test_close_is_idempotent(self, tmp_path):
        pf = DiskPageFile.create(tmp_path / "p.bin", page_size=256)
        pf.close()
        pf.close()  # must not raise on the closed handle


class TestBufferReadOnlyMode:
    @staticmethod
    def make(tmp_path, capacity=2):
        path = tmp_path / "pages.bin"
        with DiskPageFile.create(path, page_size=256) as pf:
            for i in range(4):
                pf.allocate()
                pf.write(i, bytes([i + 1]) * 4)
        mm = DiskPageFile(path, page_size=256)
        return mm, LRUBufferManager(mm, capacity=capacity)

    def test_read_only_flag_follows_pagefile(self, tmp_path):
        mm, buf = self.make(tmp_path)
        assert buf.read_only is True
        rw = LRUBufferManager(InMemoryPageFile(page_size=256), capacity=2)
        assert rw.read_only is False
        mm.close()

    def test_get_works_and_evicts_without_writeback(self, tmp_path):
        mm, buf = self.make(tmp_path, capacity=2)
        loader = lambda data: bytes(data[:4])
        for i in range(4):
            assert buf.get(i, loader) == bytes([i + 1]) * 4
        assert mm.stats.evictions == 2
        mm.close()

    def test_dirty_operations_rejected(self, tmp_path):
        mm, buf = self.make(tmp_path)
        loader = lambda data: bytes(data[:4])
        buf.get(0, loader)
        with pytest.raises(StorageError, match="read-only"):
            buf.mark_dirty(0)
        with pytest.raises(StorageError, match="read-only"):
            buf.put(1, b"obj", lambda o: o, dirty=True)
        # non-dirty install is fine (pin warm-up uses it)
        buf.put(1, b"obj", lambda o: o, dirty=False)
        mm.close()

    def test_flush_is_noop(self, tmp_path):
        mm, buf = self.make(tmp_path)
        buf.get(0, lambda data: bytes(data[:4]))
        assert buf.flush() == 0
        mm.close()

    def test_checksum_failure_counted(self, tmp_path):
        """A loader raising ChecksumError bumps the pagefile-local
        counter and propagates."""
        mm, buf = self.make(tmp_path)

        def bad_loader(data):
            raise ChecksumError("page 0: checksum mismatch")

        with pytest.raises(ChecksumError):
            buf.get(0, bad_loader)
        assert mm.stats.checksum_failures == 1
        mm.close()
