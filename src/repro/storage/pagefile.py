"""Fixed-size page files.

The disk substrate under the indexes: a flat array of fixed-size pages
(4 KB by default, matching the paper's setup) addressed by integer page
ids.  Two stores share one interface:

* :class:`InMemoryPageFile`, a list of byte blocks: where every index
  is built (and where the ingest memtable lives),
* :class:`DiskPageFile`, a real file with one slot per page: the one
  store a saved index is read through, opened read-only.  Only
  :meth:`DiskPageFile.create` opens one writable, and ``close()``
  fsyncs such a file before releasing it.

Both enforce the page-size invariant and count physical I/O; a
read-only file advertises ``writable = False`` so the buffer manager
skips dirty tracking entirely.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..exceptions import PageOverflowError, StorageError
from ..obs import state as _obs
from .stats import IOStats

__all__ = [
    "PAGE_SIZE_DEFAULT",
    "PageFile",
    "InMemoryPageFile",
    "DiskPageFile",
]

PAGE_SIZE_DEFAULT = 4096


class PageFile:
    """Abstract fixed-size page store."""

    #: Whether the store accepts ``allocate``/``write``.  A read-only
    #: store advertises ``False`` and the buffer manager then skips all
    #: dirty tracking.
    writable = True

    def __init__(self, page_size: int = PAGE_SIZE_DEFAULT, stats: IOStats | None = None):
        if page_size < 64:
            raise StorageError(f"page size {page_size} unreasonably small")
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()

    # -- interface ------------------------------------------------------
    def allocate(self) -> int:
        """Reserve a fresh page and return its id."""
        raise NotImplementedError

    def read(self, page_id: int) -> bytes:
        """Fetch the raw bytes of a page (exactly ``page_size`` long)."""
        raise NotImplementedError

    def write(self, page_id: int, data: bytes) -> None:
        """Store ``data`` into a page; shorter payloads are zero-padded,
        longer ones raise :class:`PageOverflowError`."""
        raise NotImplementedError

    def flush(self, fsync: bool = False) -> None:
        """Push buffered writes down; with ``fsync=True`` force them to
        stable storage.  No-op on stores with nothing to sync."""

    def close(self) -> None:
        """Release the store's resources (durably, for written files)."""

    @property
    def num_pages(self) -> int:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------
    def _pad(self, data: bytes) -> bytes:
        if len(data) > self.page_size:
            raise PageOverflowError(
                f"payload of {len(data)} bytes exceeds page size {self.page_size}"
            )
        return data.ljust(self.page_size, b"\x00")

    def size_bytes(self) -> int:
        """Total file size in bytes."""
        return self.num_pages * self.page_size

    def size_mb(self) -> float:
        """Total file size in binary megabytes (what Table 2 reports)."""
        return self.size_bytes() / (1024.0 * 1024.0)

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InMemoryPageFile(PageFile):
    """Page store backed by a Python list (where indexes are built)."""

    def __init__(self, page_size: int = PAGE_SIZE_DEFAULT, stats: IOStats | None = None):
        super().__init__(page_size, stats)
        self._pages: list[bytes] = []

    def allocate(self) -> int:
        self._pages.append(b"\x00" * self.page_size)
        return len(self._pages) - 1

    def read(self, page_id: int) -> bytes:
        self._check(page_id)
        self.stats.physical_reads += 1
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.registry.inc("storage.physical_reads")
        return self._pages[page_id]

    def write(self, page_id: int, data: bytes) -> None:
        self._check(page_id)
        self.stats.physical_writes += 1
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.registry.inc("storage.physical_writes")
        self._pages[page_id] = self._pad(data)

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def _check(self, page_id: int) -> None:
        if not (0 <= page_id < len(self._pages)):
            raise StorageError(
                f"page id {page_id} out of range [0, {len(self._pages)})"
            )


class DiskPageFile(PageFile):
    """Page store backed by a real file of fixed-size slots.

    ``DiskPageFile(path)`` opens an existing file **read-only**
    (``writable`` is ``False``): every saved index is served this way,
    so its buffer runs in read-only mode and closing it syncs nothing.
    :meth:`create` starts a new, empty, writable file instead — what
    ``save_index`` writes through.  Pages move with ``os.pread`` /
    ``os.pwrite``: no shared file position, no Python-side buffer.
    """

    writable = False

    def __init__(
        self,
        path: str | Path,
        page_size: int = PAGE_SIZE_DEFAULT,
        stats: IOStats | None = None,
    ):
        super().__init__(page_size, stats)
        self._path = Path(path)
        try:
            self._fh = open(
                self._path, "w+b" if self.writable else "rb", buffering=0
            )
        except FileNotFoundError:
            raise StorageError(f"{self._path}: no such page file") from None
        self._fd = self._fh.fileno()
        size = os.fstat(self._fd).st_size
        if size % page_size != 0:
            self._fh.close()
            raise StorageError(
                f"{self._path}: size {size} is not a multiple of the "
                f"page size {page_size}"
            )
        self._num_pages = size // page_size

    @classmethod
    def create(
        cls,
        path: str | Path,
        page_size: int = PAGE_SIZE_DEFAULT,
        stats: IOStats | None = None,
    ) -> "DiskPageFile":
        """A new, empty, writable page file at ``path`` (an old file
        there is truncated)."""
        pagefile = cls.__new__(cls)
        pagefile.writable = True
        pagefile.__init__(path, page_size, stats)
        return pagefile

    def flush(self, fsync: bool = False) -> None:
        """With ``fsync=True`` force written pages to stable storage (a
        durability barrier); writes are unbuffered, so nothing else
        waits."""
        if fsync and self.writable:
            os.fsync(self._fd)
            self.stats.fsyncs += 1
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.registry.inc("storage.fsync")

    def close(self) -> None:
        """Release the handle; a writable file is fsynced first, so a
        cleanly closed file never loses acknowledged writes."""
        if not self._fh.closed:
            try:
                self.flush(fsync=True)
            finally:
                self._fh.close()

    def allocate(self) -> int:
        page_id = self._num_pages
        self._pwrite(page_id, b"\x00" * self.page_size)
        self._num_pages += 1
        return page_id

    def read(self, page_id: int) -> bytes:
        self._check(page_id)
        self.stats.physical_reads += 1
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.registry.inc("storage.physical_reads")
        data = os.pread(self._fd, self.page_size, page_id * self.page_size)
        if len(data) != self.page_size:
            raise StorageError(f"{self._path}: short read on page {page_id}")
        return data

    def write(self, page_id: int, data: bytes) -> None:
        self._check(page_id)
        self._pwrite(page_id, self._pad(data))

    def _pwrite(self, page_id: int, data: bytes) -> None:
        if not self.writable:
            raise StorageError(f"{self._path}: page file is open read-only")
        # The allocation zero-fill is a real page-sized write too;
        # counting it keeps physical_writes equal to what the kernel saw.
        self.stats.physical_writes += 1
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.registry.inc("storage.physical_writes")
        os.pwrite(self._fd, data, page_id * self.page_size)

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def _check(self, page_id: int) -> None:
        if not (0 <= page_id < self._num_pages):
            raise StorageError(
                f"page id {page_id} out of range [0, {self._num_pages})"
            )
