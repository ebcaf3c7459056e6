"""LRU buffer manager.

The paper's experimental setup uses "a (variable size) buffer fitting
10 % of the index size, with a maximum capacity of 1000 pages"; this
module provides exactly that policy
(:meth:`LRUBufferManager.resize_to_fraction`) over any
:class:`~repro.storage.pagefile.PageFile`.

The buffer caches *deserialised objects* (index nodes) keyed by page
id: a hit returns the cached object without touching the page file, a
miss reads the raw page and runs the caller-supplied loader.  Dirty
objects are serialised and written back on eviction or flush.  The
victim is always the least recently used page.

Over a read-only page file (``pagefile.writable`` is ``False``: every
loaded index) the buffer runs in **read-only mode**: dirty
tracking is skipped entirely — evictions never serialise, ``flush`` is
an inert no-op, and attempts to dirty a page are rejected loudly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import nullcontext
from typing import Callable

from ..exceptions import ChecksumError, StorageError
from ..obs import state as _obs
from .pagefile import PageFile

__all__ = ["LRUBufferManager"]


class LRUBufferManager:
    """A write-back LRU cache of deserialised pages."""

    def __init__(self, pagefile: PageFile, capacity: int = 1000):
        if capacity < 1:
            raise StorageError(f"buffer capacity must be >= 1, got {capacity}")
        self.pagefile = pagefile
        self.capacity = capacity
        self.stats = pagefile.stats
        self.read_only = not getattr(pagefile, "writable", True)
        self._cache: OrderedDict[int, object] = OrderedDict()
        self._dirty: set[int] = set()
        self._serializer: Callable[[object], bytes] | None = None
        # Null context by default; enable_thread_safety() swaps in a
        # real lock (a live store's generations, which several readers
        # share, need it; nothing else pays for it).
        self._lock = nullcontext()

    # ------------------------------------------------------------------
    # concurrency
    # ------------------------------------------------------------------
    def enable_thread_safety(self) -> None:
        """Guard every cache operation with an RLock so concurrent
        readers (of a live store's generation) cannot race the LRU
        bookkeeping.  Irreversible for the buffer's lifetime."""
        if isinstance(self._lock, nullcontext):
            self._lock = threading.RLock()

    def unpin_all(self) -> None:
        """Does nothing: no page is ever pinned.  Kept only because the
        end-to-end harness (``benchmarks/e2e/child.py``,
        ``close_index``) still calls it; delete it with that call."""

    # ------------------------------------------------------------------
    # paper's sizing policy
    # ------------------------------------------------------------------
    def resize_to_fraction(
        self, fraction: float = 0.10, max_pages: int = 1000, min_pages: int = 8
    ) -> int:
        """Resize to ``fraction`` of the current page-file size, clamped
        to ``[min_pages, max_pages]`` (the paper's 10 % / 1000-page
        policy).  Returns the new capacity."""
        want = int(self.pagefile.num_pages * fraction)
        return self.resize(max(min_pages, min(max_pages, want)))

    def resize(self, capacity: int) -> int:
        """Set the capacity to ``capacity`` pages, evicting what no
        longer fits.  Returns the new capacity."""
        if capacity < 1:
            raise StorageError(f"buffer capacity must be >= 1, got {capacity}")
        with self._lock:
            self.capacity = capacity
            self._evict_overflow(self._serializer)
            return self.capacity

    # ------------------------------------------------------------------
    # cache interface
    # ------------------------------------------------------------------
    def get(
        self,
        page_id: int,
        loader: Callable[[bytes], object],
        serializer: Callable[[object], bytes] | None = None,
    ) -> object:
        """Fetch the object cached for ``page_id``; on a miss, read the
        page and deserialise it with ``loader``.

        ``serializer`` is remembered per call only for the eviction that
        this access may trigger; pin a single serialiser per buffer in
        practice (the index layer does).
        """
        with self._lock:
            self.stats.logical_reads += 1
            trace = _obs.ACTIVE
            if page_id in self._cache:
                self.stats.buffer_hits += 1
                if trace is not None:
                    reg = trace.registry
                    reg.inc("storage.logical_reads")
                    reg.inc("storage.buffer_hits")
                self._cache.move_to_end(page_id)
                return self._cache[page_id]
            self.stats.buffer_misses += 1
            if trace is not None:
                reg = trace.registry
                reg.inc("storage.logical_reads")
                reg.inc("storage.buffer_misses")
            try:
                obj = loader(self.pagefile.read(page_id))
            except ChecksumError:
                self.stats.checksum_failures += 1
                raise
            self._cache[page_id] = obj
            self._serializer = serializer or self._serializer
            self._evict_overflow(self._serializer)
            return obj

    def put(
        self,
        page_id: int,
        obj: object,
        serializer: Callable[[object], bytes],
        dirty: bool = True,
    ) -> None:
        """Install (or replace) the object for ``page_id``; marks it
        dirty so it is written back on eviction/flush."""
        with self._lock:
            if dirty and self.read_only:
                raise StorageError(
                    f"page {page_id}: buffer is read-only "
                    f"({type(self.pagefile).__name__}), cannot "
                    f"install dirty pages"
                )
            self._cache[page_id] = obj
            self._cache.move_to_end(page_id)
            if dirty:
                self._dirty.add(page_id)
            self._serializer = serializer
            self._evict_overflow(serializer)

    def mark_dirty(self, page_id: int) -> None:
        """Flag an already-cached object as modified."""
        with self._lock:
            if self.read_only:
                raise StorageError(
                    f"page {page_id}: buffer is read-only "
                    f"({type(self.pagefile).__name__}), cannot "
                    f"dirty pages"
                )
            if page_id not in self._cache:
                raise StorageError(f"page {page_id} not resident, cannot dirty it")
            self._dirty.add(page_id)

    def flush(self, serializer: Callable[[object], bytes] | None = None) -> int:
        """Write back every dirty object; returns how many were written.
        A no-op (0) in read-only mode — there is never anything dirty."""
        if self.read_only:
            return 0
        with self._lock:
            ser = serializer or self._serializer
            written = 0
            for page_id in sorted(self._dirty):
                if page_id in self._cache:
                    if ser is None:
                        raise StorageError("no serializer available for flush")
                    self.pagefile.write(page_id, ser(self._cache[page_id]))
                    written += 1
            self._dirty.clear()
            return written

    def drop(self) -> None:
        """Empty the cache *without* writing anything back (used by
        benches to measure cold-cache behaviour; flush first if you
        care about the data)."""
        with self._lock:
            self._cache.clear()
            self._dirty.clear()

    def resident(self, page_id: int) -> bool:
        return page_id in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    def _evict_overflow(self, serializer) -> None:
        while len(self._cache) > self.capacity:
            victim_id, victim = self._cache.popitem(last=False)
            self.stats.evictions += 1
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.registry.inc("storage.evictions")
            if self.read_only:
                continue  # dirty tracking is off: nothing to write back
            if victim_id in self._dirty:
                if serializer is None:
                    raise StorageError(
                        f"evicting dirty page {victim_id} without a serializer"
                    )
                self.pagefile.write(victim_id, serializer(victim))
                self._dirty.discard(victim_id)
