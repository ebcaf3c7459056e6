"""What the engine keeps warm between queries.

* :class:`DissimRefinementCache` — cross-query LRU of the exact
  refinement integrals BFMST computes for ambiguous candidates,
  keyed ``(query key, period, trajectory id)``.  A *completed*
  candidate's retrieved windows tile the full query period
  deterministically, so the exact total depends only on that key —
  it is safe to reuse across different ``k`` and across repeats of
  the same query.  It sits in the shared merge step behind one
  ``get``/``put`` pair.
* Buffer-pool pinning (implemented by
  :class:`~repro.storage.buffer.LRUBufferManager`) — the engine pins
  the upper index levels so batch-long hot pages never thrash.

The traversal itself is not memoised: the queries of a session are
distinct, and a served repeat is answered one level up by the result
cache (docs/ENGINE.md has the measurements).

All counters are plain ints guarded by a lock; the engine mirrors
them into its :class:`~repro.obs.registry.MetricsRegistry` (and any
active :func:`~repro.obs.query_trace`) after every batch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["LRUCache", "DissimRefinementCache"]


class LRUCache:
    """A thread-safe LRU mapping with hit/miss accounting.

    ``get`` returns ``default`` on a miss; ``put`` inserts/refreshes
    and evicts the least recently used entry beyond ``capacity``.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data", "_lock")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self.misses += 1
            return default

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def counters(self, prefix: str) -> dict[str, int]:
        return {
            f"{prefix}.hits": self.hits,
            f"{prefix}.misses": self.misses,
            f"{prefix}.evictions": self.evictions,
            f"{prefix}.size": len(self._data),
        }


class _RefinementView:
    """The ``get``/``put`` pair BFMST expects, bound to one query scope."""

    __slots__ = ("_cache", "_scope")

    def __init__(self, cache: LRUCache, scope):
        self._cache = cache
        self._scope = scope

    def get(self, trajectory_id: int):
        return self._cache.get((self._scope, trajectory_id))

    def put(self, trajectory_id: int, value: float) -> None:
        self._cache.put((self._scope, trajectory_id), value)


class DissimRefinementCache:
    """Cross-query LRU of exact refinement integrals.

    Keyed ``(query_key, period, trajectory_id)``; :meth:`view` binds
    the first two components so BFMST sees the plain per-trajectory
    ``get``/``put`` protocol.
    """

    __slots__ = ("lru",)

    def __init__(self, capacity: int = 4096):
        self.lru = LRUCache(capacity)

    def view(self, query_key, period) -> _RefinementView:
        return _RefinementView(self.lru, (query_key, period))

    def clear(self) -> None:
        self.lru.clear()

    def counters(self) -> dict[str, int]:
        return self.lru.counters("engine.cache.dissim")

