"""Hot-query result cache keyed on the engine's freshness signature.

The key pairs the engine's :meth:`signature` — ``(num_nodes,
num_entries, root_page)`` for a frozen index, per-store
``(generation, memtable_points)`` for a live one — with the spec's
:meth:`~repro.search.spec.QuerySpec.cache_key` (its canonical JSON
minus the deadline budget, which does not affect the answer).  A write
to a live store changes the signature, so stale entries can never be
served; they simply age out of the LRU.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["ResultCache"]


class ResultCache:
    """LRU of rendered response bodies.  ``capacity`` 0 disables."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._bodies: OrderedDict[tuple, bytes] = OrderedDict()

    def __len__(self) -> int:
        return len(self._bodies)

    def get(self, signature: tuple, spec_key: str) -> bytes | None:
        if self.capacity <= 0:
            return None
        body = self._bodies.get((signature, spec_key))
        if body is not None:
            self._bodies.move_to_end((signature, spec_key))
        return body

    def put(self, signature: tuple, spec_key: str, body: bytes) -> None:
        if self.capacity <= 0:
            return
        self._bodies[(signature, spec_key)] = body
        self._bodies.move_to_end((signature, spec_key))
        while len(self._bodies) > self.capacity:
            self._bodies.popitem(last=False)
