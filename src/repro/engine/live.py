"""Generation-aware query serving over live ingestion stores.

:class:`LiveQueryEngine` is the online counterpart of
:class:`~repro.engine.QueryEngine` / :class:`~repro.engine.ShardedQueryEngine`:
the same session body, fronting one or more
:class:`~repro.ingest.IngestStore` instances whose contents change
under it.  Every query pins a consistent snapshot (the stores' current
generations plus frozen memtable copies), searches all parts under one
shared k-th-best bound, and releases the pins — so a compaction racing
a query retires the superseded generation without ever invalidating
the reader's open page file, and the answers stay byte-identical to a
from-scratch rebuild over the stores' current data.

Multiple stores compose exactly like shards: their object sets are
expected to be disjoint (e.g. a stream partitioned by any of the
sharding partitioners) and the merged search covers their union.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from ..exceptions import QueryError
from ..ingest import IngestStore
from .engine import EngineConfig, QueryEngine

__all__ = ["LiveQueryEngine"]


class _Snapshot:
    """What one request searches — the parts of its pinned views — as
    a search context (``.index``, ``search_context``): a fresh object
    per request, so concurrent requests share no state."""

    def __init__(self, views, search_context) -> None:
        self.index = [part for view in views for part in view.parts]
        self.search_context = search_context


class LiveQueryEngine(QueryEngine):
    """k-MST execution over one or more live stores (the engine does
    not own them: :meth:`close` leaves the stores open)."""

    def __init__(
        self,
        stores: IngestStore | list[IngestStore],
        config: EngineConfig | None = None,
    ) -> None:
        if isinstance(stores, IngestStore):
            stores = [stores]
        if not stores:
            raise QueryError("LiveQueryEngine needs at least one store")
        self.stores = list(stores)
        # No session-long pins: a request pins the generations it reads.
        self._start(None, config, [])

    def signature(self) -> tuple:
        """Freshness signature of the stores' *visible* contents — the
        per-store ``(generation, memtable_points)`` pairs.  Every
        append or compaction changes it, so a serving-tier result
        cache over a live engine invalidates on any write."""
        return tuple(
            (s.generation_number, s.memtable_points) for s in self.stores
        )

    @contextmanager
    def _parts(self):
        """Pin a consistent view of every store for one request and
        release the pins however the search ends, so ingestion and
        compaction proceed beside the readers."""
        views = []
        try:
            for store in self.stores:
                views.append(store.view())
            yield _Snapshot(views, self.search_context)
        finally:
            for view in views:
                view.close()

    def counters(self) -> dict[str, int]:
        """The stores' summed ingest counters merged with this
        session's ``engine.*`` / ``filter.*`` counters."""
        out = Counter(self.metrics.counters)
        for store in self.stores:
            out.update(store.metrics.counters)
        return dict(out)
