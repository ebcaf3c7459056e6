"""repro.serve — asyncio serving tier with admission control.

A stdlib-only HTTP/1.1 front-end that multiplexes concurrent clients
onto the blocking query engines (:class:`~repro.engine.QueryEngine`,
:class:`~repro.engine.ShardedQueryEngine`,
:class:`~repro.engine.LiveQueryEngine`) through a bounded thread pool.
The wire format is the library's own
:class:`~repro.search.spec.QuerySpec` / :class:`~repro.search.results
.SearchResult` JSON envelopes — what a client POSTs to ``/v1/query``
is byte-for-byte what :func:`repro.search.execute_spec` consumes
in-process, so served answers carry no translation layer that could
drift.

Admission control is explicit and load-shedding, never queueing
without bound:

* at most ``max_inflight`` requests are admitted at once; the next
  one is rejected immediately with ``429`` (``reason: overload``),
* every admitted request carries a deadline budget (its own
  ``deadline_ms``, else 10 s; clamped to 60 s) that the engine
  enforces *inside* query execution — an expired budget surfaces as
  ``504`` instead of a stuck worker,
* a body over 1 MiB is refused with ``413`` before it is read,
* a small LRU result cache keyed on the engine's freshness
  :meth:`signature` serves repeated hot queries without touching the
  pool, and invalidates the moment the index changes,
* ``SIGTERM``/``SIGINT`` drain gracefully: stop accepting, give the
  admitted work 10 s to finish, then exit (what is still running
  then is counted as abandoned).

``GET /stats`` exposes the ``serve.*`` counters (see
``docs/OBSERVABILITY.md``) together with the engine's own metrics.
"""

from .background import BackgroundServer
from .cache import ResultCache
from .client import ServeClient
from .config import ServeConfig
from .server import ReproServer

__all__ = [
    "BackgroundServer",
    "ReproServer",
    "ResultCache",
    "ServeClient",
    "ServeConfig",
]
