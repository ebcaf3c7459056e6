"""Query processing: BFMST (the paper's algorithm), the linear-scan
ground truth, classical range/NN queries and the time-relaxed
extension.

The canonical entry points — :func:`bfmst_search`,
:func:`linear_scan_kmst`, :func:`nearest_neighbours`,
:func:`range_query`, :func:`time_relaxed_kmst` — are the *unified*
dispatchers from :mod:`repro.search.api`: one shared signature
``fn(ctx_or_index, dataset, query, *, period=..., k=..., trace=None)``
returning a :class:`SearchResult`.  The pre-unification positional
forms were removed (they raise :class:`TypeError` with a migration
hint); the raw algorithm implementations remain importable from their
own modules (e.g. :func:`repro.search.bfmst.bfmst_search`).

:class:`QuerySpec` is the wire-serializable description of a k-MST
search — the same schema in process, in ``repro batch`` files, and on
the ``repro serve`` socket — and :func:`execute_spec` runs one against
any context.  The other entry points are plain library calls.
"""

from .api import (
    bfmst_search,
    execute_spec,
    linear_scan_kmst,
    nearest_neighbours,
    range_query,
    resolve_context,
    time_relaxed_kmst,
)
from .linear_scan import linear_scan_with_stats
from .nn import nearest_neighbours_brute_force, nearest_neighbours_with_stats
from .range_query import range_query_brute_force, range_query_with_stats
from .results import ENVELOPE_VERSION, MSTMatch, SearchResult, SearchStats
from .spec import SPEC_VERSION, QuerySpec
from .time_relaxed import time_relaxed_dissim, time_relaxed_with_stats

__all__ = [
    # unified API
    "bfmst_search",
    "linear_scan_kmst",
    "nearest_neighbours",
    "range_query",
    "time_relaxed_kmst",
    "resolve_context",
    "execute_spec",
    # wire schema & result types
    "QuerySpec",
    "SPEC_VERSION",
    "ENVELOPE_VERSION",
    "MSTMatch",
    "SearchStats",
    "SearchResult",
    # stats-bearing implementations & reference baselines
    "linear_scan_with_stats",
    "nearest_neighbours_with_stats",
    "nearest_neighbours_brute_force",
    "range_query_with_stats",
    "range_query_brute_force",
    "time_relaxed_dissim",
    "time_relaxed_with_stats",
]
