"""The unified search API — one signature for every algorithm.

Every entry point accepts the same three leading arguments::

    fn(ctx_or_index, dataset, query, *, period=None, k=1, trace=None, ...)
    -> SearchResult

* ``ctx_or_index`` — a :class:`~repro.engine.QueryEngine` execution
  context (anything exposing ``.index`` and a
  ``search_context(query, period)`` method returning plain keyword
  data for the search), a bare :class:`~repro.index.TrajectoryIndex`,
  or ``None`` for index-free algorithms,
* ``dataset`` — the :class:`~repro.trajectory.TrajectoryDataset` the
  index-free algorithms read (``None`` for the index-only ones),
* ``query`` — the query object: a :class:`~repro.trajectory.Trajectory`
  for (k-)MST and time-relaxed search, a
  :class:`~repro.geometry.Point` for point NN, an
  :class:`~repro.geometry.MBR2D` window for range queries.

All entry points return a :class:`~repro.search.results.SearchResult`
whose ``stats`` block has the same field set regardless of algorithm.
k-MST by BFMST is the one search the engines and the wire carry: its
result carries the :class:`~repro.search.spec.QuerySpec` the call was
built from (``result.spec``), so the answer can be re-asked —
in-process, from a batch file, or over the ``repro serve`` wire — and
:func:`execute_spec` is the inverse.  The other entry points are plain
library calls (``result.spec`` is ``None``).
"""

from __future__ import annotations

from contextlib import contextmanager

from ..exceptions import QueryError
from ..obs import state as _obs
from ..trajectory import Trajectory, TrajectoryDataset
from . import bfmst as _bfmst
from . import linear_scan as _scan
from . import nn as _nn
from . import range_query as _range
from . import time_relaxed as _trx
from .results import MSTMatch, SearchResult, SearchStats
from .spec import QuerySpec

__all__ = [
    "bfmst_search",
    "linear_scan_kmst",
    "nearest_neighbours",
    "range_query",
    "time_relaxed_kmst",
    "resolve_context",
    "execute_spec",
]


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
def resolve_context(ctx_or_index, dataset):
    """Split the unified API's first two arguments into
    ``(index, dataset, ctx)``.

    A *context* is duck-typed — anything with ``.index`` and a callable
    ``search_context`` qualifies (the engine's execution context does; no
    import of :mod:`repro.engine` happens here, so the layering stays
    acyclic).  As an ergonomic special case a
    :class:`~repro.trajectory.TrajectoryDataset` passed in the context
    slot of an index-free algorithm is treated as the dataset.
    """
    if (
        ctx_or_index is not None
        and hasattr(ctx_or_index, "index")
        and callable(getattr(ctx_or_index, "search_context", None))
    ):
        return ctx_or_index.index, dataset, ctx_or_index
    if dataset is None and isinstance(ctx_or_index, TrajectoryDataset):
        return None, ctx_or_index, None
    return ctx_or_index, dataset, None


@contextmanager
def _tracing(trace):
    """Install ``trace`` (if any) as the active QueryTrace for the call;
    it is started/finished only if the caller has not already started
    it."""
    if trace is None:
        yield
        return
    previous = _obs.ACTIVE
    _obs.ACTIVE = trace
    fresh = getattr(trace, "_t0", None) is None
    if fresh:
        trace.start()
    try:
        yield
    finally:
        if fresh:
            trace.finish()
        _obs.ACTIVE = previous


def _attach(
    result: SearchResult, trace, spec: QuerySpec | None = None
) -> SearchResult:
    """Stamp the result envelope with the trace it ran under and (for
    k-MST) the spec it answers, so serialised results are
    self-describing."""
    result.spec = spec
    result.trace_id = getattr(trace, "name", None) if trace is not None else None
    return result


def _require_index(index, name: str):
    if index is None:
        raise QueryError(f"{name} requires an index (or engine context)")
    return index


# ----------------------------------------------------------------------
# k-MST (BFMST)
# ----------------------------------------------------------------------
def bfmst_search(
    ctx_or_index,
    dataset=None,
    query=None,
    *,
    period: tuple[float, float] | None = None,
    k: int = 1,
    use_heuristic1: bool = True,
    use_heuristic2: bool = True,
    refine: bool = True,
    exclude_ids=frozenset(),
    kernels: str | None = None,
    filter: str = "auto",
    deadline: float | None = None,
    trace=None,
) -> SearchResult:
    """Index-based k-Most-Similar-Trajectory search (the paper's BFMST).

    Unified form: ``bfmst_search(ctx_or_index, dataset, query, *,
    period=None, k=1, ...) -> SearchResult`` (``dataset`` may be
    ``None`` — BFMST reads only the index).  The index decides how it
    is searched: ``V_max`` is its parts' maximum speed plus the
    query's, each candidate's own speed bound comes from the sidecars'
    speed column where there is one, and a part is filtered iff it
    carries a signature sidecar (see :mod:`repro.filter`).  Two
    keywords stay for callers that measure exactly that: ``kernels``
    takes only ``None`` or ``"auto"`` and selects nothing (MINDIST and
    the filter have one implementation each; the keyword stays for
    callers that name it), and ``filter="off"`` skips the signature
    tier (``"auto"`` is the default; answers are identical either
    way).  ``deadline`` is an absolute
    ``time.monotonic()`` instant past which the traversal raises
    :class:`~repro.exceptions.DeadlineExceeded`.  Whatever else steers
    the search — the planner's shard selection — is the context's
    ``search_context(query, period)``, plain data handed to the one
    driver (:func:`repro.search.bfmst.bfmst_search`) unchanged.
    """
    if not isinstance(query, Trajectory):
        raise TypeError(
            f"bfmst_search takes a Trajectory in the query slot "
            f"(ctx_or_index, dataset, query), got {type(query).__name__}"
        )
    if kernels is not None and kernels != "auto":
        raise QueryError(
            f"kernels takes only None or 'auto' (each pass has one "
            f"implementation), got {kernels!r}"
        )
    options = {}
    if not use_heuristic1:
        options["use_heuristic1"] = False
    if not use_heuristic2:
        options["use_heuristic2"] = False
    if not refine:
        options["refine"] = False
    if exclude_ids:
        options["exclude_ids"] = frozenset(exclude_ids)
    spec = QuerySpec("mst", query, period, k, options)
    index, dataset, ctx = resolve_context(ctx_or_index, dataset)
    _require_index(index, "bfmst_search")
    context = ctx.search_context(query, period) if ctx is not None else {}
    with _tracing(trace):
        matches, stats = _bfmst.bfmst_search(
            index, query, period, k,
            use_heuristic1, use_heuristic2, refine, exclude_ids,
            filter=filter, deadline=deadline, **context,
        )
    return _attach(SearchResult("bfmst", matches, stats), trace, spec)


# ----------------------------------------------------------------------
# linear-scan k-MST
# ----------------------------------------------------------------------
def linear_scan_kmst(
    ctx_or_index,
    dataset=None,
    query=None,
    *,
    period: tuple[float, float] | None = None,
    k: int = 1,
    exact: bool = False,
    exclude_ids=frozenset(),
    trace=None,
) -> SearchResult:
    """Exhaustive k-MST — the index-free ground truth.

    Unified form: ``linear_scan_kmst(None, dataset, query, *, k=1,
    exact=False, ...) -> SearchResult``.
    """
    _index, dataset, _ctx = resolve_context(ctx_or_index, dataset)
    if dataset is None:
        raise QueryError("linear_scan_kmst requires a dataset")
    with _tracing(trace):
        matches, stats = _scan.linear_scan_with_stats(
            dataset, query, period, k, exact, exclude_ids
        )
    return _attach(SearchResult("linear_scan", matches, stats), trace)


# ----------------------------------------------------------------------
# point nearest neighbours
# ----------------------------------------------------------------------
def nearest_neighbours(
    ctx_or_index,
    dataset=None,
    query=None,
    *,
    period: tuple[float, float] | None = None,
    k: int = 1,
    trace=None,
) -> SearchResult:
    """Historical point-NN: the k objects passing closest to a location.

    Unified form: ``nearest_neighbours(ctx_or_index, dataset, point, *,
    period=(t_start, t_end), k=1, ...) -> SearchResult`` — the match
    ``dissim`` slot carries the point distance.
    """
    index, _dataset, _ctx = resolve_context(ctx_or_index, dataset)
    _require_index(index, "nearest_neighbours")
    if period is None:
        raise QueryError("nearest_neighbours requires period=(t_start, t_end)")
    t_start, t_end = period
    with _tracing(trace):
        if getattr(index, "is_sharded", False):
            # A ShardedIndex (duck-typed: no import of repro.sharding
            # here).  Disjoint shards: the global k best is the k best
            # of the per-shard k bests.
            pairs = []
            parts = []
            for shard in index.shards:
                shard_pairs, shard_stats = _nn.nearest_neighbours_with_stats(
                    shard, query, t_start, t_end, k
                )
                pairs.extend(shard_pairs)
                parts.append(shard_stats)
            pairs.sort(key=lambda p: (p[1], p[0]))
            pairs = pairs[:k]
            stats = SearchStats(total_nodes=index.num_nodes)
            for shard_stats in parts:
                stats.accumulate(shard_stats)
        else:
            pairs, stats = _nn.nearest_neighbours_with_stats(
                index, query, t_start, t_end, k
            )
    matches = [MSTMatch(tid, dist, 0.0, True) for tid, dist in pairs]
    return _attach(SearchResult("nn", matches, stats), trace)


# ----------------------------------------------------------------------
# spatiotemporal range
# ----------------------------------------------------------------------
def range_query(
    ctx_or_index,
    dataset=None,
    query=None,
    *,
    period: tuple[float, float] | None = None,
    trace=None,
) -> SearchResult:
    """Objects whose path enters a spatial window during an interval.

    Unified form: ``range_query(ctx_or_index, dataset, window, *,
    period=(t_start, t_end), ...) -> SearchResult`` — hits are unranked
    :class:`MSTMatch` rows (``dissim`` 0) sorted by id.
    """
    index, _dataset, _ctx = resolve_context(ctx_or_index, dataset)
    _require_index(index, "range_query")
    if period is None:
        raise QueryError("range_query requires period=(t_start, t_end)")
    t_start, t_end = period
    with _tracing(trace):
        hits, stats = _range.range_query_with_stats(
            index, query, t_start, t_end
        )
    matches = [MSTMatch(tid, 0.0, 0.0, True) for tid in sorted(hits)]
    return _attach(
        SearchResult("range", matches, stats, extras={"hit_ids": sorted(hits)}),
        trace,
    )


# ----------------------------------------------------------------------
# time-relaxed k-MST
# ----------------------------------------------------------------------
def time_relaxed_kmst(
    ctx_or_index,
    dataset=None,
    query=None,
    *,
    k: int = 1,
    grid: int = 64,
    exclude_ids=frozenset(),
    trace=None,
) -> SearchResult:
    """k-MST minimised over all admissible query time shifts.

    Unified form: ``time_relaxed_kmst(None, dataset, query, *, k=1,
    grid=64, ...) -> SearchResult`` — the optimal shift per answer is
    in ``result.extras["shifts"]`` (a ``{trajectory_id: shift}``
    mapping).
    """
    _index, dataset, _ctx = resolve_context(ctx_or_index, dataset)
    if dataset is None:
        raise QueryError("time_relaxed_kmst requires a dataset")
    with _tracing(trace):
        pairs, stats = _trx.time_relaxed_with_stats(
            dataset, query, k, grid, exclude_ids
        )
    matches = [m for m, _shift in pairs]
    shifts = {m.trajectory_id: shift for m, shift in pairs}
    return _attach(
        SearchResult("time_relaxed", matches, stats, extras={"shifts": shifts}),
        trace,
    )


# ----------------------------------------------------------------------
# spec dispatch
# ----------------------------------------------------------------------
def execute_spec(
    ctx_or_index, dataset, spec: QuerySpec, *, trace=None, deadline=None
) -> SearchResult:
    """Run a :class:`~repro.search.spec.QuerySpec` — a k-MST search —
    against any context: the single execution path shared by the
    batched engines and ``repro serve``.

    A kind other than ``"mst"`` is a :class:`QueryError`.
    ``spec.options`` are forwarded as keyword arguments to
    :func:`bfmst_search`, so an unknown option of an in-process spec is
    Python's own ``TypeError``; a spec off the wire never gets here with
    one (:meth:`QuerySpec.from_dict
    <repro.search.spec.QuerySpec.from_dict>` rejects it, a served 400).
    ``spec.deadline_ms`` is *not* read here: turning the budget into
    the absolute ``deadline`` is the executing engine's job
    (:meth:`repro.engine.QueryEngine.execute`); the search is handed it
    and stops mid-flight once it passes.
    """
    spec.canonical_kind()
    # The deadline is passed beside the options, never through them: an
    # option named "deadline" is a duplicate keyword, rejected like any
    # other unknown option.
    return bfmst_search(
        ctx_or_index, dataset, spec.query,
        period=spec.period, k=spec.k, trace=trace, deadline=deadline,
        **spec.options,
    )
