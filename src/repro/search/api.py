"""The unified search API — one signature for every algorithm.

Every entry point accepts the same three leading arguments::

    fn(ctx_or_index, dataset, query, *, period=None, k=1, trace=None, ...)
    -> SearchResult

* ``ctx_or_index`` — a :class:`~repro.engine.QueryEngine` execution
  context (anything exposing ``.index``/``.dataset`` and a
  ``search_context(query, period)`` method returning plain keyword
  data for the search), a bare :class:`~repro.index.TrajectoryIndex`,
  or ``None`` for index-free algorithms,
* ``dataset`` — the :class:`~repro.trajectory.TrajectoryDataset`
  (``None`` to take the context's, or for index-only algorithms),
* ``query`` — the query object: a :class:`~repro.trajectory.Trajectory`
  for (k-)MST / continuous NN / time-relaxed, a
  :class:`~repro.geometry.Point` for point NN, an
  :class:`~repro.geometry.MBR2D` window for range queries.

All entry points return a :class:`~repro.search.results.SearchResult`
whose ``stats`` block has the same field set regardless of algorithm;
the result carries the :class:`~repro.search.spec.QuerySpec` the call
was built from (``result.spec``), so any answer can be re-asked —
in-process, from a batch file, or over the ``repro serve`` wire.
:func:`execute_spec` is the inverse: it dispatches a spec against any
context.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..exceptions import QueryError
from ..obs import state as _obs
from ..trajectory import Trajectory, TrajectoryDataset
from . import bfmst as _bfmst
from . import continuous_nn as _cnn
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
    "continuous_nearest_neighbour",
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
    acyclic).  An explicit ``dataset`` argument wins over the
    context's.  As an ergonomic special case a
    :class:`~repro.trajectory.TrajectoryDataset` passed in the context
    slot of an index-free algorithm is treated as the dataset.
    """
    if (
        ctx_or_index is not None
        and hasattr(ctx_or_index, "index")
        and callable(getattr(ctx_or_index, "search_context", None))
    ):
        if dataset is None:
            dataset = getattr(ctx_or_index, "dataset", None)
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


def _attach(result: SearchResult, spec: QuerySpec, trace) -> SearchResult:
    """Stamp the result envelope with the spec it answers and the trace
    it ran under, so serialised results are self-describing."""
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
    query's, and a part is filtered iff it carries a signature sidecar
    (see :mod:`repro.filter`).  Two keywords stay for callers that
    measure exactly that: ``kernels`` takes only ``None`` or ``"auto"``
    (the platform picks the MINDIST and filter implementations), and
    ``filter="off"`` ignores the sidecars (``"auto"`` is the default;
    answers are identical either way).  ``deadline`` is an absolute
    ``time.monotonic()`` instant past which the traversal raises
    :class:`~repro.exceptions.DeadlineExceeded`.  Whatever else steers
    the search — the planner's shard selection, the executor the parts
    run on — is the context's ``search_context(query, period)``, plain
    data handed to the one driver
    (:func:`repro.search.bfmst.bfmst_search`) unchanged.
    """
    if not isinstance(query, Trajectory):
        raise TypeError(
            f"bfmst_search takes a Trajectory in the query slot "
            f"(ctx_or_index, dataset, query), got {type(query).__name__}"
        )
    if kernels is not None and kernels != "auto":
        raise QueryError(
            f"kernels takes only None or 'auto' (the platform picks the "
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
    return _attach(SearchResult("bfmst", matches, stats), spec, trace)


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
    options = {}
    if exact:
        options["exact"] = True
    if exclude_ids:
        options["exclude_ids"] = frozenset(exclude_ids)
    spec = QuerySpec("linear_scan", query, period, k, options)
    _index, dataset, _ctx = resolve_context(ctx_or_index, dataset)
    if dataset is None:
        raise QueryError("linear_scan_kmst requires a dataset")
    with _tracing(trace):
        matches, stats = _scan.linear_scan_with_stats(
            dataset, query, period, k, exact, exclude_ids
        )
    return _attach(SearchResult("linear_scan", matches, stats), spec, trace)


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
    spec = QuerySpec("nn", query, period, k)
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
    return _attach(SearchResult("nn", matches, stats), spec, trace)


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
    spec = QuerySpec("range", query, period)
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
        spec,
        trace,
    )


# ----------------------------------------------------------------------
# historical continuous NN
# ----------------------------------------------------------------------
def continuous_nearest_neighbour(
    ctx_or_index,
    dataset=None,
    query=None,
    *,
    period: tuple[float, float] | None = None,
    exclude_ids=frozenset(),
    trace=None,
) -> SearchResult:
    """Nearest object at every instant of the period.

    Unified form: ``continuous_nearest_neighbour(ctx_or_index, dataset,
    query, *, period=(t_start, t_end), ...) -> SearchResult`` — the
    interval partition is in ``result.extras["intervals"]`` (also via
    ``result.intervals``); ``matches`` lists the distinct winners in
    order of first appearance.  An index in the context slot enables
    candidate pruning.
    """
    options = {}
    if exclude_ids:
        options["exclude_ids"] = frozenset(exclude_ids)
    spec = QuerySpec("continuous_nn", query, period, options=options)
    index, dataset, _ctx = resolve_context(ctx_or_index, dataset)
    if dataset is None:
        raise QueryError("continuous_nearest_neighbour requires a dataset")
    if period is None:
        raise QueryError(
            "continuous_nearest_neighbour requires period=(t_start, t_end)"
        )
    t_start, t_end = period
    with _tracing(trace):
        intervals, stats = _cnn.continuous_nn_with_stats(
            dataset, query, t_start, t_end, index, exclude_ids
        )
    winners: list[int] = []
    for piece in intervals:
        if piece.object_id not in winners:
            winners.append(piece.object_id)
    matches = [MSTMatch(oid, 0.0, 0.0, True) for oid in winners]
    return _attach(
        SearchResult(
            "continuous_nn", matches, stats, extras={"intervals": intervals}
        ),
        spec,
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
    options = {}
    if grid != 64:
        options["grid"] = grid
    if exclude_ids:
        options["exclude_ids"] = frozenset(exclude_ids)
    spec = QuerySpec("time_relaxed", query, None, k, options)
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
        spec,
        trace,
    )


# ----------------------------------------------------------------------
# spec dispatch
# ----------------------------------------------------------------------
#: canonical kind -> (entry point, takes period, takes k)
_DISPATCH = {
    "mst": (bfmst_search, True, True),
    "linear_scan": (linear_scan_kmst, True, True),
    "nn": (nearest_neighbours, True, True),
    "range": (range_query, True, False),
    "continuous_nn": (continuous_nearest_neighbour, True, False),
    "time_relaxed": (time_relaxed_kmst, False, True),
}


def execute_spec(
    ctx_or_index, dataset, spec: QuerySpec, *, trace=None, deadline=None
) -> SearchResult:
    """Dispatch a :class:`~repro.search.spec.QuerySpec` against any
    context — the single execution path shared by the unified API's
    callers, the batched engines and ``repro serve``.

    ``spec.options`` are forwarded as keyword arguments to the entry
    point, so an unknown option of an in-process spec is Python's own
    ``TypeError``; a spec off the wire never gets here with one
    (:meth:`QuerySpec.from_dict <repro.search.spec.QuerySpec.from_dict>`
    rejects it, a served 400).
    ``spec.deadline_ms`` is *not* read here: turning the budget into
    the absolute ``deadline`` is the executing engine's job
    (:meth:`repro.engine.QueryEngine.execute`); a k-MST search is
    handed it and stops mid-flight once it passes, the other kinds are
    bounded by the engine's check before they start.
    """
    kind = spec.canonical_kind()
    fn, takes_period, takes_k = _DISPATCH[kind]
    kwargs = dict(spec.options)
    if takes_period:
        kwargs["period"] = spec.period
    elif spec.period is not None:
        raise QueryError(f"{kind} queries do not take a period")
    if takes_k:
        kwargs["k"] = spec.k
    elif spec.k != 1:
        raise QueryError(f"{kind} queries do not take k")
    if kind == "mst":
        # Passed beside the options, never through them: an option
        # named "deadline" is a duplicate keyword, rejected like any
        # other unknown option.
        return fn(
            ctx_or_index, dataset, spec.query,
            trace=trace, deadline=deadline, **kwargs,
        )
    return fn(ctx_or_index, dataset, spec.query, trace=trace, **kwargs)
