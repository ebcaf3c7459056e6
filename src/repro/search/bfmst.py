"""BFMST — the best-first k-Most-Similar-Trajectory search (Section 4).

The algorithm dequeues index nodes in increasing MINDIST order
(Hjaltason-Samet traversal), incrementally accumulates per-candidate
dissimilarity as leaf segments arrive, and prunes with the paper's two
heuristics:

* **Heuristic 1** — a candidate whose OPTDISSIM (speed-dependent lower
  bound) exceeds the current k-th best upper value can never make the
  answer: move it to *Rejected*.
* **Heuristic 2** — when the dequeued node's MINDISSIMINC
  (speed-independent lower bound, Definition 6) exceeds the current
  k-th best, no remaining node can improve any candidate: terminate.

Error management follows Section 4.4, simplified by the one-sidedness
of the trapezoid rule (the approximation never under-estimates, see
``repro.distance.trinomial``): every candidate carries a certified
interval ``[lower, upper]``; pruning compares lower bounds against the
k-th smallest upper bound; after termination, candidates whose
intervals straddle the k-th boundary are *refined* with the exact
closed-form integral before the final ranking.

The algorithm assumes — like the paper — that indexed trajectories are
valid throughout the query period; candidates that never complete
their coverage are returned (if they make the top k) as certified
upper bounds with ``exact=False``.

**One driver over parts.** :func:`bfmst_search` treats what it is
given as a list of *parts* — a bare index is one part, a
:class:`~repro.sharding.ShardedIndex` one per shard, a live store one
per pinned generation or memtable — and runs the same per-part
function (:func:`search_part`: one tree, one best-first heap) for each
under one shared (lock-protected) k-th-best bound: a tight candidate
completed in part 0 immediately raises the H1/H2 pruning threshold
seen by every other part.  Because trajectories are never split across
parts, candidate accumulation stays local to one part and the disjoint
per-part candidate sets merge before the common ranking/refinement
step.

A candidate's final DISSIM is the **canonical sum** of its retrieved
window integrals in time order — not the arrival-order association the
incremental coalescing happens to produce — so the reported values are
bit-identical regardless of the tree shape or shard layout that
delivered the segments.
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from operator import itemgetter
from time import monotonic

from ..distance import PartialDissim
from ..distance.kernels import window_dissim_batch
from ..distance.trinomial import IntegralResult
from ..exceptions import DeadlineExceeded, QueryError, TemporalCoverageError
from ..filter.runtime import SignatureFilter
from ..index import TrajectoryIndex, best_first_nodes
from ..obs import state as _obs
from ..trajectory import Trajectory
from .results import MSTMatch, SearchStats
from .spec import QuerySpec

__all__ = [
    "bfmst_search",
    "search_part",
    "CandidateRecord",
    "candidate_records",
    "merge_shard_records",
    "make_signature_filter",
]


def make_signature_filter(
    index, query, t_start, t_end, vmax
) -> SignatureFilter | None:
    """Build the per-query :class:`SignatureFilter` for one tree, or
    ``None`` when it carries no signature sidecar (an empty tree never
    gets one)."""
    sigs = getattr(index, "signatures", None)
    if sigs is None or getattr(index, "num_entries", 0) <= 0:
        return None
    return SignatureFilter(sigs, query, t_start, t_end, vmax)


_LO = itemgetter(0)


class _Candidate:
    """Per-trajectory bookkeeping: coverage record plus the retrieved
    windows (``(lo, hi, x1, y1, t1, x2, y2, t2)``, see
    :mod:`repro.distance.kernels`) with their integrals, kept so the
    final value and the exact refinement are canonical time-ordered
    sums, and ambiguous answers can be re-integrated exactly."""

    __slots__ = ("tid", "partial", "windows", "integrals", "total")

    def __init__(self, tid: int, t_start: float, t_end: float) -> None:
        self.tid = tid
        self.partial = PartialDissim(t_start, t_end)
        self.windows: list[tuple] = []
        self.integrals: list[IntegralResult] = []
        self.total: IntegralResult | None = None  # set on completion

    def canonical_total(self) -> IntegralResult:
        """Sum of the window integrals in time order — independent of
        the order the index traversal delivered them."""
        total = IntegralResult(0.0, 0.0)
        windows = self.windows
        for i in sorted(range(len(windows)), key=lambda i: windows[i][0]):
            total = total + self.integrals[i]
        return total


class CandidateRecord:
    """One candidate's contribution to the global ranking, detached
    from the live traversal state.

    This is the neutral currency between a shard search and the merge
    step: the in-process paths convert :class:`_Candidate` maps into
    records (:func:`candidate_records`), and the process-pool executor
    ships the same records across the process boundary inside a
    columnar :class:`~repro.engine.planner.ShardAnswer`.  ``windows``
    — ``(lo, hi, x1, y1, t1, x2, y2, t2)`` rows, time-clipped — are
    carried only for completed (``exact=True``) candidates so the merge
    step can re-integrate them exactly during refinement.
    """

    __slots__ = ("tid", "dissim", "error_bound", "exact", "windows")

    def __init__(
        self,
        tid: int,
        dissim: float,
        error_bound: float,
        exact: bool,
        windows: list[tuple] = (),
    ) -> None:
        self.tid = tid
        self.dissim = dissim
        self.error_bound = error_bound
        self.exact = exact
        self.windows = windows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateRecord(tid={self.tid}, dissim={self.dissim!r}, "
            f"error_bound={self.error_bound!r}, exact={self.exact}, "
            f"windows={len(self.windows)})"
        )


def candidate_records(
    completed: dict[int, "_Candidate"],
    valid: dict[int, "_Candidate"],
    vmax: float,
) -> list[CandidateRecord]:
    """Detach one shard's candidate maps into merge-ready records.

    Completed candidates report their canonical time-ordered total
    (value and Lemma 1 error bound) plus the retrieved windows for
    exact refinement; never-completed candidates report their certified
    PESDISSIM upper bound and carry no windows (they are never
    refined).
    """
    records: list[CandidateRecord] = []
    for cand in completed.values():
        total = cand.total if cand.total is not None else cand.canonical_total()
        records.append(
            CandidateRecord(
                cand.tid,
                total.upper,
                total.error_bound,
                True,
                cand.windows,
            )
        )
    for cand in valid.values():
        records.append(
            CandidateRecord(
                cand.tid, cand.partial.pesdissim(vmax), 0.0, False, ()
            )
        )
    return records


class _TopK:
    """The k smallest candidate upper bounds (the paper's MSim buffer).

    Candidate values only ever decrease (more coverage tightens
    PESDISSIM; completion replaces it with the measured DISSIM), and
    rejected candidates always lie above the threshold, so a simple
    sorted list with replace-the-max updates stays exact.
    """

    __slots__ = ("k", "items")

    def __init__(self, k: int) -> None:
        self.k = k
        self.items: list[list] = []  # [upper, tid] sorted ascending

    def update(self, tid: int, upper: float) -> None:
        for item in self.items:
            if item[1] == tid:
                item[0] = upper
                self.items.sort(key=lambda it: it[0])
                return
        if len(self.items) < self.k:
            self.items.append([upper, tid])
            self.items.sort(key=lambda it: it[0])
        elif upper < self.items[-1][0]:
            self.items[-1] = [upper, tid]
            self.items.sort(key=lambda it: it[0])

    @property
    def threshold(self) -> float:
        """Upper bound on the true k-th smallest dissimilarity; ``inf``
        until k candidates exist."""
        if len(self.items) < self.k:
            return math.inf
        return self.items[-1][0]


class _SharedTopK(_TopK):
    """A :class:`_TopK` safe to share across parts searched on
    concurrent threads (a serial multi-part search uses a plain one).

    The lock covers reads too: an unsynchronised ``threshold`` during
    another thread's in-place sort could observe a non-maximal tail
    element and over-prune.  Updates from different shards never target
    the same trajectory id (shards are disjoint), but they do race on
    the buffer itself.
    """

    __slots__ = ("_lock",)

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self._lock = threading.Lock()

    def update(self, tid: int, upper: float) -> None:
        with self._lock:
            _TopK.update(self, tid, upper)

    @property
    def threshold(self) -> float:
        with self._lock:
            return _TopK.threshold.fget(self)


def _search_shard(
    index: TrajectoryIndex,
    query: Trajectory,
    t_start: float,
    t_end: float,
    vmax: float,
    use_heuristic1: bool,
    use_heuristic2: bool,
    top: _TopK,
    exclude_ids,
    stats: SearchStats,
    *,
    sig_filter: SignatureFilter | None = None,
    deadline: float | None = None,
) -> tuple[dict[int, _Candidate], dict[int, _Candidate]]:
    """Advance one tree's best-first traversal to completion under a
    (possibly shared) top-k bound.

    Returns ``(completed, valid)`` candidate maps; prunes with H1/H2
    against ``top.threshold``, which — when ``top`` is shared across
    parts — may tighten at any moment from another part's progress.
    Mutates ``stats`` (one part's counters) in place.

    MINDIST scores all entries of a dequeued internal node in one call
    (:func:`~repro.index.best_first_nodes`).  Segment DISSIM integrates
    all qualifying windows of a leaf up front; the per-entry
    state updates then *replay* those precomputed results in the
    original sequential order, so pruning/completion decisions — and
    the answer — do not depend on the batching.

    ``sig_filter`` plugs in the signature tier: candidates whose
    signature lower bound strictly exceeds the current threshold are
    moved to *Rejected* before their first integral (the same contract
    as Heuristic 1 — the bound certifies they can never displace an
    answer-set member, because the k buffered upper bounds all lie at
    or below the threshold and thresholds only tighten), and a leaf
    page all of whose trajectories are already settled is skipped
    without being read.  The leaf predicate runs when the leaf's
    parent is expanded (a refused leaf costs no MINDIST and no heap
    slot) and again when the leaf is dequeued, by when the threshold
    may have tightened.

    ``deadline`` — an absolute ``time.monotonic()`` instant — is
    checked at every node dequeue; past it the traversal raises
    :class:`~repro.exceptions.DeadlineExceeded`.
    """
    io_before = index.pagefile.stats.snapshot()
    period_len = t_end - t_start

    valid: dict[int, _Candidate] = {}
    completed: dict[int, _Candidate] = {}
    rejected: set[int] = set(exclude_ids)
    dequeued = 0

    if sig_filter is not None:

        def leaf_admit(page_id: int) -> bool:
            # True at the first trajectory that may still matter; the
            # leaf's processing re-checks each one at its first touch.
            page_tids = sig_filter.page_tids(page_id)
            if page_tids is None:
                return True
            threshold = top.threshold
            check = math.isfinite(threshold)
            if (
                check
                and sig_filter.page_min(page_id) > threshold
                and valid.keys().isdisjoint(page_tids)
            ):
                # Every trajectory on the page is settled or certified
                # out: the loop below would refuse it too.
                stats.leaf_skips += 1
                return False
            for tid in page_tids:
                if tid in rejected or tid in completed:
                    continue
                if tid in valid:
                    return True
                if check and sig_filter.should_prune(tid, threshold):
                    rejected.add(tid)
                    continue
                return True
            stats.leaf_skips += 1
            return False

        def leaf_refuse(page_ids):
            # An expanded node's leaf children at once: refused when the
            # least bound on the page exceeds the threshold, unless the
            # page holds a live candidate, which the loop above admits
            # whatever its bound.
            threshold = top.threshold
            if not math.isfinite(threshold):
                return None
            refused = sig_filter.page_minima(page_ids) > threshold
            if valid:
                for i in refused.nonzero()[0].tolist():
                    tids = sig_filter.page_tids(int(page_ids[i]))
                    if not valid.keys().isdisjoint(tids):
                        refused[i] = False
            stats.leaf_skips += int(refused.sum())
            return refused

    else:
        leaf_admit = leaf_refuse = None

    for node_dist, node in best_first_nodes(
        index, query, t_start, t_end,
        leaf_admit=leaf_admit, leaf_refuse=leaf_refuse,
    ):
        dequeued += 1
        if deadline is not None and monotonic() >= deadline:
            raise DeadlineExceeded("query exceeded its deadline budget")
        # ---- Heuristic 2: MINDISSIMINC early termination -------------
        threshold = top.threshold
        if use_heuristic2 and math.isfinite(threshold):
            base = node_dist * period_len
            if base > threshold:
                # The paper's shortcut: only compute the candidate
                # OPTDISSIMINC's when the cheap bound already exceeds
                # the threshold (Definition 6 is a min, so otherwise
                # MINDISSIMINC <= base <= threshold anyway).
                if all(
                    c.partial.optdissim_inc(node_dist) > threshold
                    for c in valid.values()
                ):
                    stats.terminated_early = True
                    stats.h2_termination_depth = dequeued
                    break

        if not node.is_leaf:
            stats.internal_accesses += 1
            continue
        stats.leaf_accesses += 1

        # ---- leaf processing: temporal plane sweep -------------------
        # The leaf's rows in time order, cut to the period; each row
        # left is clipped to it once, and the batch pass and the
        # replay below share the window.
        tids: list[int] = []
        windows: list[tuple] = []
        for tid, x1, y1, t1, x2, y2, t2 in node.rows_in_period(t_start, t_end):
            lo = t_start if t_start > t1 else t1
            hi = t_end if t_end < t2 else t2
            if lo < hi:
                tids.append(tid)
                windows.append((lo, hi, x1, y1, t1, x2, y2, t2))
        # Integrate every window qualifying *now* in one batch; the
        # sequential replay below may skip a few of them (a
        # candidate completing or being rejected mid-leaf), which
        # wastes their integrals but changes no decision.
        batch_items = []
        batch_threshold = top.threshold if sig_filter is not None else math.inf
        sig_check = sig_filter is not None and math.isfinite(batch_threshold)
        # Decided once per trajectory: nothing below moves between
        # the candidate sets until the replay, and a TB-tree leaf
        # holds one trajectory.
        batched: dict[int, bool] = {}
        for tid, window in zip(tids, windows):
            wanted = batched.get(tid)
            if wanted is None:
                wanted = not (tid in rejected or tid in completed)
                if wanted and sig_check and tid not in valid:
                    # First touch of this trajectory in this leaf:
                    # when its signature bound already exceeds the
                    # threshold now, the (monotonically tightening)
                    # threshold guarantees the sequential replay
                    # below prunes it too, so its integrals need
                    # not be batched at all.
                    lb = sig_filter.bound(tid)
                    wanted = lb is None or not lb > batch_threshold
                batched[tid] = wanted
            if wanted:
                batch_items.append(window)
        results = iter(
            window_dissim_batch(query, batch_items) if batch_items else ()
        )
        for tid, window in zip(tids, windows):
            result = next(results) if batched[tid] else None
            if tid in rejected or tid in completed:
                continue
            cand = valid.get(tid)
            if cand is None:
                if sig_filter is not None:
                    # Signature tier: reject at first touch when the
                    # certified lower bound beats the current k-th-best
                    # upper bound — before any DISSIM integral.
                    threshold = top.threshold
                    if math.isfinite(threshold) and sig_filter.should_prune(
                        tid, threshold
                    ):
                        rejected.add(tid)
                        continue
                cand = _Candidate(tid, t_start, t_end)
                valid[tid] = cand
                stats.candidates_created += 1
            integral, d_lo, d_hi = result
            partial = cand.partial
            if partial.add(
                window[0],
                window[1],
                integral.approx,
                integral.error_bound,
                d_lo,
                d_hi,
            ):
                cand.windows.append(window)
                cand.integrals.append(integral)
            stats.entries_processed += 1
            stats.dissim_evaluations += 1

            if partial.is_complete():
                del valid[tid]
                completed[tid] = cand
                stats.candidates_completed += 1
                cand.total = cand.canonical_total()
                top.update(tid, cand.total.upper)
                continue

            opt, pes = partial.bounds(vmax)
            top.update(tid, pes)
            if use_heuristic1:
                threshold = top.threshold
                if math.isfinite(threshold) and opt > threshold:
                    del valid[tid]
                    rejected.add(tid)
                    stats.candidates_rejected += 1

    # Each dequeue is exactly one read_node call and nothing else in
    # this search reads this shard's nodes, so the local counter equals
    # the shard's node-access delta — and stays correct when shards run
    # on the engine's threaded executor.
    stats.node_accesses = dequeued
    if sig_filter is not None:
        stats.signature_checks += sig_filter.checks
        stats.signature_pruned += sig_filter.pruned
    io_after = index.pagefile.stats.diff(io_before)
    stats.buffer_hits = io_after.buffer_hits
    stats.buffer_misses = io_after.buffer_misses
    stats.checksum_failures = io_after.checksum_failures
    return completed, valid


def search_part(
    index: TrajectoryIndex,
    query: Trajectory,
    t_start: float,
    t_end: float,
    vmax: float,
    use_heuristic1: bool,
    use_heuristic2: bool,
    top: _TopK,
    exclude_ids,
    sig_filter: SignatureFilter | None = None,
    deadline: float | None = None,
) -> tuple[list[CandidateRecord], SearchStats]:
    """The per-part unit of work: one tree's traversal under ``top``,
    detached into merge-ready records plus that part's counters.

    The serial loop, the thread executor and the pool worker
    (:func:`repro.engine.executor._execute_shard_plan`) all run exactly
    this function; an executor only decides where.
    """
    stats = SearchStats(total_nodes=index.num_nodes)
    completed, valid = _search_shard(
        index,
        query,
        t_start,
        t_end,
        vmax,
        use_heuristic1,
        use_heuristic2,
        top,
        exclude_ids,
        stats,
        sig_filter=sig_filter,
        deadline=deadline,
    )
    return candidate_records(completed, valid, vmax), stats


def _validate(query, period, k):
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    t_start, t_end = period if period is not None else (query.t_start, query.t_end)
    if t_start >= t_end:
        raise QueryError(f"empty or inverted query period [{t_start}, {t_end}]")
    if not query.covers(t_start, t_end):
        raise TemporalCoverageError(
            f"query {query.object_id!r} does not cover the period "
            f"[{t_start}, {t_end}]"
        )
    return t_start, t_end


def _counters_before(trace):
    reg = trace.registry
    return (
        reg.value("index.mindist_evaluations"),
        reg.value("distance.exact_integrals"),
        reg.value("distance.trapezoid_integrals"),
        reg.value("distance.kernel_batches"),
        reg.value("distance.kernel_segments"),
        reg.value("index.mindist_batched"),
    )


def _harvest(trace, stats, before) -> None:
    reg = trace.registry
    stats.mindist_evaluations = (
        reg.value("index.mindist_evaluations") - before[0]
    )
    stats.exact_integral_evals = (
        reg.value("distance.exact_integrals") - before[1]
    )
    stats.trapezoid_evals = (
        reg.value("distance.trapezoid_integrals") - before[2]
    )
    stats.kernel_batches = reg.value("distance.kernel_batches") - before[3]
    stats.kernel_segments = reg.value("distance.kernel_segments") - before[4]
    stats.mindist_batched = reg.value("index.mindist_batched") - before[5]
    stats.heap_high_water = int(reg.gauge("index.heap_high_water").value)
    reg.inc("search.bfmst.queries")
    reg.inc("search.bfmst.node_accesses", stats.node_accesses)
    reg.inc("search.bfmst.entries_processed", stats.entries_processed)
    reg.inc("search.bfmst.candidates_created", stats.candidates_created)
    reg.inc("search.bfmst.h1_rejections", stats.candidates_rejected)
    reg.inc("search.bfmst.refinements", stats.refinement_candidates)
    for name, value in stats.filter_counters().items():
        reg.inc(name, value)
    if stats.terminated_early:
        reg.inc("search.bfmst.h2_terminations")
        reg.gauge("search.bfmst.h2_termination_depth").set(
            stats.h2_termination_depth
        )
    reg.observe("search.bfmst.leaf_accesses", stats.leaf_accesses)


def bfmst_search(
    index,
    query: Trajectory,
    period: tuple[float, float] | None = None,
    k: int = 1,
    use_heuristic1: bool = True,
    use_heuristic2: bool = True,
    refine: bool = True,
    exclude_ids: set[int] | frozenset[int] = frozenset(),
    *,
    filter: str = "auto",
    selected: list[int] | None = None,
    executor=None,
    deadline: float | None = None,
) -> tuple[list[MSTMatch], SearchStats]:
    """Run a k-MST search and return ``(matches, stats)``.

    This is the algorithm's one driver; the documented entry point is
    the unified :func:`repro.search.bfmst_search`, which adds the
    engine-context plumbing and the :class:`SearchResult` return shape.
    Whatever ``index`` is, it is searched as a list of *parts*, each by
    :func:`search_part`, all under one shared k-th-best bound, and the
    disjoint per-part candidate sets are ranked/refined once, globally.
    Everything that steers the search is plain data; nothing here
    changes the answer, only the work done and where it runs.  The
    paper's ``V_max`` is the maximum speed over *all* parts plus the
    query's — the value an unsharded search would use, which (together
    with the canonical window summation) makes the answer bit-identical
    however the data is split, and which dominates the true maximum,
    so the bounds are safe.

    Parameters
    ----------
    index:
        What to search: a finalized (or at least fully built)
        :class:`RTree3D` or :class:`TBTree` — one part, whose stats
        carry no ``per_shard`` block; anything with ``.shards`` (a
        :class:`~repro.sharding.ShardedIndex`) — one part per shard; or
        a list of ``(index, exclude_ids)`` pairs (a live store's pinned
        generation and memtable, see :class:`repro.ingest.LiveView`),
        where each part's own exclusions are unioned onto
        ``exclude_ids`` — that is how dirty objects are masked out of
        an immutable generation while the memtable serves them.
    query:
        The query trajectory ``Q``.
    period:
        The query period ``[t1, tn]``; defaults to the query's
        lifetime.  The query must cover it.
    k:
        Number of most similar trajectories to return.
    use_heuristic1 / use_heuristic2:
        Ablation switches for OPTDISSIM candidate pruning and
        MINDISSIMINC early termination.
    refine:
        Re-integrate exactly (arcsinh closed form) the candidates whose
        certified intervals straddle the k-th boundary before ranking.
    exclude_ids:
        Trajectory ids never to report (e.g. the query itself when it
        is also indexed).
    filter:
        ``"auto"`` (the default) runs the signature tier on every part
        that carries a signature sidecar: candidates whose signature
        lower bound certifies them out of the answer are rejected
        before any page read or integral.  ``"off"`` ignores the
        sidecars, for measuring what they save; answers are
        byte-identical by construction.  A process-backed executor's
        workers always run ``"auto"``, so it refuses ``"off"``.
    selected:
        Positions of the parts to search (the planner's pre-filter);
        ``None`` searches all.  Skipping a part whose extent cannot
        overlap the query period is answer-preserving; so is skipping
        one whose every trajectory is excluded, which is done here.
    executor:
        Where :func:`search_part` runs.  ``None`` — here, one part
        after another.  Anything with ``.map(fn, items)`` (the engine's
        :class:`~repro.engine.executor.ThreadedExecutor`) — on its
        workers, concurrently.  Anything with ``.run_parts(specs, vmax,
        deadline)`` (a process-backed
        :class:`~repro.engine.ShardedQueryEngine`) — in other
        processes, from plain data: one ``QuerySpec`` per part out,
        ``(position, records, stats)`` triples back, each worker under
        a bound of its own.
    deadline:
        An absolute ``time.monotonic()`` instant; the traversal checks
        it at every node dequeue and raises
        :class:`~repro.exceptions.DeadlineExceeded` once it has passed.
    """
    t_start, t_end = _validate(query, period, k)
    if filter not in ("auto", "off"):
        raise QueryError(f"filter must be 'auto' or 'off', got {filter!r}")
    in_workers = hasattr(executor, "run_parts")
    if filter == "off" and in_workers:
        raise QueryError(
            "filter='off' needs the parts searched in this process; a "
            "process-backed executor's workers filter iff a shard has "
            "a sidecar"
        )
    one_tree = not isinstance(index, list) and not hasattr(index, "shards")
    if isinstance(index, list):
        parts = [part for part, _extra in index]
        excludes = [
            frozenset(exclude_ids) | frozenset(extra) if extra else exclude_ids
            for _part, extra in index
        ]
    else:
        parts = [index] if one_tree else index.shards
        excludes = [exclude_ids] * len(parts)
    vmax = max((p.max_speed for p in parts), default=0.0) + query.max_speed()
    if selected is None:
        selected = list(range(len(parts)))
    else:
        selected = list(selected)
        for pos in selected:
            if not 0 <= pos < len(parts):
                raise QueryError(f"shard id {pos} out of range [0, {len(parts)})")
    # A part whose every trajectory is excluded (a live generation whose
    # objects are all dirty) can contribute no candidate: it is left
    # out as if the planner had pruned it.  V_max above still counts it.
    selected = [
        pos for pos in selected
        if not parts[pos].trajectory_ids.issubset(excludes[pos])
    ]

    stats = SearchStats(total_nodes=sum(p.num_nodes for p in parts))
    # Counter baseline so the SearchStats enrichment reports *this*
    # query's work even when one trace spans several queries.
    trace = _obs.ACTIVE
    if trace is not None and trace.registry.enabled:
        before = _counters_before(trace)
    else:
        trace = before = None

    # Only parts run concurrently share the bound across threads.
    concurrent = not in_workers and executor is not None and len(selected) > 1
    top: _TopK = _SharedTopK(k) if concurrent else _TopK(k)

    def run(pos: int):
        part = parts[pos]
        # One signature filter per part: each carries its own sidecar.
        sig_filter = (
            make_signature_filter(part, query, t_start, t_end, vmax)
            if filter == "auto"
            else None
        )
        records, part_stats = search_part(
            part,
            query,
            t_start,
            t_end,
            vmax,
            use_heuristic1,
            use_heuristic2,
            top,
            excludes[pos],
            sig_filter,
            deadline,
        )
        return pos, records, part_stats

    if in_workers:
        specs = {
            pos: QuerySpec(
                "mst",
                query,
                (t_start, t_end),
                k,
                {
                    "use_heuristic1": use_heuristic1,
                    "use_heuristic2": use_heuristic2,
                    "exclude_ids": excludes[pos],
                },
            )
            for pos in selected
        }
        outcomes = executor.run_parts(specs, vmax, deadline)
    elif concurrent:
        # Engine executors use the (index, item) map convention.
        outcomes = executor.map(lambda _i, pos: run(pos), selected)
    else:
        outcomes = [run(pos) for pos in selected]

    matches = merge_shard_records(
        outcomes,
        selected=selected,
        shard_nodes=None if one_tree else [p.num_nodes for p in parts],
        query=query,
        k=k,
        refine=refine,
        stats=stats,
        trace=trace,
        before=before,
    )
    return matches, stats


def _per_shard_row(shard_id: int, pruned: bool, s: SearchStats) -> dict:
    """One ``per_shard`` row: the same keys whether the shard was
    searched or skipped by the planner."""
    return {
        "shard": shard_id,
        "pruned": pruned,
        "node_accesses": s.node_accesses,
        "leaf_accesses": s.leaf_accesses,
        "entries_processed": s.entries_processed,
        "candidates_created": s.candidates_created,
        "candidates_rejected": s.candidates_rejected,
        "signature_pruned": s.signature_pruned,
        "leaf_skips": s.leaf_skips,
        "terminated_early": s.terminated_early,
        "total_nodes": s.total_nodes,
    }


def merge_shard_records(
    outcomes,
    *,
    selected: list[int],
    shard_nodes: list[int] | None,
    query: Trajectory,
    k: int,
    refine: bool,
    stats: SearchStats,
    trace=None,
    before=None,
) -> list[MSTMatch]:
    """Merge per-part search outcomes into the global ranked answer.

    ``outcomes`` is an iterable of ``(position, records, part_stats)``
    triples — one per searched part, each produced by
    :func:`search_part`, in this process or (reconstituted from
    :class:`~repro.engine.planner.ShardAnswer` buffers) in a pool
    worker.  Aggregates the part counters into ``stats``, ranks/refines
    the concatenated records, and — when ``trace``/``before`` are
    given — harvests the trace counters.  ``shard_nodes`` sizes the
    ``per_shard`` breakdown (with a row for every planner-pruned part);
    ``None`` — a bare index, searched as one part — reports none.

    Every executor's results pass through this one merge, so they are
    byte-identical by construction.
    """
    records: list[CandidateRecord] = []
    per_shard: list[dict] = []
    for shard_id, shard_records, s in outcomes:
        records.extend(shard_records)
        stats.accumulate(s)
        per_shard.append(_per_shard_row(shard_id, False, s))
    if shard_nodes is not None:
        searched = set(selected)
        for shard_id in range(len(shard_nodes)):
            if shard_id not in searched:
                # A planner-pruned shard did no work: the zero counters
                # of a fresh SearchStats, under the same keys.
                idle = SearchStats(total_nodes=shard_nodes[shard_id])
                per_shard.append(_per_shard_row(shard_id, True, idle))
        per_shard.sort(key=lambda row: row["shard"])
        stats.extra["per_shard"] = per_shard
        stats.extra["shards_searched"] = len(selected)
        stats.extra["shards_pruned"] = len(shard_nodes) - len(selected)

    matches = _assemble(records, query, k, refine, stats)
    if trace is not None:
        _harvest(trace, stats, before)
    if trace is not None and shard_nodes is not None:
        reg = trace.registry
        reg.inc("search.bfmst.sharded_queries")
        reg.inc("search.bfmst.shards_searched", len(selected))
        reg.inc("search.bfmst.shards_pruned", len(shard_nodes) - len(selected))
        for row in per_shard:
            if not row["pruned"]:
                label = row["shard"]
                reg.inc(f"search.shard.{label}.queries")
                reg.inc(
                    f"search.shard.{label}.node_accesses",
                    row["node_accesses"],
                )
                reg.inc(
                    f"search.shard.{label}.entries_processed",
                    row["entries_processed"],
                )
    return matches


def _assemble(
    records: list[CandidateRecord],
    query: Trajectory,
    k: int,
    refine: bool,
    stats: SearchStats,
) -> list[MSTMatch]:
    """Rank the candidate records, exactly re-integrating the ambiguous
    ones (the paper's post-processing step, Section 4.4)."""
    scored = [
        MSTMatch(r.tid, r.dissim, r.error_bound, exact=r.exact)
        for r in records
    ]
    scored.sort(key=lambda m: (m.upper, m.trajectory_id))
    if not scored:
        return []

    if refine and _needs_refinement(scored, k):
        by_tid = {r.tid: r for r in records}
        trace = _obs.ACTIVE
        timed = (
            trace.time("search.bfmst.refinement")
            if trace is not None
            else nullcontext()
        )
        kth_upper = scored[min(k, len(scored)) - 1].upper
        refined: dict[int, float] = {}
        with timed:
            for m in scored:
                if not (m.exact and m.error_bound > 0.0 and m.lower <= kth_upper):
                    continue
                # Time-ordered summation: the exact value must not
                # depend on segment arrival order either.
                windows = sorted(by_tid[m.trajectory_id].windows, key=_LO)
                exact_total = 0.0
                for integral, _dl, _dh in window_dissim_batch(
                    query, windows, exact=True
                ):
                    exact_total += integral.approx
                refined[m.trajectory_id] = exact_total
                stats.refinement_candidates += 1
        scored = [
            MSTMatch(m.trajectory_id, refined[m.trajectory_id], 0.0, True)
            if m.trajectory_id in refined
            else m
            for m in scored
        ]
        scored.sort(key=lambda m: (m.upper, m.trajectory_id))
    return scored[:k]


def _needs_refinement(scored: list[MSTMatch], k: int) -> bool:
    """True when certified intervals around the k-th boundary overlap,
    i.e. the approximate ranking might differ from the exact one."""
    boundary = min(k, len(scored)) - 1
    kth_upper = scored[boundary].upper
    # An outside candidate whose lower end dips below the k-th upper
    # could swap into the answer set...
    for m in scored[boundary + 1 :]:
        if m.lower < kth_upper:
            return True
    # ...and adjacent inside candidates with overlapping intervals
    # could swap order.
    for i in range(boundary):
        overlap = scored[i + 1].lower < scored[i].upper
        fuzzy = scored[i].error_bound > 0.0 or scored[i + 1].error_bound > 0.0
        if overlap and fuzzy:
            return True
    return False
