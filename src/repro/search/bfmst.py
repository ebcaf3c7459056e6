"""BFMST — the best-first k-Most-Similar-Trajectory search (Section 4).

The algorithm dequeues index nodes in increasing MINDIST order
(Hjaltason-Samet traversal), incrementally accumulates per-candidate
dissimilarity as leaf segments arrive, and prunes with the paper's two
heuristics:

* **Heuristic 1** — a candidate whose OPTDISSIM (speed-dependent lower
  bound) exceeds the current k-th best upper value can never make the
  answer: move it to *Rejected*.  On a part with a signature sidecar
  a live candidate is also held to its signature bound — at its first
  touch in each leaf, and whenever a leaf page's least bound refuses a
  page holding it — so the test is in effect
  ``max(OPTDISSIM, signature bound) > threshold``.
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
per pinned generation or memtable — and searches the parts it selects
in this process as one tree: one best-first heap over every part's
nodes (:func:`~repro.index.best_first_nodes`), one candidate map, one
k-th-best bound and one Heuristic 2 check, and one signature pass over
the parts' stacked sidecars
(:meth:`~repro.filter.runtime.SignatureFilter.over_parts`).  Each part
keeps its own counters.

**Time slices.**  DISSIM is an integral over the period, so an object's
value is the sum of its values over time slices.  Two parts may hold
one id where its time ranges in them meet at most at an endpoint (a
live store's generation and memtable, which meet at each object's
joint sample): the one candidate of the id gathers its windows from
every part, and a rejection or a completion settles the id in every
part.  Heuristic 1, Heuristic 2, the signature tier and the seed stay
exact over such parts (docs/ALGORITHMS.md, "Time slices across
parts").

**Per-pair speeds.**  ``|Q(t) - X(t)|`` changes no faster than the
two objects' speeds added, so the speed-dependent bounds of a
candidate ``X`` use the query's speed plus ``X``'s own, read from the
sidecars and capped at the paper's global ``V_max``
(:func:`_pair_speeds`; docs/ALGORITHMS.md, "Per-pair speeds").

A candidate's final DISSIM is the **canonical sum** of its retrieved
window integrals in time order — not the arrival-order association the
incremental coalescing happens to produce — so the reported values are
bit-identical regardless of the tree shape or shard layout that
delivered the segments.
"""

from __future__ import annotations

import math
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

__all__ = [
    "bfmst_search",
    "make_signature_filters",
]


def make_signature_filters(
    parts, query, t_start, t_end, vmax
) -> list[SignatureFilter | None]:
    """Build the per-query :class:`SignatureFilter` of every part,
    ``None`` for a part that carries no signature sidecar (an empty
    tree never gets one).  The sidecars are stacked and priced by one
    pass (:meth:`SignatureFilter.over_parts`)."""
    stores = [
        index.signatures if index.num_entries > 0 else None for index in parts
    ]
    return SignatureFilter.over_parts(stores, query, t_start, t_end, vmax)


def _pair_speeds(
    parts, t_start: float, t_end: float, query_speed: float, vmax: float
):
    """A function of a trajectory id ``X`` returning its two speed
    bounds, ``(OPTDISSIM's, PESDISSIM's)``.

    The first is ``query_speed + s(X)`` capped at ``vmax``, where
    ``s(X)`` is the largest over the ``parts`` holding ``X`` of its
    sidecar speed there, or of the part's ``max_speed`` where the part
    has no sidecar or its sidecar no row for ``X``.  The second is the
    same when every part holding ``X`` has a sidecar row for it and
    those rows span ``[t_start, t_end]`` — ``X`` then completes before
    the search ends if it ever holds a top-k place, so its reported
    value is its DISSIM — and ``vmax`` otherwise, so that a candidate
    that never completes reports the same PESDISSIM with or without a
    sidecar."""
    sources = [
        (index.trajectory_ids, index.signatures, index.max_speed)
        for index in parts
    ]

    def pair_speeds(tid: int) -> tuple[float, float]:
        own = 0.0
        known = True
        first, last = math.inf, -math.inf
        for ids, store, fallback in sources:
            if tid not in ids:
                continue
            row = None if store is None else store.position(tid)
            if row is None:
                speed, known = fallback, False
            else:
                speed = store.speeds[row]
                offsets = store.knot_offsets
                first = min(first, store.knot_t[offsets[row]])
                last = max(last, store.knot_t[offsets[row + 1] - 1])
            if speed > own:
                own = speed
        speed = query_speed + own
        if speed > vmax:
            speed = vmax
        spans = known and first <= t_start and last >= t_end
        return speed, (speed if spans else vmax)

    return pair_speeds


_LO = itemgetter(0)


class _Candidate:
    """Per-trajectory bookkeeping: coverage record plus the retrieved
    windows (``(lo, hi, x1, y1, t1, x2, y2, t2)``, see
    :mod:`repro.distance.kernels`) with their integrals, kept so the
    final value and the exact refinement are canonical time-ordered
    sums, and ambiguous answers can be re-integrated exactly.
    ``speeds`` are the pair's speed bounds for OPTDISSIM and PESDISSIM
    (:func:`_pair_speeds`)."""

    __slots__ = ("tid", "partial", "windows", "integrals", "total", "speeds")

    def __init__(
        self, tid: int, t_start: float, t_end: float, speeds: tuple
    ) -> None:
        self.tid = tid
        self.speeds = speeds
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


def _search_shard(
    parts: list[TrajectoryIndex],
    query: Trajectory,
    t_start: float,
    t_end: float,
    vmax: float,
    use_heuristic1: bool,
    use_heuristic2: bool,
    top: _TopK,
    exclude_ids,
    part_stats: list[SearchStats],
    *,
    filters: list[SignatureFilter | None],
    deadline: float | None = None,
) -> tuple[dict[int, _Candidate], dict[int, _Candidate]]:
    """Advance one best-first traversal over ``parts`` to completion
    under the top-k bound ``top``.

    The parts are searched as one tree (one heap, see
    :func:`~repro.index.best_first_nodes`): one ``(completed, valid)``
    candidate map pair, returned, one threshold and one Heuristic 2
    check serve them all, and so does one settled set: every part
    skips the trajectories in ``exclude_ids`` and every one that a
    check in any part rejected (Heuristic 1, the signature tier, a leaf
    page's admission), so the slice of a rejected object in another
    part is never made a candidate again.  Part ``i`` is filtered by
    ``filters[i]`` (``None``: unfiltered), and counts its work into
    ``part_stats[i]``, mutated in place: the nodes read from its tree,
    the entries, candidates and rejections of its leaves, its leaf
    skips, signature checks and buffer traffic.  An early termination
    ends every part's search, so it is set on every part's counters.

    MINDIST scores all entries of a dequeued internal node in one call
    (:func:`~repro.index.best_first_nodes`).  Segment DISSIM integrates
    all qualifying windows of a leaf up front; the per-entry
    state updates then *replay* those precomputed results in the
    original sequential order, so pruning/completion decisions — and
    the answer — do not depend on the batching.

    A part's filter plugs in the signature tier: candidates whose
    signature lower bound strictly exceeds the current threshold are
    moved to *Rejected* before their first integral (the same contract
    as Heuristic 1 — the bound certifies they can never displace an
    answer-set member, because the k buffered upper bounds all lie at
    or below the threshold and thresholds only tighten), and a leaf
    page all of whose trajectories are already settled is skipped
    without being read.  A live candidate is held to its bound too:
    at its first touch in each leaf of a filtered part (in the batch
    decision and in the replay), and on a leaf page the filter
    refuses, it is rejected once its bound exceeds the threshold,
    counted in ``candidates_rejected`` (not as a signature check).
    The leaf predicate runs when the leaf's parent is expanded (a
    refused leaf costs no MINDIST and no heap slot) and again when the
    leaf is dequeued, by when the threshold may have tightened.

    Before the first node is read, the search is *seeded*: up to
    ``top.k`` leaf pages that each hold one whole trajectory spanning
    the period, least signature bound first
    (:meth:`~repro.filter.runtime.SignatureFilter.seed_pages`), go
    through the same leaf step as a dequeued leaf.  Each completes its
    trajectory, so once k are read the threshold is finite at the first
    expansion, and the page-minimum refusal and both heuristics work
    from the first node on.  A seeded trajectory is settled: the
    traversal refuses its page if it meets it.  Heuristic 2 stays
    sound, because every segment not yet seen still lies in an unread
    node.  Each seeded read counts one node access, one leaf access
    and one signature check on its part.

    ``deadline`` — an absolute ``time.monotonic()`` instant — is
    checked at every node read; past it the search raises
    :class:`~repro.exceptions.DeadlineExceeded`.
    """
    io_before = [index.pagefile.stats.snapshot() for index in parts]
    period_len = t_end - t_start
    pair_speeds = _pair_speeds(parts, t_start, t_end, query.max_speed(), vmax)

    valid: dict[int, _Candidate] = {}
    completed: dict[int, _Candidate] = {}
    # Excluded or rejected, in whichever part: one membership test.
    rejected: set[int] = set(exclude_ids)
    dequeued = 0

    def past_bound(sig_filter, tid: int, threshold: float) -> bool:
        # A live candidate's signature check: not a counted one.
        bound = sig_filter.bound(tid)
        return bound is not None and bound > threshold

    def reject_live(part: int, tid: int) -> None:
        del valid[tid]
        rejected.add(tid)
        part_stats[part].candidates_rejected += 1

    if any(sig_filter is not None for sig_filter in filters):

        def leaf_admit(part: int, page_id: int) -> bool:
            # True at the first trajectory that may still matter; the
            # leaf's processing re-checks each one at its first touch.
            sig_filter = filters[part]
            if sig_filter is None:
                return True
            page_tids = sig_filter.page_tids(page_id)
            if page_tids is None:
                return True
            threshold = top.threshold
            check = math.isfinite(threshold)
            if check and sig_filter.page_min(page_id) > threshold:
                # Every trajectory on the page is settled or certified
                # out, live candidates included: those are rejected.
                for tid in page_tids:
                    if tid in valid:
                        reject_live(part, tid)
                part_stats[part].leaf_skips += 1
                return False
            for tid in page_tids:
                if tid in rejected or tid in completed:
                    continue
                if not check:
                    return True
                if tid in valid:
                    if not past_bound(sig_filter, tid, threshold):
                        return True
                    reject_live(part, tid)
                elif sig_filter.should_prune(tid, threshold):
                    rejected.add(tid)
                else:
                    return True
            part_stats[part].leaf_skips += 1
            return False

        def leaf_refuse(part: int, page_ids):
            # An expanded node's leaf children at once: refused when the
            # least bound on the page exceeds the threshold; the live
            # candidates on a refused page are rejected.
            sig_filter = filters[part]
            threshold = top.threshold
            if sig_filter is None or not math.isfinite(threshold):
                return None
            refused = sig_filter.page_minima(page_ids) > threshold
            if valid:
                for i in refused.nonzero()[0].tolist():
                    for tid in sig_filter.page_tids(int(page_ids[i])):
                        if tid in valid:
                            reject_live(part, tid)
            part_stats[part].leaf_skips += int(refused.sum())
            return refused

    else:
        leaf_admit = leaf_refuse = None

    def read_leaf(part: int, node) -> None:
        # The leaf step, of a seeded page and of a dequeued leaf alike.
        stats = part_stats[part]
        stats.leaf_accesses += 1
        sig_filter = filters[part]

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
                if wanted and sig_check:
                    # First touch of this trajectory in this leaf, a
                    # live candidate or not: when its signature bound
                    # already exceeds the threshold now, the
                    # (monotonically tightening) threshold guarantees
                    # the sequential replay below rejects it too, so
                    # its integrals need not be batched at all.
                    wanted = not past_bound(sig_filter, tid, batch_threshold)
                batched[tid] = wanted
            if wanted:
                batch_items.append(window)
        results = iter(
            window_dissim_batch(query, batch_items) if batch_items else ()
        )
        touched: set[int] = set()
        for tid, window in zip(tids, windows):
            result = next(results) if batched[tid] else None
            if tid in rejected or tid in completed:
                continue
            cand = valid.get(tid)
            if sig_filter is not None and tid not in touched:
                # Signature tier, at the first touch in this leaf:
                # reject when the certified lower bound beats the
                # current k-th-best upper bound — a new trajectory
                # before any DISSIM integral (a counted check), a live
                # candidate before any more.
                touched.add(tid)
                threshold = top.threshold
                if math.isfinite(threshold):
                    if cand is None:
                        if sig_filter.should_prune(tid, threshold):
                            rejected.add(tid)
                            continue
                    elif past_bound(sig_filter, tid, threshold):
                        reject_live(part, tid)
                        continue
            if cand is None:
                cand = _Candidate(tid, t_start, t_end, pair_speeds(tid))
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

            opt_speed, pes_speed = cand.speeds
            opt, pes = partial.bounds(pes_speed, opt_speed)
            top.update(tid, pes)
            if use_heuristic1:
                threshold = top.threshold
                if math.isfinite(threshold) and opt > threshold:
                    del valid[tid]
                    rejected.add(tid)
                    stats.candidates_rejected += 1

    # ---- seed: the bound is finite before the first expansion --------
    seeds = SignatureFilter.seed_pages(filters, rejected, top.k)
    for part, page_id in seeds:
        if deadline is not None and monotonic() >= deadline:
            raise DeadlineExceeded("query exceeded its deadline budget")
        part_stats[part].node_accesses += 1
        filters[part].checks += 1
        read_leaf(part, parts[part].read_node(page_id))
    if seeds and _obs.ACTIVE is not None:
        _obs.ACTIVE.registry.inc("search.bfmst.seeded_leaves", len(seeds))

    for node_dist, part, node in best_first_nodes(
        parts, query, t_start, t_end,
        leaf_admit=leaf_admit, leaf_refuse=leaf_refuse,
    ):
        dequeued += 1
        stats = part_stats[part]
        # Each dequeue is exactly one read_node call on this part's
        # tree; the seeded pages are the only other reads.
        stats.node_accesses += 1
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
                    for ended in part_stats:
                        ended.terminated_early = True
                        ended.h2_termination_depth = dequeued
                    break

        if not node.is_leaf:
            stats.internal_accesses += 1
            continue
        read_leaf(part, node)

    for index, stats, sig_filter, before in zip(
        parts, part_stats, filters, io_before
    ):
        if sig_filter is not None:
            stats.signature_checks += sig_filter.checks
            stats.signature_pruned += sig_filter.pruned
        io_after = index.pagefile.stats.diff(before)
        stats.buffer_hits = io_after.buffer_hits
        stats.buffer_misses = io_after.buffer_misses
        stats.checksum_failures = io_after.checksum_failures
    return completed, valid


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
    deadline: float | None = None,
) -> tuple[list[MSTMatch], SearchStats]:
    """Run a k-MST search and return ``(matches, stats)``.

    This is the algorithm's one driver; the documented entry point is
    the unified :func:`repro.search.bfmst_search`, which adds the
    engine-context plumbing and the :class:`SearchResult` return shape.
    Whatever ``index`` is, it is searched as a list of *parts*, in this
    process as one tree (one heap, one k-th-best bound, one signature
    pass), and the candidates are ranked/refined once, globally.
    Everything that steers the search is plain data; nothing here
    changes the answer, only the work done.  The
    paper's ``V_max`` is the maximum speed over *all* parts plus the
    query's — the value an unsharded search would use, and the cap of
    every candidate's own pair speed (:func:`_pair_speeds`), which
    depends only on the parts that hold the candidate.  Together with
    the canonical window summation that makes the answer bit-identical
    however the data is split.  An answer that never completed its
    coverage (a trajectory not spanning the period) reports its
    PESDISSIM under the global ``V_max``, so sidecars change no
    reported value, only the work done.

    Parameters
    ----------
    index:
        What to search: a finalized (or at least fully built)
        :class:`RTree3D` or :class:`TBTree` — one part, whose stats
        carry no ``per_shard`` block; anything with ``.shards`` (a
        :class:`~repro.sharding.ShardedIndex`) — one part per shard; or
        a list of indexes (a live store's pinned generation and
        memtable, see :class:`repro.ingest.LiveView`).  The search
        keeps one candidate per id across the parts and sums its
        windows from all of them, so two parts may share an id only
        where that id's time ranges in them meet at most at an
        endpoint; two objects under one id would be summed into one.
        A sharded index's shards are disjoint, and a live view's parts
        meet at each object's joint sample, by construction (the
        store's strictly-increasing-time check); nothing on the search
        path checks it.  :func:`repro.ingest.merged_kmst` checks that
        several views report disjoint ids.
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
        before any page read or integral.  ``"off"`` skips that tier,
        for measuring what it saves; answers are byte-identical by
        construction.  Either way a sidecar's speed column prices each
        candidate's speed-dependent bounds (:func:`_pair_speeds`).
    selected:
        Positions of the parts to search (the planner's pre-filter);
        ``None`` searches all.  Skipping a part whose extent cannot
        overlap the query period is answer-preserving.
    deadline:
        An absolute ``time.monotonic()`` instant; the traversal checks
        it at every node dequeue and raises
        :class:`~repro.exceptions.DeadlineExceeded` once it has passed.
    """
    t_start, t_end = _validate(query, period, k)
    if filter not in ("auto", "off"):
        raise QueryError(f"filter must be 'auto' or 'off', got {filter!r}")
    one_tree = not isinstance(index, list) and not hasattr(index, "shards")
    if isinstance(index, list):
        parts = index
    else:
        parts = [index] if one_tree else index.shards
    vmax = max((p.max_speed for p in parts), default=0.0) + query.max_speed()
    if selected is None:
        selected = list(range(len(parts)))
    else:
        selected = list(selected)
        for pos in selected:
            if not 0 <= pos < len(parts):
                raise QueryError(f"shard id {pos} out of range [0, {len(parts)})")

    stats = SearchStats(total_nodes=sum(p.num_nodes for p in parts))
    # Counter baseline so the SearchStats enrichment reports *this*
    # query's work even when one trace spans several queries.
    trace = _obs.ACTIVE
    before = _counters_before(trace) if trace is not None else None

    # Every sidecar that can contribute in one stack, whether the
    # planner selected its part or not, so the stack stays the same
    # from query to query; a part the planner pruned misses the
    # period, and so do its rows, which the pass skips.
    filters = (
        make_signature_filters(parts, query, t_start, t_end, vmax)
        if filter == "auto"
        else [None] * len(parts)
    )
    searched = [
        SearchStats(total_nodes=parts[pos].num_nodes) for pos in selected
    ]
    completed, valid = _search_shard(
        [parts[pos] for pos in selected],
        query,
        t_start,
        t_end,
        vmax,
        use_heuristic1,
        use_heuristic2,
        _TopK(k),
        exclude_ids,
        searched,
        filters=[filters[pos] for pos in selected],
        deadline=deadline,
    )

    for part_stats in searched:
        stats.accumulate(part_stats)
    if not one_tree:
        # One row per part; a planner-pruned part did no work: the zero
        # counters of a fresh SearchStats, under the same keys.
        by_part = dict(zip(selected, searched))
        per_shard = [
            _per_shard_row(
                shard_id,
                shard_id not in by_part,
                by_part.get(shard_id) or SearchStats(total_nodes=part.num_nodes),
            )
            for shard_id, part in enumerate(parts)
        ]
        stats.extra["per_shard"] = per_shard
        stats.extra["shards_searched"] = len(selected)
        stats.extra["shards_pruned"] = len(parts) - len(selected)

    matches = _assemble(completed, valid, vmax, query, k, refine, stats)
    if trace is not None:
        _harvest(trace, stats, before)
        if not one_tree:
            _harvest_shards(trace.registry, per_shard, len(parts))
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


def _harvest_shards(reg, per_shard: list[dict], num_parts: int) -> None:
    """The per-part rows of a search over several parts, into the
    trace registry."""
    searched = [row for row in per_shard if not row["pruned"]]
    reg.inc("search.bfmst.sharded_queries")
    reg.inc("search.bfmst.shards_searched", len(searched))
    reg.inc("search.bfmst.shards_pruned", num_parts - len(searched))
    for row in searched:
        label = row["shard"]
        reg.inc(f"search.shard.{label}.queries")
        reg.inc(f"search.shard.{label}.node_accesses", row["node_accesses"])
        reg.inc(
            f"search.shard.{label}.entries_processed",
            row["entries_processed"],
        )


def _assemble(
    completed: dict[int, _Candidate],
    valid: dict[int, _Candidate],
    vmax: float,
    query: Trajectory,
    k: int,
    refine: bool,
    stats: SearchStats,
) -> list[MSTMatch]:
    """Rank the candidates, exactly re-integrating the ambiguous ones
    (the paper's post-processing step, Section 4.4).

    A completed candidate reports its canonical time-ordered total
    (value and Lemma 1 error bound), and its retrieved windows are what
    a refinement re-integrates; a never-completed one reports its
    certified PESDISSIM upper bound and is never refined."""
    scored = [
        MSTMatch(c.tid, c.total.upper, c.total.error_bound, exact=True)
        for c in completed.values()
    ]
    scored.extend(
        MSTMatch(c.tid, c.partial.pesdissim(vmax), 0.0, exact=False)
        for c in valid.values()
    )
    scored.sort(key=lambda m: (m.upper, m.trajectory_id))
    if not scored:
        return []

    if refine and _needs_refinement(scored, k):
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
                windows = sorted(completed[m.trajectory_id].windows, key=_LO)
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
