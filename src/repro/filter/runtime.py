"""Query-time signature evaluation: a provable DISSIM lower bound.

For one query ``Q`` over period ``[t1, tn]``, :class:`SignatureFilter`
turns a trajectory's signature into a number ``lb`` with
``lb <= DISSIM(Q, S, t1, tn)``.

**Probe bound.**  The covered stretch ``[lo, hi]`` (period ∩ signature
span) is cut into ``M`` equal subintervals probed at their midpoints
``t_j``.  The true position at ``t_j`` lies within the segment radius
``r_j`` of the simplified polyline (the TD-TR radii are certified), so
``d_j = max(0, |Q(t_j) - P(t_j)| - r_j) <= d(t_j)``.  The distance
``|Q(t) - S(t)|`` changes no faster than the two objects' speeds
added, so it is ``V``-Lipschitz with ``V = v_max(Q) + v_max(S)``, the
query's maximum segment speed plus the row's own (the sidecar's speed
column), capped at the search's global ``V_max``; over the whole
subinterval ``d(t) >= max(0, d_j - V |t - t_j|)``.  Integrating that
hinge exactly gives, with ``L`` the subinterval length and
``c = V L/2``: ``d_j L - V L^2/4`` when ``d_j >= c``, else
``d_j^2 / V`` (``d_j L`` when ``V`` is 0).  A row's own speed is
enough because the bound only spans that row's slice.
Summing the ``M`` pieces lower-bounds the integral over ``[lo, hi]``,
and the integrand is non-negative elsewhere, so the sum lower-bounds
the full DISSIM.

The bound is valid for *partial* candidates too: a candidate's
reported value is always an upper bound on (or the exact value of) its
full-period DISSIM, which the signature bound lower-bounds.

On the first lookup of a query the filter evaluates *every* row of the
sidecar in one numpy pass — a few dozen array operations over the
stacked knot columns instead of one interpreter round trip per
candidate.  It performs the same IEEE operations in the same order as
the one-row scalar reference :meth:`SignatureFilter._evaluate` (probe
times as ``lo + (j + 0.5) * L``, the knot index
``bisect_right(knots, t) - 1`` clamped to the polyline, interpolation as ``x_i + frac * (x_{i+1} - x_i)``, ``sqrt(dx*dx +
dy*dy)``, per-probe hinge, the ``M`` contributions added left to
right), so the two are bit-equal; the tests hold the pass to it.

**Knot counts without bisection.**  The pass needs, per probe, the
number of its row's knots at or below it (``bisect_right``).  It counts
the other way round, once per knot: how many of its row's probe times
lie strictly below the knot.  The inverse of the probe formula,
``ceil((t_k - lo) / L - 0.5)`` clipped to ``[0, M]``, estimates it, and
exact comparisons against the probe times, computed as the pass
computes them, move the estimate until it is exact (on the benchmark's
stores it always is already).  Probe times rise with ``j``, so a knot
is at or below probe ``j`` exactly when its count is at most ``j``: a
histogram of the counts per row (``bincount`` into ``[M + 1, rows]``),
summed down the probes, gives every probe its bisection result.  This
relies on knot times ascending strictly within a row, which the sidecar
loader checks.  When every covered row shares one window ``(lo, hi)``
— rows spanning the whole period, the common case — the probe times
and query positions are one ``[M, 1]`` column.  What depends on the
store alone (the per-segment differences, the knot-aligned radii, the
row of each knot) is memoised with the stack the pass prices
(:meth:`~repro.filter.signature.StackedSignatures.pass_columns`).

**Page minima.**  The same pass reduces the bounds to each leaf page's
least (``np.minimum.reduceat`` over the sidecar's leaf-tid CSR; ``-inf``
when a tid on the page has no signature, ``inf`` for a page of none).
A page whose least bound exceeds the threshold holds no trajectory the
signature tier would let through, live candidates (those the search is
already accumulating) included: the search refuses such a leaf with
one compare (:meth:`SignatureFilter.page_min`, and
:meth:`~SignatureFilter.page_minima` for all of an expanded node's leaf
children at once), and rejects the live candidates on the pages that
compare refuses.

**Several parts, one pass.**  The pass always prices a stack of
stores (:func:`~repro.filter.signature.stack_signatures`): a filter
built on one store prices that store's stack of one, and a search over
several parts (the shards of a sharded index, the pinned generations
of live stores) builds its filters with :meth:`SignatureFilter.over_parts`,
which stacks the parts' stores.  The first part's filter prices every
stacked row in one pass; each other part's filter looks its
trajectories and leaf pages up in its own store (page ids repeat
across parts), reads their bounds from that one pass, and counts its
own checks and prunes.  The pass does the same operations on each row
as a pass over the row's store alone, so every bound and page minimum
is bit-equal to it.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right

from ..exceptions import QueryError
from .signature import TrajectorySignatures, stack_signatures

__all__ = ["SignatureFilter", "DEFAULT_PROBES"]

#: Number of midpoint probes per bound evaluation.  More probes tighten
#: the Lipschitz slack (the subintervals shrink) at linear cost.
DEFAULT_PROBES = 32

#: Sidecar rows per numpy pass: bounds the ``[probes, rows]`` work
#: arrays at a few hundred kilobytes each however large the store is.
_ROW_BLOCK = 1024


class SignatureFilter:
    """Per-query evaluator of the signature lower bound.

    One instance is built per ``(query, period, vmax)`` triple — the
    engine creates it at the top of each search; ``vmax`` is the
    search's global ``V_max``, which caps every row's pair speed — and
    memoises the
    per-trajectory bounds, so repeated checks against a tightening
    threshold cost one lookup.  The filters :meth:`over_parts` returns
    share the memo of one pass over the parts' stacked stores.
    """

    __slots__ = (
        "sigs",
        "query",
        "t_start",
        "t_end",
        "vmax",
        "query_speed",
        "probes",
        "checks",
        "pruned",
        "_bounds",
        "_page_min",
        "_qpos",
        "_stack",
        "_owner",
        "_row_base",
        "_pages",
    )

    def __init__(
        self,
        sigs: TrajectorySignatures,
        query,
        t_start: float,
        t_end: float,
        vmax: float,
        *,
        probes: int = DEFAULT_PROBES,
    ) -> None:
        if not vmax >= 0.0:  # NaN too
            raise QueryError(f"vmax must be a non-negative number, got {vmax}")
        if probes < 1:
            raise QueryError(f"probes must be >= 1, got {probes}")
        self.sigs = sigs
        self.query = query
        self.t_start = t_start
        self.t_end = t_end
        self.vmax = vmax
        self.query_speed = query.max_speed()
        self.probes = probes
        self.checks = 0
        self.pruned = 0
        # One bound per sidecar row and the least per leaf page, all
        # computed on the first lookup.
        self._bounds: list[float] | None = None
        self._page_min = None  # ndarray, one slot per leaf page and one past
        self._qpos: dict[tuple[float, float], tuple[list, list]] = {}
        # The stack the pass prices (``None`` until the pass: the
        # store's stack of one), the filter whose pass prices this
        # one's rows when it is one part of several (``None``: this
        # one; no filter refers to itself, so none outlives its query
        # in a reference cycle), where this store's rows start in that
        # pass, and the slice of its leaf pages that are this store's
        # (``None``: to the end).
        self._stack = None
        self._owner = None
        self._row_base = 0
        self._pages = (0, None)

    @classmethod
    def over_parts(
        cls,
        stores,
        query,
        t_start: float,
        t_end: float,
        vmax: float,
        *,
        probes: int = DEFAULT_PROBES,
    ) -> list["SignatureFilter | None"]:
        """One filter per part, ``None`` where ``stores`` holds
        ``None`` (a part without a sidecar).  The stores are stacked
        and priced by one pass, which the first part's filter runs and
        the others read (see the module docstring)."""
        present = [store for store in stores if store is not None]
        stack = stack_signatures(present) if present else None
        filters = []
        owner = None
        member = 0
        for store in stores:
            if store is None:
                filters.append(None)
                continue
            if owner is None:
                part = owner = cls(
                    store, query, t_start, t_end, vmax, probes=probes
                )
                owner._stack = stack
            else:
                part = copy.copy(owner)
                part._owner = owner
                part.sigs = store
                part._row_base = stack.row_base[member]
            part._pages = (stack.page_base[member], stack.page_base[member + 1])
            filters.append(part)
            member += 1
        return filters

    # ------------------------------------------------------------------
    # pruning interface
    # ------------------------------------------------------------------
    def should_prune(self, tid: int, threshold: float) -> bool:
        """True when the signature certifies ``DISSIM > threshold``.

        Strict comparison: equality never prunes, mirroring the strict
        inequalities of Heuristics 1/2, so a pruned candidate provably
        cannot displace any answer-set member.
        """
        self.checks += 1
        lb = self.bound(tid)
        if lb is not None and lb > threshold:
            self.pruned += 1
            return True
        return False

    def page_tids(self, page_id: int):
        return self.sigs.page_tids(page_id)

    def bound(self, tid: int) -> float | None:
        """Memoised lower bound for one trajectory (``None`` when the
        sidecar has no signature for it — never prune then)."""
        pos = self.sigs.position(tid)
        if pos is None:
            return None
        owner = self._owner or self
        if owner._bounds is None:
            owner._bounds, owner._page_min = owner._probe_bounds()
        return owner._bounds[self._row_base + pos]

    def page_min(self, page_id: int) -> float | None:
        """The least bound of a leaf page's trajectories: ``None`` for
        a page the sidecar does not know, ``-inf`` when one of its
        trajectories has no signature, ``inf`` for a page of none.
        Above the threshold, every trajectory on the page is settled
        or certified out, live candidates included."""
        slot = self.sigs.page_slot(page_id)
        if slot is None:
            return None
        minima = (self._owner or self)._page_min
        if minima is None:
            minima = self._priced()._page_min
        return minima[self._pages[0] + slot]

    def page_minima(self, page_ids):
        """:meth:`page_min` of many pages at once (an ``int64`` array
        in, a float64 array out), ``-inf`` for a page the sidecar does
        not know, so that no compare refuses it."""
        import numpy as np

        owner = self._priced()
        every = owner._stack.pass_columns(np).leaf_pages
        first, end = self._pages
        leaf_pages = every[first:end]
        slots = np.searchsorted(leaf_pages, page_ids)
        known = slots < len(leaf_pages)
        known[known] = leaf_pages[slots[known]] == page_ids[known]
        slots += first
        slots[~known] = len(every)
        return owner._page_min.take(slots)

    @staticmethod
    def seed_pages(filters, excluded, k: int) -> list[tuple[int, int]]:
        """Up to ``k`` ``(part, page_id)`` leaf pages to read before a
        traversal starts, least bound first (ties by their place in the
        stack): pages of the parts with a filter in ``filters`` that
        hold one trajectory, held by no other page of its part, whose
        signature spans the query period and which ``excluded`` does
        not hold.  Reading such a page completes its trajectory: a
        slice of it in another part meets the period at most at an
        endpoint."""
        import numpy as np

        ranked = []
        for part, sig_filter in enumerate(filters):
            if sig_filter is None:
                continue
            owner = sig_filter._priced()
            columns = owner._stack.pass_columns(np)
            if not len(columns.seed_pages):  # no page holds one whole trajectory
                continue
            first, end = sig_filter._pages
            if end is None:
                end = len(columns.leaf_pages)
            a, b = np.searchsorted(columns.seed_pages, (first, end))
            span = slice(a, b)
            keep = (columns.seed_first[span] <= owner.t_start) & (
                columns.seed_last[span] >= owner.t_end
            )
            slots = columns.seed_pages[span][keep]
            if len(slots):
                ranked.append((
                    owner._page_min.take(slots),
                    np.full(len(slots), part),
                    columns.leaf_pages.take(slots),
                    columns.seed_tids[span][keep],
                ))
        if not ranked:
            return []
        bounds, owners, pages, tids = (
            np.concatenate(column) for column in zip(*ranked)
        )
        seeds = []
        for i in np.argsort(bounds, kind="stable").tolist():
            part = int(owners[i])
            if int(tids[i]) not in excluded:
                seeds.append((part, int(pages[i])))
                if len(seeds) == k:
                    break
        return seeds

    def _priced(self) -> "SignatureFilter":
        """The filter whose pass prices this one's rows, after its pass."""
        owner = self._owner or self
        if owner._bounds is None:
            owner._bounds, owner._page_min = owner._probe_bounds()
        return owner

    # ------------------------------------------------------------------
    # bound evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, kt, kx, ky, radii, speed) -> float:
        """One row's bound, one probe at a time, for a row whose
        trajectory's maximum segment speed is ``speed``: the scalar
        reference :meth:`_probe_bounds` is held to, bit for bit."""
        if len(kt) < 2:
            return 0.0
        lo = kt[0] if kt[0] > self.t_start else self.t_start
        hi = kt[-1] if kt[-1] < self.t_end else self.t_end
        if lo >= hi:
            return 0.0
        vmax = min(self.query_speed + speed, self.vmax)
        return self._probe_bound_python(kt, kx, ky, radii, lo, hi, vmax)

    def _probe_times(self, lo: float, hi: float) -> tuple[float, list[float]]:
        span = hi - lo
        m = self.probes
        length = span / m
        return length, [lo + (j + 0.5) * length for j in range(m)]

    def _query_positions(self, lo: float, hi: float) -> tuple[list, list]:
        # Scalar interpolation against the query polyline at the probe
        # times of ``[lo, hi]``, for the numpy pass and the reference
        # alike — identical values by construction.  Memoised by probe
        # window:
        # trajectories spanning the whole query period (the common
        # case) share one evaluation.
        cached = self._qpos.get((lo, hi))
        if cached is not None:
            return cached
        qx: list[float] = []
        qy: list[float] = []
        for t in self._probe_times(lo, hi)[1]:
            p = self.query.position_at(t)
            qx.append(p.x)
            qy.append(p.y)
        self._qpos[(lo, hi)] = (qx, qy)
        return qx, qy

    def _probe_bound_python(self, kt, kx, ky, radii, lo, hi, vmax) -> float:
        length, times = self._probe_times(lo, hi)
        qx, qy = self._query_positions(lo, hi)
        cap = vmax * length * 0.5
        last = len(kt) - 2
        contributions = []
        for j, t in enumerate(times):
            idx = bisect_right(kt, t) - 1
            if idx < 0:
                idx = 0
            elif idx > last:
                idx = last
            frac = (t - kt[idx]) / (kt[idx + 1] - kt[idx])
            px = kx[idx] + frac * (kx[idx + 1] - kx[idx])
            py = ky[idx] + frac * (ky[idx + 1] - ky[idx])
            dx = qx[j] - px
            dy = qy[j] - py
            d = math.sqrt(dx * dx + dy * dy) - radii[idx]
            if d < 0.0:
                d = 0.0
            if vmax > 0.0:
                if d >= cap:
                    c = d * length - vmax * length * length * 0.25
                else:
                    c = d * d / vmax
            else:
                c = d * length
            contributions.append(c)
        total = 0.0
        for c in contributions:
            total += c
        return total

    def _probe_bounds(self) -> tuple[list[float], "numpy.ndarray"]:
        """The bound of every sidecar row, each value bit-equal to
        :meth:`_evaluate` on that row's knots, and the least bound of
        each leaf page's trajectories (and ``-inf`` in one slot past
        them, for a page the sidecar does not know).  Work arrays are
        probe-major — ``[probes, rows]`` — so each per-probe step runs
        over contiguous rows; rows go through in blocks of
        ``_ROW_BLOCK``.  Nothing returned or kept views the columns.
        The rows are those of ``self._stack`` (set here to the store's
        stack of one when unset), whose knots are gathered from its
        stores (``knot_times``, ``knot_gather``)."""
        import numpy as np

        sigs = self._stack
        if sigs is None:
            sigs = self._stack = stack_signatures([self.sigs])
        columns = sigs.pass_columns(np)
        offsets = columns.offsets
        rows, knot_row = columns.rows, columns.knot_row
        dt, dx, dy, radius = columns.dt, columns.dx, columns.dy, columns.radius
        m = self.probes
        # Each row's pair speed, as :meth:`_evaluate` takes it.
        speed = np.minimum(self.query_speed + columns.speed, self.vmax)
        bounds = np.zeros(len(offsets))
        bounds[-1] = -np.inf  # the row of a leaf tid without a signature
        first, last = columns.first, columns.last
        lo = np.where(first > self.t_start, first, self.t_start)
        hi = np.where(last < self.t_end, last, self.t_end)
        covered = lo < hi
        if not covered.all():
            rows, lo, hi = rows[covered], lo[covered], hi[covered]
        length = (hi - lo) / m

        # Every knot of a covered row, with the row's place in ``rows``
        # (ascending, as the knots are stored), and how many of its
        # row's probe times lie strictly below it.
        if len(rows) == len(offsets) - 1:  # every row: places are rows
            knot_place, knot_t = knot_row, sigs.knot_times(np)
        else:
            place = np.full(len(offsets) - 1, -1)
            place[rows] = np.arange(len(rows))
            knot_place = place.take(knot_row)
            knots = np.flatnonzero(knot_place >= 0)
            knot_place = knot_place.take(knots)
            knot_t = sigs.knot_times(np, knots)
        if len(rows) and lo.min() == lo.max() and hi.min() == hi.max():
            below = self._probes_below(knot_t, lo[0], length[0])
        else:
            below = self._probes_below(
                knot_t, lo.take(knot_place), length.take(knot_place)
            )

        steps = (np.arange(m) + 0.5)[:, None]
        for at in range(0, len(rows), _ROW_BLOCK):
            block = slice(at, at + _ROW_BLOCK)
            row, b_lo, b_length = rows[block], lo[block], length[block]
            vmax = speed.take(row)
            width = len(row)
            qx, qy = self._query_positions_block(b_lo, hi[block])
            if qx.shape[1] == 1:  # one window: probe times as a column
                b_length = b_length[0]
                times = b_lo[0] + steps * b_length
            else:
                times = b_lo + steps * b_length

            # bisect_right(row's knots, t) for every probe at once: a
            # knot is at or below probe ``j`` exactly when at most ``j``
            # of its row's probes lie strictly below it, so the counts
            # are running sums over a histogram of ``below``.
            k0, k1 = np.searchsorted(knot_place, (at, at + width))
            slots = below[k0:k1] * width + (knot_place[k0:k1] - at)
            known = np.bincount(slots, minlength=(m + 1) * width)
            known = known.reshape(m + 1, width).cumsum(axis=0)[:m]
            known -= 1
            seg = np.maximum(known, 0, out=known)
            np.minimum(seg, offsets[row + 1] - offsets[row] - 2, out=seg)
            seg += offsets[row]

            # x_i + frac * (x_{i+1} - x_i), as the scalar path; the
            # in-place steps only reuse buffers.
            # Each knot column is gathered where it is used: gathering
            # all three first costs more than the arithmetic between.
            knot = sigs.knot_gather(np, seg, row)
            frac = knot(0)
            np.subtract(times, frac, out=frac)
            frac /= dt.take(seg)
            ex = dx.take(seg)
            ex *= frac
            ex += knot(1)
            np.subtract(qx, ex, out=ex)
            ey = dy.take(seg)
            ey *= frac
            ey += knot(2)
            np.subtract(qy, ey, out=ey)
            ex *= ex
            ey *= ey
            ex += ey
            d = np.sqrt(ex, out=ex)
            d -= radius.take(seg)
            np.maximum(d, 0.0, out=d)
            # The hinge, written into the buffers ``frac`` and ``ey`` no
            # longer need: the same operations and choice as
            # ``where(d >= cap, d * L - vmax * L * L / 4, d * d / vmax)``,
            # with fewer arrays alive at once.  A row of speed 0 takes
            # ``d * L - 0.0``, the scalar path's ``d * L``: its cap is
            # 0, and ``d >= 0`` always chooses it.
            contributions = np.multiply(d, b_length, out=frac)
            contributions -= vmax * b_length * b_length * 0.25
            near = np.multiply(d, d, out=ey)
            with np.errstate(divide="ignore", invalid="ignore"):
                near /= vmax
            np.copyto(near, contributions, where=d >= vmax * b_length * 0.5)
            contributions = near
            # Probe by probe, matching the scalar path's left-to-right
            # accumulation (numpy's pairwise summation would reorder it).
            total = np.zeros(width)
            for contribution in contributions:
                total += contribution
            bounds[row] = total

        # One slot past the pages: a page the sidecar does not know.
        page_min = np.full(len(columns.page_filled) + 1, np.inf)
        page_min[-1] = -np.inf
        if len(columns.page_starts):
            page_min[:-1][columns.page_filled] = np.minimum.reduceat(
                bounds.take(columns.page_rows), columns.page_starts
            )
        return bounds[:-1].tolist(), page_min

    def _probes_below(self, t, lo, length):
        """For each knot time in ``t``, how many of its row's probe
        times ``lo + (j + 0.5) * length`` lie strictly below it: the
        inverse of that formula rounded up, then moved a probe at a
        time until exact comparisons against the probe times, computed
        as the pass computes them, agree.  Returns ``int64`` counts."""
        import numpy as np

        m = self.probes
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            below = np.ceil((t - lo) / length - 0.5)
        # fmax/fmin drop a NaN (a zero-length window): the loop fixes it.
        below = np.fmin(np.fmax(below, 0.0), m)
        probe = np.empty_like(below)
        while True:
            # ``(below - 1) + 0.5`` and ``below - 0.5`` are one double;
            # a probe time ``lo + (j + 0.5) * length`` is built in one
            # reused buffer (``x + lo`` is ``lo + x``, bit for bit).
            np.subtract(below, 0.5, out=probe)
            probe *= length
            probe += lo
            over = probe >= t
            over &= below > 0.0
            np.add(below, 0.5, out=probe)
            probe *= length
            probe += lo
            under = probe < t
            under &= below < m
            if not (over.any() or under.any()):
                return below.astype(np.int64)
            below += under
            below -= over

    def _query_positions_block(self, lo, hi):
        """Query coordinates at a block's probe times: one scalar
        evaluation per distinct ``(lo, hi)`` window (the memo of
        :meth:`_query_positions`), fanned out to ``[probes, rows]`` —
        or, when every row shares one window (rows spanning the whole
        query period, the common case, told by two min/max compares
        without visiting the rows), ``[probes, 1]`` columns that
        broadcast against the rows."""
        import numpy as np

        if lo.min() == lo.max() and hi.min() == hi.max():
            qx, qy = self._query_positions(float(lo[0]), float(hi[0]))
            return np.array(qx)[:, None], np.array(qy)[:, None]
        windows = list(zip(lo.tolist(), hi.tolist()))
        slots = {w: i for i, w in enumerate(dict.fromkeys(windows))}
        qpos = [self._query_positions(*window) for window in slots]
        qx = np.array([x for x, _y in qpos]).T
        qy = np.array([y for _x, y in qpos]).T
        if len(slots) == 1:
            return qx, qy
        fan = [slots[window] for window in windows]
        return qx[:, fan], qy[:, fan]
