"""Batch executors: serial loop, thread pool, and process pool.

The threaded executor exists because a k-MST batch is dominated by
pure-Python geometry (MINDIST, trapezoid integrals) interleaved with
buffer lookups; threads overlap the latter and, on free-threaded
builds, the former.  The index must be treated as read-only for the
duration — the engine enables the buffer manager's lock before
spawning workers.  Request order is always preserved in the results.

The **process-pool executor** is the multicore path: each worker
process reopens the shard's page file itself (read-only, through the
same ``load_index`` as the parent) and communicates only through the
picklable work-unit messages of :mod:`repro.engine.planner` — a
:class:`~repro.engine.planner.ShardPlan` in, a
:class:`~repro.engine.planner.ShardAnswer` out.  Workers are
spawned once (forkserver where available, spawn otherwise) and keep a
warm per-process index cache keyed by shard path + generation
signature, so steady-state queries pay no open/teardown cost.

Executors are session objects: the pooled kinds create their pool
lazily on first use and **reuse it across batches** until ``close``
(the engine owns one executor per session and closes it with the
session).  All kinds are context managers.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

__all__ = [
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessPoolShardExecutor",
    "make_executor",
]


class _Executor:
    """What every executor is: a context manager that closes itself."""

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(_Executor):
    """Run the batch in submission order on the calling thread."""

    kind = "serial"

    def map(self, fn: Callable, requests: Sequence) -> list:
        return [fn(i, request) for i, request in enumerate(requests)]


class ThreadedExecutor(_Executor):
    """Run batches on one persistent thread pool (results stay in
    request order).

    ``max_workers=None`` picks ``min(8, cpu_count)``.  The pool is
    created on the first parallel :meth:`map` and reused by every
    subsequent call until :meth:`close`; a closed executor rebuilds the
    pool on next use.
    """

    kind = "thread"

    def __init__(self, max_workers: int | None = None):
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        self.max_workers = max(1, max_workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def map(self, fn: Callable, requests: Sequence) -> list:
        if len(requests) <= 1 or self.max_workers == 1:
            return SerialExecutor().map(fn, requests)
        pool = self._ensure_pool()
        return list(pool.map(fn, range(len(requests)), requests))

    def close(self) -> None:
        """Shut the pool down (idempotent); a later ``map`` re-creates
        it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Per-worker-process warm index cache: ``shard_path -> (index,
#: signature)``.  Lives in the *worker's* module globals — the parent
#: process never populates it.  A plan whose signature no longer
#: matches the cached store forces a reopen; a mismatch against the
#: freshly opened file is a stale plan and an error.
_WORKER_INDEXES: dict = {}


def _worker_index(plan):
    """Open (or reuse) the shard index named by ``plan`` in this
    worker, validating the generation signature either way."""
    from ..exceptions import QueryError
    from ..index import load_index

    cached = _WORKER_INDEXES.get(plan.shard_path)
    if cached is not None:
        index, signature = cached
        if signature == plan.signature:
            return index
        # The store was rebuilt: drop the stale mapping and reopen.
        del _WORKER_INDEXES[plan.shard_path]
        if index.signatures is not None:
            index.signatures.close()
        index.pagefile.close()
    index = load_index(plan.shard_path)
    signature = (index.num_nodes, index.num_entries, index.root_page)
    if signature != plan.signature:
        if index.signatures is not None:
            index.signatures.close()
        index.pagefile.close()
        raise QueryError(
            f"shard {plan.shard_id} at {plan.shard_path} has signature "
            f"{signature}, plan expected {plan.signature} — the store "
            f"changed since the plan was built"
        )
    _WORKER_INDEXES[plan.shard_path] = (index, signature)
    return index


def _execute_shard_plan(plan):
    """Search one shard in a worker process.

    This is the module-level function the process pool imports by
    reference.  It starts from a **fresh** :class:`MetricsRegistry`
    (nothing inherited from the parent), so the counters it ships back
    are per-call deltas by construction; the absolute
    ``time.monotonic()`` deadline in the plan is checked up front and
    then by the traversal at every node dequeue (the monotonic clock is
    system-wide on Linux, so the parent's deadline is meaningful
    here).  The search itself is
    :func:`~repro.search.bfmst.search_part`: the traversal an
    in-process search runs over all its shards, here over this one,
    under a bound of this worker's own.  Returns a
    :class:`~repro.engine.planner.ShardAnswer`.
    """
    from ..exceptions import DeadlineExceeded
    from ..obs import MetricsRegistry, query_trace
    from ..search.bfmst import (
        _TopK,
        _validate,
        make_signature_filters,
        search_part,
    )
    from .planner import ShardAnswer

    if plan.deadline is not None and time.monotonic() >= plan.deadline:
        raise DeadlineExceeded(
            f"deadline expired before shard {plan.shard_id} started"
        )
    index = _worker_index(plan)
    # The pool the parent's session budget gave this shard.
    index.buffer.resize(plan.buffer_pages)
    spec = plan.spec
    t_start, t_end = _validate(spec.query, spec.period, spec.k)
    opts = spec.options

    # The sidecar (auto-attached by load_index) feeds a worker-local
    # signature filter.
    (sig_filter,) = make_signature_filters(
        [index], spec.query, t_start, t_end, plan.vmax
    )

    registry = MetricsRegistry()
    with query_trace(
        index, name=f"shard-{plan.shard_id}", registry=registry
    ):
        records, stats = search_part(
            index,
            spec.query,
            t_start,
            t_end,
            plan.vmax,
            opts.get("use_heuristic1", True),
            opts.get("use_heuristic2", True),
            _TopK(spec.k),
            frozenset(opts.get("exclude_ids") or ()),
            sig_filter,
            plan.deadline,
        )
    # The traversal's heap high-water lives in a worker-side gauge;
    # carry it in the stats dict so the parent can surface it.
    stats.heap_high_water = int(registry.gauge("index.heap_high_water").value)
    return ShardAnswer.from_records(
        plan.shard_id,
        plan.signature,
        records,
        stats.as_dict(),
        dict(registry.counters),
    )


class ProcessPoolShardExecutor(_Executor):
    """Run :class:`~repro.engine.planner.ShardPlan` work units on a
    persistent pool of worker processes.

    ``max_workers=None`` picks ``min(8, cpu_count)``.  Workers are
    created lazily on the first :meth:`run_plans` with the forkserver
    start method (falling back to spawn) and live until :meth:`close`;
    each keeps a warm per-process index cache (see
    :func:`_execute_shard_plan`), so only the first query against a
    shard pays the open cost.  A worker that dies breaks its pool: the
    call in flight raises ``BrokenProcessPool`` and the next call
    starts a fresh pool.  There is no ``map``: closures over live
    engines cannot cross a process boundary, so only an engine that
    can describe its parts as plans — the sharded one, through
    :meth:`ShardedQueryEngine.run_parts
    <repro.engine.ShardedQueryEngine.run_parts>` — accepts
    ``executor="process"``.
    """

    kind = "process"

    def __init__(self, max_workers: int | None = None):
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        self.max_workers = max(1, max_workers)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                ctx = multiprocessing.get_context("forkserver")
            except ValueError:  # pragma: no cover - platform-dependent
                ctx = multiprocessing.get_context("spawn")
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=ctx
            )
        return self._pool

    def run_plans(self, plans: Sequence) -> list:
        """Execute the plans (one per shard) and return their
        :class:`~repro.engine.planner.ShardAnswer` s in plan order."""
        if not plans:
            return []
        pool = self._ensure_pool()
        try:
            return list(pool.map(_execute_shard_plan, plans))
        except BrokenProcessPool:
            # A worker died (killed, out of memory): this call fails,
            # and the pool is dropped so the next call starts a fresh one.
            if self._pool is pool:
                self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    def close(self) -> None:
        """Shut the worker pool down (idempotent); a later
        :meth:`run_plans` re-creates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(kind: str, max_workers: int | None = None):
    """``"serial"``, ``"thread"`` or ``"process"`` → executor instance."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadedExecutor(max_workers)
    if kind == "process":
        return ProcessPoolShardExecutor(max_workers)
    raise ValueError(f"unknown executor kind {kind!r} (serial|thread|process)")
