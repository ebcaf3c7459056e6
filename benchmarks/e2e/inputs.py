"""Everything the program is fed.

The harness side of the wall.  Datasets come from the repo's GSTD
generator with the paper's Table 2 settings (log-normal speed, sigma 0.6,
random heading); queries are slices of random data trajectories (Table 3)
that cycle query length {2 %, 5 %, 10 %} x k {1, 5, 10} — the paper's
Q2/Q3 axes.  The program only ever receives the files and
:class:`~repro.search.spec.QuerySpec` documents written here.

What ``--seed`` draws.  The *sample*: every workload has a frozen pool of
queries (drawn once with :data:`POOL_SEED`; the truth tables answer the
pool), and the seed picks which of them a run asks — the same number from
each (length, k) cell — and in which order.  The dataset, the Zipf rank
sequence of ``sharded_serve``, the feed of ``ingest_live`` and its
checkpoint questions are fixed parts of the workload definition.  Measured
on this repo: across ten dataset seeds the leaf entries BFMST processes
per query move by 11 % between quartiles (log-normal speeds give each
dataset its own ``max_speed``, which the pruning bounds use); and with
queries drawn afresh per seed the median latency of 54 of them moved by
16 % between quartiles while their mean moved by 4 % — the 9 cells cost
between 10 and 150 ms, so the median sits wherever the draw put the middle
cells.  A benchmark that has to resolve a tenth cannot spend its bound on
either draw.  With fixed data ``disk_bytes_per_point``, set-up work, cache
hit counts and compaction counts repeat exactly, and no run computes truth.

Sizes.  The issue sized the workloads for 30-120 s measured phases at
Table-2 scale (S1000 x 100 samples, ~24 s of set-up); the driver that
judges later PRs allows ~37 s per run *including* set-ups.  The ``full`` scale is therefore 40 % of the issue's segments
for the two trees (500 x 80: the R-tree beats the scan it replaces, the
TB-tree does not — the issue's own finding at S0500) and a third for the
served shards, and buys that size with fewer requests per pass.

Passes.  The host this was sized on speeds up and slows down by up to
1.7x, in episodes of a second to minutes (REPEATABILITY.md).  So the
measured phase is several passes over the same frozen
requests, each against a freshly opened program (cold caches and buffers:
every request is a first request in every pass), and a request's figure is
its median over the passes.  Request counts are fixed (``per_s`` x
``--seconds`` per pass, whole 9-cell cycles), so a run does the same work
on every commit.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from repro import QuerySpec, Trajectory, TrajectoryDataset, generate_gstd, make_query, write_csv

DATASET_SEED = 7  # build_dataset()'s default in repro.experiments
QUERY_LENGTHS = (0.02, 0.05, 0.10)
KS = (1, 5, 10)
CYCLE = len(QUERY_LENGTHS) * len(KS)
POOL_SEED = 2007  # draws every workload's frozen query pool
#: the trace sample: the first 27 queries of the run's sample, 3 per cell
TRACE_SAMPLE = 3 * CYCLE
WARMUP = 5
SETUPS = 2  # per run; setup_s is their median
PACED_SHARE = 0.4  # of ingest_live's stream: fed in bursts with rests, the rest flat out

#: ``pool``: frozen queries the seed samples from; ``per_s``: requests in
#: one pass per second of ``--seconds``; ``passes``: how often the pass is
#: repeated.  At the default ``--seconds 15`` a pass is 72 of 90 (R-tree)
#: or 45 of 54 (TB-tree) queries, 216 served requests over 36 of 45 specs,
#: or 2 400 points fed in bursts beside a reader cycling 63 of 72 queries and
#: then 3 600 flat out.
SCALES = {
    "full": {
        "rtree_engine": {
            "objects": 500, "samples": 80, "tree": "rtree", "pool": 90, "per_s": 4.8, "passes": 3,
        },
        "tbtree_engine": {
            "objects": 500, "samples": 80, "tree": "tbtree", "pool": 54, "per_s": 3.0, "passes": 4,
        },
        "sharded_serve": {
            "objects": 400, "samples": 70, "shards": 4, "clients": 2,
            "pool": 45, "distinct_share": 1 / 6, "per_s": 14.4, "passes": 3,
        },
        "ingest_live": {
            "objects": 150, "samples": 160, "preload_share": 0.25, "passes": 4,
            "feed_per_s": 400, "compact_every": 1600, "pool": 72, "reader_specs": 63,
        },
    },
    "smoke": {
        "rtree_engine": {
            "objects": 100, "samples": 25, "tree": "rtree", "pool": 27, "count": 18, "passes": 2,
        },
        "tbtree_engine": {
            "objects": 100, "samples": 25, "tree": "tbtree", "pool": 27, "count": 18, "passes": 2,
        },
        "sharded_serve": {
            "objects": 100, "samples": 25, "shards": 4, "clients": 2,
            "pool": 18, "distinct": 9, "count": 18, "passes": 2,
        },
        "ingest_live": {
            "objects": 40, "samples": 50, "preload_share": 0.25, "passes": 2,
            "points": 800, "compact_every": 400, "pool": 27, "reader_specs": 18,
        },
    },
}


def _whole_cycles(n: float) -> int:
    return max(CYCLE, int(round(n / CYCLE)) * CYCLE)


def sizes(workload: str, scale: str, seconds: float) -> dict:
    """The workload's sizes for this run, request counts resolved."""
    s = dict(SCALES[scale][workload])
    if "per_s" in s:
        s["count"] = _whole_cycles(s.pop("per_s") * seconds)
    if "feed_per_s" in s:
        s["points"] = int(s.pop("feed_per_s") * seconds)
    if "distinct_share" in s:
        s["distinct"] = _whole_cycles(s.pop("distinct_share") * s["count"])
    asked = "distinct" if "distinct" in s else "reader_specs" if "reader_specs" in s else "count"
    s[asked] = min(s[asked], s["pool"])  # a longer run asks the whole pool
    return s


def _rng(seed, *stream) -> random.Random:
    # str seeds hash with SHA-512 inside random.Random: stable across runs
    return random.Random(":".join(str(part) for part in (seed, *stream)))


def dataset(objects: int, samples: int) -> TrajectoryDataset:
    return generate_gstd(
        objects, samples, seed=DATASET_SEED, speed_sigma=0.6, heading="random"
    )


def _cell(i: int) -> tuple[float, int]:
    return QUERY_LENGTHS[i % 3], KS[(i // 3) % 3]


def queries(
    data: TrajectoryDataset, n: int, rng: random.Random, *, first_id: int = 1,
    t_max: float | None = None, lifetime: float = 0.0,
) -> list[QuerySpec]:
    """``n`` k-MST specs cycling the 9 (length, k) cells.  With ``t_max``
    every period ends at or before it (the live workload asks only about
    time every object has already reported) and its length is a share of
    ``lifetime``, the span the finished feed will cover."""
    out = []
    for i in range(n):
        length, k = _cell(i)
        if t_max is None:
            query, period = make_query(data, length, rng, query_id=-(first_id + i))
        else:
            ids = data.ids()
            source = data[ids[rng.randrange(len(ids))]]
            window = lifetime * length
            lo = source.t_start + rng.uniform(0.0, (t_max - source.t_start) - window)
            period = (lo, lo + window)
            query = source.sliced(*period).with_id(-(first_id + i))
        out.append(QuerySpec("mst", query, period, k))
    return out


def draw(pool: int, count: int, rng: random.Random) -> list[int]:
    """``count`` positions of a pool of ``pool`` queries: the same number
    from every (length, k) cell, in the cell order the pool itself cycles."""
    picks = [rng.sample(range(cell, pool, CYCLE), count // CYCLE) for cell in range(CYCLE)]
    return [picks[i % CYCLE][i // CYCLE] for i in range(count)]


def engine_inputs(workload: str, seed: int, size: dict, workdir: Path) -> dict:
    data = dataset(size["objects"], size["samples"])
    csv_path = workdir / "dataset.csv"
    write_csv(data, csv_path)
    pool = queries(data, size["pool"], _rng(POOL_SEED, workload, "pool"))
    picks = draw(size["pool"], size["count"], _rng(seed, workload, "sample"))
    return {
        "dataset": data,
        "csv": str(csv_path),
        "points": sum(len(tr) for tr in data),
        "pool": pool,
        "picks": picks,
        "specs": [pool[p] for p in picks],
        "warmup": queries(data, WARMUP, _rng(POOL_SEED, workload, "warmup"), first_id=10**6),
    }


def serve_inputs(workload: str, seed: int, size: dict, workdir: Path) -> dict:
    """``distinct`` specs sampled by the seed and a frozen Zipf(1.0) sequence
    of ranks over them (spec ``r`` has rank ``r``), so which request hits
    the result cache is the same on every run; request ``j`` belongs to
    client ``j % clients``."""
    inputs = engine_inputs(workload, seed, {**size, "count": size["distinct"]}, workdir)
    weights = [1.0 / rank for rank in range(1, size["distinct"] + 1)]
    inputs["stream"] = _rng(POOL_SEED, workload, "zipf").choices(
        range(size["distinct"]), weights, k=size["count"]
    )
    return inputs


def _prefix_dataset(events: list, n: int) -> TrajectoryDataset:
    history: dict[int, list] = {}
    for oid, x, y, t in events[:n]:
        history.setdefault(oid, []).append((x, y, t))
    return TrajectoryDataset(
        Trajectory(oid, pts) for oid, pts in sorted(history.items()) if len(pts) >= 2
    )


def _common_end(data: TrajectoryDataset) -> float:
    return min(tr.t_end for tr in data)


def ingest_inputs(workload: str, seed: int, size: dict, workdir: Path) -> dict:
    """A time-ordered feed, split into preload and stream, plus

    * reader specs whose periods lie inside the preloaded time range, so
      their answers do not change while later points arrive and every
      concurrent answer can be checked against one truth table;
    * checkpoint specs over the acknowledged prefix between the paced and
      the flat-out segment (reader parked) and over everything after
      close + reopen.
    """
    data = dataset(size["objects"], size["samples"])
    events = sorted((p.t, tr.object_id, p.x, p.y) for tr in data for p in tr)
    events = [(oid, x, y, t) for t, oid, x, y in events]
    preload = int(len(events) * size["preload_share"])
    stream = min(size["points"], len(events) - preload)
    events = events[: preload + stream]
    events_path = workdir / "events.csv"
    with events_path.open("w", newline="") as f:
        csv.writer(f).writerows((oid, repr(x), repr(y), repr(t)) for oid, x, y, t in events)

    preloaded = _prefix_dataset(events, preload)
    lifetime = max(tr.t_end for tr in data)

    def frozen(prefix, n, *which, first_id=1):
        return queries(
            prefix, n, _rng(POOL_SEED, workload, *which), first_id=first_id,
            t_max=_common_end(prefix), lifetime=lifetime,
        )

    pool = frozen(preloaded, size["pool"], "pool")
    picks = draw(size["pool"], size["reader_specs"], _rng(seed, workload, "sample"))
    checkpoints = []
    for j, at in enumerate((preload + int(stream * PACED_SHARE), preload + stream)):
        prefix = _prefix_dataset(events, at)
        specs = frozen(prefix, CYCLE, "checkpoint", j, first_id=10**5 * (j + 1))
        checkpoints.append({"at": at, "dataset": prefix, "specs": specs})
    return {
        "events": str(events_path),
        "points": len(events),
        "preload": preload,
        "preloaded": preloaded,
        "pool": pool,
        "picks": picks,
        "reader": [pool[p] for p in picks],
        "warmup": frozen(preloaded, WARMUP, "warmup", first_id=10**6),
        "checkpoints": checkpoints,
    }
