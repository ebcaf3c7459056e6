"""Command-line interface.

Everything a downstream user needs to try the system without writing
Python::

    python -m repro generate --kind gstd --objects 100 --samples 100 out.csv
    python -m repro build out.csv index.pages --tree rtree
    python -m repro info index.pages
    python -m repro query index.pages out.csv --object 3 --window 0.1 --k 5
    python -m repro query index.pages out.csv --k 5 --backend mmap
    python -m repro fsck index.pages
    python -m repro stats index.pages out.csv --k 5
    python -m repro batch index.pages out.csv --queries 8 --k 5 --repeat 2
    python -m repro shard build out.csv shards/ --shards 4 --partitioner hash
    python -m repro shard query shards/ out.csv --k 5 --executor thread
    python -m repro shard inspect shards/
    python -m repro stats shards/ out.csv --k 5 --per-shard
    python -m repro ingest init store/ --tree tbtree
    python -m repro ingest feed store/ out.csv --compact-every 5000
    python -m repro ingest query store/ --object 3 --k 5
    python -m repro ingest info store/
    python -m repro experiment table2
    python -m repro experiment quality --trucks 20 --queries 10

Each subcommand is a thin wrapper over the public API; the heavy
lifting (and the testing surface) lives in the library.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import __version__
from .datagen import generate_gstd, generate_trucks
from .exceptions import ReproError
from .experiments import (
    DEFAULT_MEASURES,
    print_table,
    q1_cardinality,
    q2_query_length,
    q3_k,
    quality_experiment,
    scaled_specs,
    table2,
)
from .index import load_index, save_index
from .search import bfmst_search
from .trajectory import read_csv, read_json, write_csv, write_json

__all__ = ["main", "build_parser"]

_TREE_CHOICES = ("rtree", "tbtree", "strtree")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Index-based Most Similar Trajectory Search "
        "(Frentzos et al., ICDE 2007) - reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("output", help="output file (.csv or .json)")
    gen.add_argument("--kind", choices=("gstd", "trucks"), default="gstd")
    gen.add_argument("--objects", type=int, default=100)
    gen.add_argument("--samples", type=int, default=100)
    gen.add_argument("--seed", type=int, default=7)

    build = sub.add_parser("build", help="build and save an index")
    build.add_argument("dataset", help="dataset file (.csv or .json)")
    build.add_argument("index", help="output index file")
    build.add_argument("--tree", choices=_TREE_CHOICES, default="rtree")
    build.add_argument("--page-size", type=int, default=4096)
    build.add_argument(
        "--signatures", action=argparse.BooleanOptionalAction, default=True,
        help="write the trajectory-signature sidecar (<index>.sig) that "
        "powers the query-time filter tier (default: on)",
    )

    info = sub.add_parser("info", help="describe a saved index")
    info.add_argument("index", help="index file")

    fsck = sub.add_parser(
        "fsck",
        help="verify a saved index (or shard directory): sidecar, "
        "digest and every page's checksum frame",
    )
    fsck.add_argument("path", help="index file or sharded manifest directory")
    fsck.add_argument(
        "--verbose", action="store_true",
        help="print a verdict for every page, not just the bad ones",
    )

    def add_backend_flag(p):
        p.add_argument(
            "--backend", choices=("disk", "mmap"), default="disk",
            help="page-store backend for serving (mmap is read-only, "
            "zero-copy)",
        )

    def add_kernels_flag(p):
        p.add_argument(
            "--kernels", choices=("auto", "numpy", "python"), default="auto",
            help="hot-path kernels: 'numpy' forces the vectorised batch "
            "kernels, 'python' the pure-Python reference, 'auto' "
            "(default) picks numpy when importable",
        )

    def add_filter_flag(p):
        p.add_argument(
            "--filter", choices=("auto", "on", "off"), default="auto",
            help="signature filter tier: 'auto' (default) uses the "
            "per-trajectory signature sidecar when the index carries "
            "one, 'on' requires it, 'off' never consults it "
            "(answers are byte-identical either way)",
        )

    query = sub.add_parser("query", help="run a k-MST query")
    query.add_argument("index", help="index file")
    query.add_argument("dataset", help="dataset the query is drawn from")
    query.add_argument(
        "--object", type=int, default=None,
        help="source object id for the query slice (default: random)",
    )
    query.add_argument(
        "--window", type=float, default=0.1,
        help="query length as a fraction of the source lifetime",
    )
    query.add_argument("--k", type=int, default=5)
    query.add_argument("--seed", type=int, default=1)
    add_backend_flag(query)
    add_kernels_flag(query)
    add_filter_flag(query)

    stats = sub.add_parser(
        "stats",
        help="run a k-MST query under a live trace and print JSON counters",
    )
    stats.add_argument("index", help="index file")
    stats.add_argument("dataset", help="dataset the query is drawn from")
    stats.add_argument(
        "--object", type=int, default=None,
        help="source object id for the query slice (default: random)",
    )
    stats.add_argument(
        "--window", type=float, default=0.1,
        help="query length as a fraction of the source lifetime",
    )
    stats.add_argument("--k", type=int, default=5)
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument(
        "--output", default=None,
        help="write the JSON document here instead of stdout",
    )
    stats.add_argument(
        "--per-shard", action="store_true",
        help="index is a sharded manifest directory; include the "
        "per-shard breakdown in the JSON document",
    )
    add_backend_flag(stats)
    add_kernels_flag(stats)
    add_filter_flag(stats)

    batch = sub.add_parser(
        "batch",
        help="run a k-MST workload through the batched query engine",
    )
    batch.add_argument("index", help="index file")
    batch.add_argument("dataset", help="dataset the queries are drawn from")
    batch.add_argument("--queries", type=int, default=8)
    batch.add_argument(
        "--window", type=float, default=0.1,
        help="query length as a fraction of the source lifetime",
    )
    batch.add_argument("--k", type=int, default=5)
    batch.add_argument("--seed", type=int, default=1)
    batch.add_argument(
        "--repeat", type=int, default=2,
        help="how many times each query appears in the batch",
    )
    batch.add_argument(
        "--executor", choices=("serial", "thread"), default="serial"
    )
    batch.add_argument("--workers", type=int, default=None)
    batch.add_argument(
        "--output", default=None,
        help="write per-query + batch JSONL rows here",
    )
    add_backend_flag(batch)
    add_kernels_flag(batch)
    add_filter_flag(batch)

    serve = sub.add_parser(
        "serve",
        help="serve queries over HTTP with admission control "
        "(POST /v1/query, GET /stats)",
    )
    serve.add_argument(
        "target",
        help="index file, sharded manifest directory, or live ingest "
        "store directory (auto-detected)",
    )
    serve.add_argument(
        "--dataset", default=None,
        help="dataset file; required for the scan-based query kinds "
        "(linear_scan, continuous_nn, time_relaxed)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8723,
        help="listening port (0 picks a free one)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="query execution threads",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="admitted-request bound; the next request gets 429",
    )
    serve.add_argument(
        "--quota-rps", type=float, default=0.0,
        help="per-client sustained requests/second (0 disables quotas)",
    )
    serve.add_argument(
        "--quota-burst", type=int, default=20,
        help="per-client burst allowance",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=10_000.0,
        help="default per-query deadline budget",
    )
    serve.add_argument(
        "--max-deadline-ms", type=float, default=60_000.0,
        help="hard cap on any requested deadline budget",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=256,
        help="hot-query result cache size (0 disables)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds to let admitted requests finish on SIGTERM",
    )
    add_backend_flag(serve)
    add_kernels_flag(serve)
    add_filter_flag(serve)

    shard = sub.add_parser(
        "shard", help="build, query and inspect sharded indexes"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    sbuild = shard_sub.add_parser(
        "build", help="partition a dataset and save a sharded index"
    )
    sbuild.add_argument("dataset", help="dataset file (.csv or .json)")
    sbuild.add_argument("directory", help="output manifest directory")
    sbuild.add_argument("--tree", choices=_TREE_CHOICES, default="rtree")
    sbuild.add_argument("--page-size", type=int, default=4096)
    sbuild.add_argument("--shards", type=int, default=4)
    sbuild.add_argument(
        "--partitioner",
        choices=("round_robin", "hash", "spatial", "temporal"),
        default="hash",
    )
    sbuild.add_argument(
        "--signatures", action=argparse.BooleanOptionalAction, default=True,
        help="write a trajectory-signature sidecar per shard "
        "(default: on)",
    )

    squery = shard_sub.add_parser(
        "query", help="run a k-MST query against a sharded index"
    )
    squery.add_argument("directory", help="sharded manifest directory")
    squery.add_argument("dataset", help="dataset the query is drawn from")
    squery.add_argument(
        "--object", type=int, default=None,
        help="source object id for the query slice (default: random)",
    )
    squery.add_argument(
        "--window", type=float, default=0.1,
        help="query length as a fraction of the source lifetime",
    )
    squery.add_argument("--k", type=int, default=5)
    squery.add_argument("--seed", type=int, default=1)
    squery.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default="serial",
        help="shard fan-out: in-process serial/threaded, or one worker "
        "process per shard over shared mmap pages",
    )
    squery.add_argument("--workers", type=int, default=None)
    add_backend_flag(squery)
    add_kernels_flag(squery)
    add_filter_flag(squery)

    sinspect = shard_sub.add_parser(
        "inspect", help="describe a saved sharded index"
    )
    sinspect.add_argument("directory", help="sharded manifest directory")

    ingest = sub.add_parser(
        "ingest", help="live ingestion: WAL, memtable, generations"
    )
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True)

    iinit = ingest_sub.add_parser("init", help="initialise a store directory")
    iinit.add_argument("directory", help="store directory to create")
    iinit.add_argument("--tree", choices=_TREE_CHOICES, default="tbtree")
    iinit.add_argument("--page-size", type=int, default=4096)

    ifeed = ingest_sub.add_parser(
        "feed",
        help="stream a dataset's points into the store in time order",
    )
    ifeed.add_argument("directory", help="store directory")
    ifeed.add_argument("dataset", help="dataset file (.csv or .json)")
    ifeed.add_argument(
        "--sync-every", type=int, default=64,
        help="fsync the WAL every N appends (1 = per-point durability)",
    )
    ifeed.add_argument(
        "--compact-every", type=int, default=None,
        help="compact after absorbing this many memtable points",
    )

    iquery = ingest_sub.add_parser(
        "query", help="run a k-MST query against the live store"
    )
    iquery.add_argument("directory", help="store directory")
    iquery.add_argument(
        "--object", type=int, default=None,
        help="source object id for the query slice (default: random)",
    )
    iquery.add_argument(
        "--window", type=float, default=0.1,
        help="query length as a fraction of the source lifetime",
    )
    iquery.add_argument("--k", type=int, default=5)
    iquery.add_argument("--seed", type=int, default=1)
    add_kernels_flag(iquery)
    add_filter_flag(iquery)

    icompact = ingest_sub.add_parser(
        "compact", help="flush the memtable into a new generation"
    )
    icompact.add_argument("directory", help="store directory")

    iinfo = ingest_sub.add_parser("info", help="describe a live store")
    iinfo.add_argument("directory", help="store directory")

    exp = sub.add_parser("experiment", help="regenerate a paper experiment")
    exp.add_argument(
        "which",
        choices=("table2", "quality", "q1", "q2", "q3"),
        help="which table/figure to regenerate",
    )
    exp.add_argument("--scale", type=float, default=1.0)
    exp.add_argument("--trucks", type=int, default=25, help="quality: fleet size")
    exp.add_argument("--queries", type=int, default=10)
    return parser


def _read_dataset(path: str):
    if path.endswith(".json"):
        return read_json(path)
    return read_csv(path)


def _write_dataset(dataset, path: str) -> None:
    if path.endswith(".json"):
        write_json(dataset, path)
    else:
        write_csv(dataset, path)


def _cmd_generate(args) -> int:
    if args.kind == "gstd":
        dataset = generate_gstd(args.objects, args.samples, seed=args.seed)
    else:
        dataset = generate_trucks(args.objects, args.samples, seed=args.seed)
    _write_dataset(dataset, args.output)
    print(
        f"wrote {len(dataset)} trajectories / "
        f"{dataset.total_segments()} segments to {args.output}"
    )
    return 0


def _coerce_int_ids(dataset):
    """CSV round-trips ids as strings; the index wants ints."""
    from .trajectory import TrajectoryDataset

    coerced = TrajectoryDataset()
    for tr in dataset:
        oid = tr.object_id
        coerced.add(tr.with_id(int(oid)) if not isinstance(oid, int) else tr)
    return coerced


def _cmd_build(args) -> int:
    from .experiments import build_index

    coerced = _coerce_int_ids(_read_dataset(args.dataset))
    start = time.perf_counter()
    index = build_index(coerced, args.tree, page_size=args.page_size)
    elapsed = time.perf_counter() - start
    meta = save_index(index, args.index, signatures=args.signatures)
    suffix = ""
    if meta.get("signatures"):
        suffix = f" (+{meta['signatures']['trajectories']}-signature sidecar)"
    print(
        f"built {args.tree} over {index.num_entries} segments in "
        f"{elapsed:.1f}s: {index.num_nodes} nodes, {index.size_mb():.2f} MB "
        f"-> {args.index}{suffix}"
    )
    return 0


def _cmd_info(args) -> int:
    index = load_index(args.index)
    try:
        print(f"kind:        {type(index).__name__}")
        print(f"page size:   {index.page_size}")
        print(f"nodes:       {index.num_nodes}")
        print(f"entries:     {index.num_entries}")
        print(f"height:      {index.height}")
        print(f"objects:     {len(index.trajectory_ids)}")
        print(f"size:        {index.size_mb():.2f} MB")
        print(f"max speed:   {index.max_speed:.6g}")
    finally:
        index.pagefile.close()
    return 0


def _pick_query(args, dataset):
    """Slice a query out of the dataset per the query/stats options;
    returns ``(source_id, query)`` or ``(source_id, None)`` when the
    requested object does not exist."""
    rng = random.Random(args.seed)
    ids = dataset.ids()
    source_id = args.object if args.object is not None else ids[
        rng.randrange(len(ids))
    ]
    source = dataset.get(source_id) or dataset.get(str(source_id))
    if source is None:
        return source_id, None
    window = source.duration * args.window
    t_lo = source.t_start + rng.uniform(0.0, source.duration - window)
    return source_id, source.sliced(t_lo, t_lo + window).with_id(-1)


def _cmd_fsck(args) -> int:
    from .index import fsck as run_fsck

    report = run_fsck(args.path)
    print(report.summary())
    if args.verbose:
        for rep in [report] + report.shards:
            for page in rep.pages:
                detail = f": {page.detail}" if page.detail else ""
                print(f"  {rep.path}: page {page.page_id}: "
                      f"{page.status}{detail}")
    return 0 if report.ok else 1


def _cmd_query(args) -> int:
    index = load_index(args.index, backend=args.backend)
    try:
        dataset = _read_dataset(args.dataset)
        source_id, query = _pick_query(args, dataset)
        if query is None:
            print(f"error: no trajectory {source_id!r} in {args.dataset}",
                  file=sys.stderr)
            return 2
        start = time.perf_counter()
        result = bfmst_search(
            index, None, query, period=(query.t_start, query.t_end),
            k=args.k, kernels=args.kernels, filter=args.filter,
        )
        matches, stats = result.matches, result.stats
        elapsed = time.perf_counter() - start
        print(
            f"query: {args.window:.0%} slice of object {source_id} "
            f"([{query.t_start:.2f}, {query.t_end:.2f}])"
        )
        for rank, m in enumerate(matches, start=1):
            print(f"  {rank:2d}. object {m.trajectory_id}  DISSIM={m.dissim:.6g}")
        print(
            f"{elapsed * 1000:.1f} ms, pruning power "
            f"{stats.pruning_power:.1%} "
            f"({stats.node_accesses}/{stats.total_nodes} nodes)"
        )
        if stats.signature_checks or stats.leaf_skips:
            print(
                f"filter: {stats.signature_pruned}/{stats.signature_checks} "
                f"signature checks pruned, {stats.leaf_skips} leaves "
                f"skipped, {stats.refinement_skipped} refinements skipped"
            )
    finally:
        index.pagefile.close()
    return 0


def _cmd_stats(args) -> int:
    from .obs import query_trace

    if args.per_shard:
        from .sharding import load_sharded_index

        index = load_sharded_index(args.index, backend=args.backend)
    else:
        index = load_index(args.index, backend=args.backend)
    try:
        dataset = _read_dataset(args.dataset)
        source_id, query = _pick_query(args, dataset)
        if query is None:
            print(f"error: no trajectory {source_id!r} in {args.dataset}",
                  file=sys.stderr)
            return 2
        with query_trace(index, name=f"object-{source_id}") as trace:
            result = bfmst_search(
                index, None, query,
                period=(query.t_start, query.t_end), k=args.k,
                kernels=args.kernels, filter=args.filter,
            )
        matches, stats = result.matches, result.stats
        doc = {
            "query": {
                "source_object": source_id,
                "window_fraction": args.window,
                "period": [query.t_start, query.t_end],
                "k": args.k,
                "seed": args.seed,
            },
            "matches": [
                {"trajectory_id": m.trajectory_id, "dissim": m.dissim,
                 "error_bound": m.error_bound, "exact": m.exact}
                for m in matches
            ],
            "search_stats": stats.as_dict(),
            "trace": trace.as_dict(),
        }
        if args.per_shard:
            doc["per_shard"] = stats.extra.get("per_shard", [])
            doc["shards_searched"] = stats.extra.get("shards_searched")
            doc["shards_pruned"] = stats.extra.get("shards_pruned")
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote trace to {args.output}")
        else:
            print(text)
    finally:
        if args.per_shard:
            index.close()
        else:
            index.pagefile.close()
    return 0


def _cmd_batch(args) -> int:
    from .datagen import make_workload
    from .engine import EngineConfig, QueryEngine, QueryRequest

    config = EngineConfig(
        executor=args.executor, max_workers=args.workers,
        kernels=args.kernels, filter=args.filter,
    )
    engine = QueryEngine.open(
        args.index, args.dataset, config=config, backend=args.backend
    )
    try:
        workload = list(
            make_workload(
                engine.dataset, args.queries,
                query_length=args.window, seed=args.seed,
            )
        )
        requests = [
            QueryRequest("mst", q, p, k=args.k) for q, p in workload
        ] * max(1, args.repeat)
        batch = engine.run_batch(requests)
        print(
            f"{len(batch)} queries in {batch.wall_time_s * 1000:.1f} ms "
            f"({batch.queries_per_sec:.1f} q/s, {batch.executor} executor)"
        )
        cache = batch.cache_counters
        hits = cache.get("engine.cache.dissim.hits", 0)
        total = hits + cache.get("engine.cache.dissim.misses", 0)
        ratio = hits / total if total else 0.0
        print(f"  dissim cache: {hits}/{total} hits ({ratio:.0%})")
        print(
            f"  buffer: {cache.get('engine.buffer.hits', 0)} hits, "
            f"{cache.get('engine.buffer.pinned', 0)} pages pinned"
        )
        if args.output:
            with open(args.output, "w") as fh:
                for i, result in enumerate(batch):
                    row = {"type": "query", "rank": i}
                    row.update(result.as_dict())
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
                summary = {"type": "batch"}
                summary.update(batch.as_dict())
                fh.write(json.dumps(summary, sort_keys=True) + "\n")
            print(f"wrote {len(batch) + 1} JSONL rows to {args.output}")
    finally:
        engine.close()
        engine.index.pagefile.close()
    return 0


def _open_serving_engine(args):
    """Open the right engine for ``repro serve``'s target: a sharded
    manifest directory, a live ingest store, or a single index file.
    Returns ``(engine, cleanup)``."""
    from pathlib import Path

    from .engine import (
        EngineConfig,
        LiveQueryEngine,
        QueryEngine,
        ShardedQueryEngine,
    )

    config = EngineConfig(
        executor="thread", max_workers=args.workers, kernels=args.kernels,
        filter=args.filter,
    )
    target = Path(args.target)
    if target.is_dir():
        from .ingest.store import MANIFEST_NAME as INGEST_MANIFEST
        from .sharding import MANIFEST_NAME as SHARD_MANIFEST

        if (target / SHARD_MANIFEST).exists():
            engine = ShardedQueryEngine.open(
                target, args.dataset, config=config, backend=args.backend
            )

            def cleanup():
                engine.close()
                engine.index.close()

            return engine, cleanup
        if (target / INGEST_MANIFEST).exists():
            from .ingest import IngestStore

            store = IngestStore.open(target)
            engine = LiveQueryEngine(store, config=config)

            def cleanup():
                engine.close()
                store.close()

            return engine, cleanup
        raise ReproError(
            f"{target} is a directory but holds neither a sharded "
            f"manifest ({SHARD_MANIFEST}) nor an ingest store "
            f"({INGEST_MANIFEST})"
        )
    engine = QueryEngine.open(
        target, args.dataset, config=config, backend=args.backend
    )

    def cleanup():
        engine.close()
        engine.index.pagefile.close()

    return engine, cleanup


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import ReproServer, ServeConfig

    engine, cleanup = _open_serving_engine(args)
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        default_deadline_ms=args.deadline_ms,
        max_deadline_ms=args.max_deadline_ms,
        cache_entries=args.cache_entries,
        drain_grace_s=args.drain_grace,
    )

    async def run() -> None:
        server = ReproServer(engine, serve_config)
        await server.start()
        host, port = server.address
        print(
            f"serving {type(engine).__name__} on http://{host}:{port} "
            f"({serve_config.workers} workers, "
            f"{serve_config.max_inflight} max inflight, "
            f"quota {serve_config.quota_rps or 'off'} rps); "
            "SIGTERM/Ctrl-C drains"
        )
        await server.serve_until_drained()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        cleanup()
    print("drained; all admitted requests finished")
    return 0


def _cmd_shard(args) -> int:
    return {
        "build": _cmd_shard_build,
        "query": _cmd_shard_query,
        "inspect": _cmd_shard_inspect,
    }[args.shard_command](args)


def _cmd_shard_build(args) -> int:
    from .index import RTree3D, STRTree, TBTree
    from .sharding import (
        ShardedDataset,
        build_sharded_index,
        make_partitioner,
        save_sharded_index,
    )

    index_cls = {"rtree": RTree3D, "tbtree": TBTree, "strtree": STRTree}[
        args.tree
    ]
    coerced = _coerce_int_ids(_read_dataset(args.dataset))
    partitioner = make_partitioner(args.partitioner, args.shards)
    sharded_ds = ShardedDataset.partition(coerced, partitioner)
    start = time.perf_counter()
    sharded = build_sharded_index(
        sharded_ds, index_cls, page_size=args.page_size
    )
    elapsed = time.perf_counter() - start
    try:
        save_sharded_index(
            sharded, args.directory, signatures=args.signatures
        )
        sizes = ", ".join(str(n) for n in sharded_ds.shard_sizes())
        print(
            f"built {args.shards}x {args.tree} ({args.partitioner} "
            f"partitioner) over {sharded.num_entries} segments in "
            f"{elapsed:.1f}s: {sharded.num_nodes} nodes, "
            f"{sharded.size_mb():.2f} MB -> {args.directory}"
        )
        print(f"trajectories per shard: [{sizes}]")
    finally:
        sharded.close()
    return 0


def _cmd_shard_query(args) -> int:
    from .engine import EngineConfig, QueryRequest, ShardedQueryEngine

    config = EngineConfig(
        executor=args.executor, max_workers=args.workers,
        kernels=args.kernels, filter=args.filter,
    )
    engine = ShardedQueryEngine.open(
        args.directory, config=config, backend=args.backend
    )
    try:
        dataset = _read_dataset(args.dataset)
        source_id, query = _pick_query(args, dataset)
        if query is None:
            print(f"error: no trajectory {source_id!r} in {args.dataset}",
                  file=sys.stderr)
            return 2
        start = time.perf_counter()
        result = engine.execute(
            QueryRequest(
                "mst", query, (query.t_start, query.t_end), k=args.k
            )
        )
        elapsed = time.perf_counter() - start
        matches, stats = result.matches, result.stats
        print(
            f"query: {args.window:.0%} slice of object {source_id} "
            f"([{query.t_start:.2f}, {query.t_end:.2f}]) over "
            f"{engine.index.num_shards} shards ({args.executor})"
        )
        for rank, m in enumerate(matches, start=1):
            print(f"  {rank:2d}. object {m.trajectory_id}  DISSIM={m.dissim:.6g}")
        print(
            f"{elapsed * 1000:.1f} ms, pruning power "
            f"{stats.pruning_power:.1%} "
            f"({stats.node_accesses}/{stats.total_nodes} nodes), "
            f"{stats.extra.get('shards_searched', 0)} shards searched / "
            f"{stats.extra.get('shards_pruned', 0)} pruned"
        )
        if stats.signature_checks or stats.leaf_skips:
            print(
                f"filter: {stats.signature_pruned}/{stats.signature_checks} "
                f"signature checks pruned, {stats.leaf_skips} leaves "
                f"skipped, {stats.refinement_skipped} refinements skipped"
            )
        for row in stats.extra.get("per_shard", []):
            if row.get("pruned"):
                print(f"  shard {row['shard']}: pruned by planner")
            else:
                print(
                    f"  shard {row['shard']}: "
                    f"{row['node_accesses']}/{row['total_nodes']} nodes, "
                    f"{row['entries_processed']} entries"
                )
    finally:
        engine.close()
        engine.index.close()
    return 0


def _cmd_shard_inspect(args) -> int:
    from .sharding import MANIFEST_NAME, load_sharded_index
    from pathlib import Path

    manifest = json.loads(
        (Path(args.directory) / MANIFEST_NAME).read_text()
    )
    index = load_sharded_index(args.directory)
    try:
        part = manifest["partitioner"]
        print(f"kind:        {manifest['kind']} x {index.num_shards} shards")
        print(f"partitioner: {part['kind']}")
        print(f"nodes:       {index.num_nodes}")
        print(f"entries:     {index.num_entries}")
        print(f"objects:     {len(index.trajectory_ids)}")
        print(f"size:        {index.size_mb():.2f} MB")
        print(f"max speed:   {index.max_speed:.6g}")
        for i, (shard, extent) in enumerate(
            zip(index.shards, index.extents())
        ):
            if extent is None:
                print(f"  shard {i}: empty")
                continue
            print(
                f"  shard {i}: {shard.num_nodes} nodes, "
                f"{shard.num_entries} entries, "
                f"{len(shard.trajectory_ids)} objects, "
                f"t=[{extent.tmin:.1f}, {extent.tmax:.1f}]"
            )
    finally:
        index.close()
    return 0


def _cmd_ingest(args) -> int:
    return {
        "init": _cmd_ingest_init,
        "feed": _cmd_ingest_feed,
        "query": _cmd_ingest_query,
        "compact": _cmd_ingest_compact,
        "info": _cmd_ingest_info,
    }[args.ingest_command](args)


def _cmd_ingest_init(args) -> int:
    from .ingest import IngestStore

    with IngestStore.create(
        args.directory, tree=args.tree, page_size=args.page_size
    ) as store:
        print(
            f"initialised {args.directory} "
            f"(tree={store.tree}, page_size={store.page_size})"
        )
    return 0


def _cmd_ingest_feed(args) -> int:
    from .ingest import IngestStore

    dataset = _coerce_int_ids(_read_dataset(args.dataset))
    events = sorted(
        (p.t, tr.object_id, p.x, p.y) for tr in dataset for p in tr
    )
    with IngestStore.open(
        args.directory,
        sync_every=args.sync_every,
        auto_compact_points=args.compact_every,
    ) as store:
        start = time.perf_counter()
        for t, oid, x, y in events:
            store.append(oid, x, y, t)
        store.sync()
        elapsed = time.perf_counter() - start
        rate = len(events) / elapsed if elapsed > 0 else 0.0
        print(
            f"absorbed {len(events)} points of {len(dataset)} objects "
            f"in {elapsed:.2f}s ({rate:.0f} points/s); "
            f"generation {store.generation_number}, "
            f"{store.memtable_points} memtable points"
        )
    return 0


def _cmd_ingest_query(args) -> int:
    from .ingest import IngestStore

    with IngestStore.open(args.directory) as store:
        dataset = store.current_dataset()
        if len(dataset) == 0:
            print("error: the store holds no queryable trajectories",
                  file=sys.stderr)
            return 2
        source_id, query = _pick_query(args, dataset)
        if query is None:
            print(f"error: no object {source_id!r} in the store",
                  file=sys.stderr)
            return 2
        start = time.perf_counter()
        matches, stats = store.kmst(
            query, (query.t_start, query.t_end), k=args.k,
            kernels=args.kernels, filter=args.filter,
        )
        elapsed = time.perf_counter() - start
        print(
            f"query from object {source_id} over "
            f"[{query.t_start:.1f}, {query.t_end:.1f}] "
            f"(generation {store.generation_number}, "
            f"{store.memtable_points} memtable points)"
        )
        for rank, m in enumerate(matches, start=1):
            print(f"  {rank}. object {m.trajectory_id}  "
                  f"dissim={m.dissim:.4f}")
        print(
            f"{elapsed * 1000.0:.1f} ms, {stats.node_accesses} node "
            f"accesses, pruning power {stats.pruning_power:.3f}"
        )
    return 0


def _cmd_ingest_compact(args) -> int:
    from .ingest import IngestStore

    with IngestStore.open(args.directory) as store:
        number = store.compact()
        if number is None:
            print("memtable empty; nothing to compact")
        else:
            print(f"published generation {number}")
    return 0


def _cmd_ingest_info(args) -> int:
    from .ingest import IngestStore

    with IngestStore.open(args.directory) as store:
        print(json.dumps(store.info(), indent=2))
    return 0


def _cmd_experiment(args) -> int:
    if args.which == "table2":
        rows = table2(scaled_specs(0.05 * args.scale))
        print_table(
            ["dataset", "objects", "entries", "R-tree MB", "TB-tree MB"],
            [
                [r["dataset"], r["objects"], r["entries"], r["rtree_mb"],
                 r["tbtree_mb"]]
                for r in rows
            ],
            title="Table 2",
        )
        return 0
    if args.which == "quality":
        dataset = generate_trucks(
            args.trucks, samples_per_truck=120, seed=29, length_variation=0.5
        )
        points = quality_experiment(
            dataset, max_queries=args.queries, seed=5
        )
        ps = sorted({pt.p for pt in points})
        by = {(pt.measure, pt.p): pt for pt in points}
        print_table(
            ["measure"] + [f"p={p * 100:g}%" for p in ps],
            [
                [m] + [f"{by[(m, p)].failure_rate:.0%}" for p in ps]
                for m in DEFAULT_MEASURES
            ],
            title="Figure 9: false 1-MST results",
        )
        return 0
    runner = {"q1": q1_cardinality, "q2": q2_query_length, "q3": q3_k}[args.which]
    points = runner(
        samples_per_object=max(int(150 * args.scale), 20),
        num_queries=args.queries,
        page_size=512,
    )
    print_table(
        ["tree", "value", "mean ms", "pruning", "node accesses"],
        [
            [p.tree, p.value, p.mean_time_ms, p.mean_pruning_power,
             p.mean_node_accesses]
            for p in points
        ],
        title=f"Figure 10 {args.which.upper()}",
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "build": _cmd_build,
        "info": _cmd_info,
        "fsck": _cmd_fsck,
        "query": _cmd_query,
        "stats": _cmd_stats,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "shard": _cmd_shard,
        "ingest": _cmd_ingest,
        "experiment": _cmd_experiment,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
