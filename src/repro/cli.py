"""Command-line interface.

Everything a downstream user needs to try the system without writing
Python::

    python -m repro generate --kind gstd --objects 100 --samples 100 out.csv
    python -m repro build out.csv index.pages --tree rtree
    python -m repro info index.pages
    python -m repro query index.pages out.csv --object 3 --window 0.1 --k 5
    python -m repro fsck index.pages
    python -m repro stats index.pages out.csv --k 5
    python -m repro batch index.pages out.csv --queries 8 --k 5
    python -m repro shard build out.csv shards/ --shards 4 --partitioner hash
    python -m repro shard query shards/ out.csv --k 5
    python -m repro shard inspect shards/
    python -m repro stats shards/ out.csv --k 5
    python -m repro ingest init store/ --tree tbtree
    python -m repro ingest feed store/ out.csv --compact-every 5000
    python -m repro ingest query store/ --object 3 --k 5
    python -m repro ingest info store/
    python -m repro experiment table2
    python -m repro experiment quality --trucks 20 --queries 10

``query``, ``stats``, ``shard query`` and ``ingest query`` are one
verb: each opens the engine its target calls for (an index file, a
shard directory or a live store — auto-detected, as ``serve`` does),
slices a query and runs one k-MST.  Each subcommand is a thin wrapper
over the public API; the heavy lifting (and the testing surface) lives
in the library.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

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
from .index import TREES, load_index, save_index
from .sharding import PARTITIONER_KINDS
from .trajectory import read_csv, read_json, write_csv, write_json

__all__ = ["main", "build_parser"]

#: The flags several verbs share, declared once.
_FLAGS = {
    "object": dict(
        type=int, default=None,
        help="source object id for the query slice (default: random)",
    ),
    "window": dict(
        type=float, default=0.1,
        help="query length as a fraction of the source lifetime",
    ),
    "k": dict(type=int, default=5),
    "seed": dict(type=int, default=1),
    "tree": dict(choices=tuple(TREES), default="rtree"),
    "page-size": dict(type=int, default=4096),
    "signatures": dict(
        action=argparse.BooleanOptionalAction, default=True,
        help="write the trajectory-signature sidecar (<index>.sig, one "
        "per shard) that powers the query-time filter tier (default: on; "
        "an index built without it is served unfiltered)",
    ),
}
_SLICE_FLAGS = ("object", "window", "k", "seed")


def _add_flags(parser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Index-based Most Similar Trajectory Search "
        "(Frentzos et al., ICDE 2007) - reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(group, name, handler, help, **defaults):
        """One sub-command; ``defaults`` stand in for the flags of the
        shared k-MST verb that this one does not declare."""
        p = group.add_parser(name, help=help)
        p.set_defaults(handler=handler, **defaults)
        return p

    gen = verb(sub, "generate", _cmd_generate, "generate a synthetic dataset")
    gen.add_argument("output", help="output file (.csv or .json)")
    gen.add_argument("--kind", choices=("gstd", "trucks"), default="gstd")
    gen.add_argument("--objects", type=int, default=100)
    gen.add_argument("--samples", type=int, default=100)
    gen.add_argument("--seed", type=int, default=7)

    build = verb(sub, "build", _cmd_build, "build and save an index")
    build.add_argument("dataset", help="dataset file (.csv or .json)")
    build.add_argument("index", help="output index file")
    _add_flags(build, "tree", "page-size", "signatures")

    info = verb(sub, "info", _cmd_info, "describe a saved index")
    info.add_argument("index", help="index file")

    fsck = verb(
        sub, "fsck", _cmd_fsck,
        "verify a saved index (or shard directory): sidecar, digest and "
        "every page's checksum frame",
    )
    fsck.add_argument("path", help="index file or sharded manifest directory")

    query = verb(
        sub, "query", _cmd_kmst, "run a k-MST query", trace=False,
    )
    query.add_argument("target", help="index file")
    query.add_argument("dataset", help="dataset the query is drawn from")
    _add_flags(query, *_SLICE_FLAGS)

    stats = verb(
        sub, "stats", _cmd_kmst,
        "run a k-MST query under a live trace and print JSON counters",
        trace=True,
    )
    stats.add_argument("target", help="index file or shard directory")
    stats.add_argument("dataset", help="dataset the query is drawn from")
    _add_flags(stats, *_SLICE_FLAGS)
    stats.add_argument(
        "--output", default=None,
        help="write the JSON document here instead of stdout",
    )

    batch = verb(
        sub, "batch", _cmd_batch,
        "run a k-MST workload through the batched query engine",
    )
    batch.add_argument("target", help="index file")
    batch.add_argument("dataset", help="dataset the queries are drawn from")
    batch.add_argument("--queries", type=int, default=8)
    _add_flags(batch, "window", "k", "seed")
    batch.add_argument(
        "--output", default=None,
        help="write per-query + batch JSONL rows here",
    )

    serve = verb(
        sub, "serve", _cmd_serve,
        "serve queries over HTTP with admission control "
        "(POST /v1/query, GET /stats)",
    )
    serve.add_argument(
        "target",
        help="index file, sharded manifest directory, or live ingest "
        "store directory (auto-detected)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8723,
        help="listening port (0 picks a free one)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="requests admitted to execution at once (a serial engine "
        "still runs them one at a time)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="admitted-request bound; the next request gets 429",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=256,
        help="hot-query result cache size (0 disables)",
    )

    shard_sub = sub.add_parser(
        "shard", help="build, query and inspect sharded indexes"
    ).add_subparsers(dest="shard_command", required=True)

    sbuild = verb(
        shard_sub, "build", _cmd_shard_build,
        "partition a dataset and save a sharded index",
    )
    sbuild.add_argument("dataset", help="dataset file (.csv or .json)")
    sbuild.add_argument("directory", help="output manifest directory")
    _add_flags(sbuild, "tree", "page-size", "signatures")
    sbuild.add_argument("--shards", type=int, default=4)
    sbuild.add_argument(
        "--partitioner",
        choices=tuple(PARTITIONER_KINDS),
        default="hash",
    )

    squery = verb(
        shard_sub, "query", _cmd_kmst,
        "run a k-MST query against a sharded index", trace=False,
    )
    squery.add_argument("target", help="sharded manifest directory")
    squery.add_argument("dataset", help="dataset the query is drawn from")
    _add_flags(squery, *_SLICE_FLAGS)

    sinspect = verb(
        shard_sub, "inspect", _cmd_shard_inspect,
        "describe a saved sharded index",
    )
    sinspect.add_argument("directory", help="sharded manifest directory")

    ingest_sub = sub.add_parser(
        "ingest", help="live ingestion: WAL, memtable, generations"
    ).add_subparsers(dest="ingest_command", required=True)

    iinit = verb(
        ingest_sub, "init", _cmd_ingest_init, "initialise a store directory"
    )
    iinit.add_argument("directory", help="store directory to create")
    _add_flags(iinit, "tree", "page-size")
    iinit.set_defaults(tree="tbtree")

    ifeed = verb(
        ingest_sub, "feed", _cmd_ingest_feed,
        "stream a dataset's points into the store in time order",
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

    iquery = verb(
        ingest_sub, "query", _cmd_kmst,
        "run a k-MST query against the live store",
        dataset=None, trace=False,
    )
    iquery.add_argument("target", help="store directory")
    _add_flags(iquery, *_SLICE_FLAGS)

    icompact = verb(
        ingest_sub, "compact", _cmd_ingest_compact,
        "flush the memtable into a new generation",
    )
    icompact.add_argument("directory", help="store directory")

    iinfo = verb(ingest_sub, "info", _cmd_ingest_info, "describe a live store")
    iinfo.add_argument("directory", help="store directory")

    exp = verb(
        sub, "experiment", _cmd_experiment, "regenerate a paper experiment"
    )
    exp.add_argument(
        "which",
        choices=("table2", "quality", "q1", "q2", "q3"),
        help="which table/figure to regenerate",
    )
    exp.add_argument("--scale", type=float, default=1.0)
    exp.add_argument("--trucks", type=int, default=25, help="quality: fleet size")
    exp.add_argument("--queries", type=int, default=10)
    return parser


def _cmd_generate(args) -> int:
    if args.kind == "gstd":
        dataset = generate_gstd(args.objects, args.samples, seed=args.seed)
    else:
        dataset = generate_trucks(args.objects, args.samples, seed=args.seed)
    writer = write_json if args.output.endswith(".json") else write_csv
    writer(dataset, args.output)
    print(
        f"wrote {len(dataset)} trajectories / "
        f"{dataset.total_segments()} segments to {args.output}"
    )
    return 0


def _read_dataset(path):
    """Read a dataset file, JSON or CSV by its suffix."""
    return read_json(path) if Path(path).suffix == ".json" else read_csv(path)


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
    """Slice a query out of the dataset per the ``--object/--window/
    --seed`` flags; returns ``(source_id, query)``, or ``(source_id,
    None)`` when there is no such object to slice."""
    rng = random.Random(args.seed)
    ids = dataset.ids()
    source_id = args.object
    if source_id is None and ids:
        source_id = ids[rng.randrange(len(ids))]
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
    return 0 if report.ok else 1


@contextmanager
def _open_engine(args):
    """Open the engine ``args.target`` calls for — a sharded manifest
    directory, a live ingest store, or a single index file — and close
    it and what is under it on exit.  Yields ``(engine, draw_from)``:
    ``draw_from()`` is the dataset a query is sliced from (the dataset
    file, or what a live store holds now); the engine itself reads no
    dataset."""
    from .engine import LiveQueryEngine, QueryEngine, ShardedQueryEngine
    from .ingest import IngestStore
    from .ingest.store import MANIFEST_NAME as INGEST_MANIFEST
    from .sharding import MANIFEST_NAME as SHARD_MANIFEST

    target = Path(args.target)
    draw_from = lambda: _read_dataset(args.dataset)
    with ExitStack() as under:
        if (target / SHARD_MANIFEST).exists():
            engine = ShardedQueryEngine.open(target)
            under.callback(engine.index.close)
        elif (target / INGEST_MANIFEST).exists():
            store = under.enter_context(IngestStore.open(target))
            engine = LiveQueryEngine(store)
            draw_from = store.current_dataset
        elif target.is_dir():
            raise ReproError(
                f"{target} is a directory but holds neither a sharded "
                f"manifest ({SHARD_MANIFEST}) nor an ingest store "
                f"({INGEST_MANIFEST})"
            )
        else:
            engine = QueryEngine.open(target)
            under.callback(engine.index.pagefile.close)
        with engine:
            yield engine, draw_from


def _cmd_kmst(args) -> int:
    """The one k-MST verb behind ``query``, ``stats``, ``shard query``
    and ``ingest query``: slice a query, execute it on the target's
    engine, print the ranks (or, traced, the JSON document)."""
    from .obs import query_trace
    from .search import QuerySpec

    with _open_engine(args) as (engine, draw_from):
        source_id, query = _pick_query(args, draw_from())
        if query is None:
            print(f"error: no trajectory {source_id!r} to draw a query from "
                  f"in {args.dataset or args.target}", file=sys.stderr)
            return 2
        spec = QuerySpec("mst", query, (query.t_start, query.t_end), k=args.k)
        tracing = (
            query_trace(engine.index, name=f"object-{source_id}")
            if args.trace else nullcontext()
        )
        start = time.perf_counter()
        with tracing as trace:
            result = engine.execute(spec)
        elapsed = time.perf_counter() - start
        if trace is None:
            _print_ranks(args, source_id, query, result, elapsed)
        else:
            _print_trace_doc(args, source_id, query, result, trace)
    return 0


def _print_ranks(args, source_id, query, result, elapsed: float) -> None:
    stats = result.stats
    per_shard = stats.extra.get("per_shard", [])
    over = f" over {len(per_shard)} shards" if per_shard else ""
    print(
        f"query: {args.window:.0%} slice of object {source_id} "
        f"([{query.t_start:.2f}, {query.t_end:.2f}]){over}"
    )
    for rank, m in enumerate(result.matches, start=1):
        print(f"  {rank:2d}. object {m.trajectory_id}  DISSIM={m.dissim:.6g}")
    shards = (
        f", {stats.extra['shards_searched']} shards searched / "
        f"{stats.extra['shards_pruned']} pruned" if per_shard else ""
    )
    print(
        f"{elapsed * 1000:.1f} ms, pruning power {stats.pruning_power:.1%} "
        f"({stats.node_accesses}/{stats.total_nodes} nodes){shards}"
    )
    if stats.signature_checks or stats.leaf_skips:
        print(
            f"filter: {stats.signature_pruned}/{stats.signature_checks} "
            f"signature checks pruned, {stats.leaf_skips} leaves skipped"
        )
    for row in per_shard:
        if row["pruned"]:
            print(f"  shard {row['shard']}: pruned by planner")
        else:
            print(
                f"  shard {row['shard']}: "
                f"{row['node_accesses']}/{row['total_nodes']} nodes, "
                f"{row['entries_processed']} entries"
            )


def _print_trace_doc(args, source_id, query, result, trace) -> None:
    stats = result.stats
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
            for m in result.matches
        ],
        "search_stats": stats.as_dict(),
        "trace": trace.as_dict(),
    }
    if "per_shard" in stats.extra:
        for key in ("per_shard", "shards_searched", "shards_pruned"):
            doc[key] = stats.extra[key]
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote trace to {args.output}")
    else:
        print(text)


def _cmd_batch(args) -> int:
    from .datagen import make_workload
    from .search import QuerySpec

    with _open_engine(args) as (engine, draw_from):
        workload = make_workload(
            draw_from(), args.queries, query_length=args.window, seed=args.seed
        )
        batch = engine.run_batch(
            [QuerySpec("mst", q, p, k=args.k) for q, p in workload]
        )
        print(
            f"{len(batch)} queries in {batch.wall_time_s * 1000:.1f} ms "
            f"({batch.queries_per_sec:.1f} q/s, {batch.executor} executor)"
        )
        cache = batch.cache_counters
        print(
            f"  buffer: {cache['engine.buffer.hits']} hits, "
            f"{cache['engine.buffer.pinned']} pages pinned"
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
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import ReproServer, ServeConfig

    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        cache_entries=args.cache_entries,
    )

    async def run(server) -> None:
        await server.start()
        host, port = server.address
        print(
            f"serving {type(server.engine).__name__} on http://{host}:{port} "
            f"({serve_config.workers} workers, "
            f"{serve_config.max_inflight} max inflight); "
            "SIGTERM/Ctrl-C drains"
        )
        await server.serve_until_drained()

    with _open_engine(args) as (engine, _draw_from):
        server = ReproServer(engine, serve_config)
        try:
            asyncio.run(run(server))
        except KeyboardInterrupt:
            pass
    print(server.drain_summary())
    return 0


def _cmd_shard_build(args) -> int:
    from .sharding import (
        ShardedDataset,
        build_sharded_index,
        make_partitioner,
        save_sharded_index,
    )

    coerced = _coerce_int_ids(_read_dataset(args.dataset))
    partitioner = make_partitioner(args.partitioner, args.shards)
    sharded_ds = ShardedDataset.partition(coerced, partitioner)
    start = time.perf_counter()
    sharded = build_sharded_index(
        sharded_ds, TREES[args.tree], page_size=args.page_size
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


def _cmd_shard_inspect(args) -> int:
    from .sharding import load_sharded_index
    from .sharding.persistence import read_manifest

    manifest = read_manifest(args.directory)
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
    try:
        return args.handler(args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
