"""The program side of the wall: runs in a fresh process per workload.

``python child.py job.json`` reads a job written by ``run.py`` (paths of
generated files, QuerySpec documents, sizes), drives the program through
its *public* functions with its shipped defaults, and writes
``result.json``: one record per request (timings, answer ids) for the
parent to check against the truth table, the set-up timings, CPU, RSS and
disk figures, and — in a traced job — the per-layer numbers and the
harness spans.  It imports nothing from the generator side and never sees
the seed.

Traced jobs re-run the *trace sample* through the rung ladder

    R0 kernels -> R1 bfmst, filter off -> R2 bfmst -> R3 QueryEngine
    -> R4 ShardedQueryEngine {serial, thread, process} -> R5 HTTP

A layer's cost is the difference between adjacent rungs on the same
queries.  Every rung pass opens the index afresh (cold caches and buffer
on every rung alike), passes are interleaved across rungs so host drift
hits them equally, and a rung's figure is the mean over queries of the
per-query median over passes.  R1/R2 pass ``kernels="auto"`` — the
engine's default — so R3 - R2 is the engine layer and not a kernel swap.
"""

from __future__ import annotations

import csv
import heapq
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from repro import (
    IngestStore,
    QueryEngine,
    QuerySpec,
    RTree3D,
    SearchResult,
    TrajectoryDataset,
    bfmst_search,
    linear_scan_kmst,
    load_index,
    query_trace,
    read_csv,
    save_index,
)
from repro.distance.kernels import segment_dissim_batch
from repro.engine import EngineConfig, ShardedQueryEngine
from repro.experiments.datasets import build_index
from repro.filter import build_signatures, signature_sidecar_path, write_signatures
from repro.index.mindist import mindist_batch
from repro.exceptions import ServeError
from repro.serve import ServeClient
from repro.sharding import (
    ShardedDataset,
    build_sharded_index,
    make_partitioner,
    save_sharded_index,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")
RUNG_PASSES = 3
STALL_S = 0.050


# ----------------------------------------------------------------------
# harness plumbing
# ----------------------------------------------------------------------
class Harness:
    """Times every public call; in a traced job also keeps a span (name,
    start, end, parent, request id) for each, in memory until exit."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: int | None = None):
        if not self.trace:
            yield
            return
        parent = getattr(self._local, "current", None)
        row = {"name": name, "parent": parent, "request": request}
        with self._lock:
            row["id"] = len(self.spans)
            self.spans.append(row)
        self._local.current = row["id"]
        row["start"] = time.perf_counter()
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._local.current = parent

    def timed(self, name: str, fn, *args, request: int | None = None, **kwargs):
        with self.span(name, request):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            return value, time.perf_counter() - start


_CAL_A = np.linspace(0.0, 1.0, 64)
_CAL_B = _CAL_A + 1.0
CAL_EVERY = 6  # requests between two calibrator readings


def calibrate() -> float:
    """Thread CPU seconds of a fixed piece of harness work with the
    program's instruction mix — float arithmetic in Python, a small heap,
    numpy calls on 64-element arrays.  The host this runs on changes speed
    by up to 1.7x, in episodes of a second to minutes, and this reading
    moves with it.  It is only of use *interleaved* with the work it
    judges — between the requests one caller times one by one, never
    inside a timed interval — where dividing by it took the spread of ten
    runs from 12 % to 4 %; readings taken either side of a 4 s phase
    predict nothing (REPEATABILITY.md), so phases with overlapping callers
    are reported as clocked.  It is the same code on every commit, so it
    cannot favour one."""
    a, b = _CAL_A, _CAL_B
    start = time.thread_time()
    heap: list = []
    acc = 0.0
    for i in range(1500):
        x = (i * 0.37) % 1.0
        y = (i * 0.11) % 1.0
        acc += (x * x + y * y) ** 0.5
        heapq.heappush(heap, (acc % 1.0, i))
        if i % 8 == 0:
            v = np.sqrt(a * x + b * y)
            acc += float(v[i % 64]) + float(np.minimum(v, b)[::2].sum())
        if len(heap) > 50:
            heapq.heappop(heap)
    return time.thread_time() - start


def spin_ms() -> float:
    """A fixed pure-Python loop: the host's speed right now, not the
    program's."""
    start = time.perf_counter()
    x = 0
    for i in range(1_500_000):
        x += i * i % 7
    return (time.perf_counter() - start) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def written_bytes() -> int:
    """Bytes this process has passed to write calls so far."""
    try:
        for line in Path("/proc/self/io").read_text().splitlines():
            if line.startswith("wchar:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def int_ids(dataset) -> TrajectoryDataset:
    # read_csv yields string ids; the indexes take integers
    return TrajectoryDataset(tr.with_id(int(tr.object_id)) for tr in dataset)


def load_specs(docs) -> list[QuerySpec]:
    return [QuerySpec.from_dict(doc) for doc in docs]


def close_index(index) -> None:
    index.buffer.unpin_all()
    index.pagefile.close()


def close_engine(engine) -> None:
    """A QueryEngine or ShardedQueryEngine and the page files under it."""
    engine.close()
    if hasattr(engine.index, "pagefile"):
        engine.index.pagefile.close()
    else:
        engine.index.close()


def answer_record(
    label: str, i: int, start: float, end: float, result=None, error=None, pass_no=0, **extra
):
    row = {
        "phase": label, "pass": pass_no, "i": i, "start": start, "end": end,
        "ok": error is None, **extra,
    }
    if result is not None:
        row["ids"] = result.ids
    if error is not None:
        row["error"] = error
    return row


def run_specs(
    h: Harness, label: str, execute, specs, records: list, *, name="execute", pass_no=0,
    cal: list | None = None,
) -> list[float]:
    """Closed loop, one caller: each spec once, in order; with ``cal`` a
    calibrator reading before every ``CAL_EVERY``-th request and one after
    the last."""
    seconds = []
    for i, spec in enumerate(specs):
        if cal is not None and i % CAL_EVERY == 0:
            cal.append(calibrate())
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            with h.span(name, i):
                result = execute(spec)
            error = None
        except Exception as exc:  # a failed request is a result, not a crash
            result, error = None, repr(exc)
        end = time.perf_counter()
        seconds.append(end - start)
        records.append(answer_record(
            label, i, start, end, result, error, pass_no, cpu=time.thread_time() - cpu
        ))
    if cal is not None:
        cal.append(calibrate())
    return seconds


def mean_ms(seconds) -> float:
    return statistics.fmean(seconds) * 1e3 if seconds else 0.0


def rung_ladder(h: Harness, rungs: dict, specs, records: list) -> dict[str, float]:
    """``rungs`` maps a rung name to a factory returning ``(execute,
    close)``; returns ms/query per rung, as clocked (see module
    docstring)."""
    per_query = {name: [[] for _ in specs] for name in rungs}
    for p in range(RUNG_PASSES):
        for name, factory in rungs.items():
            execute, close = factory()
            try:
                with h.span(f"rung:{name}"):
                    sink = records if p == 0 else []
                    seconds = run_specs(h, name, execute, specs, sink, name=name)
                    for i, s in enumerate(seconds):
                        per_query[name][i].append(s)
            finally:
                close()
    return {
        name: statistics.fmean(statistics.median(v) for v in rows) * 1e3
        for name, rows in per_query.items()
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ----------------------------------------------------------------------
# counters read under repro.obs.query_trace
# ----------------------------------------------------------------------
def traced_pass(h: Harness, execute, io_source, specs, records: list) -> tuple[list[float], dict]:
    """The sample under ``query_trace``: per-query seconds and the
    program's own counters summed over the sample."""
    totals: dict[str, float] = {}
    seconds = []

    def add(name, value):
        totals[name] = totals.get(name, 0) + value

    for i, spec in enumerate(specs):
        start = time.perf_counter()
        with h.span("traced.execute", i), query_trace(io_source) as trace:
            result = execute(spec)
        end = time.perf_counter()
        seconds.append(end - start)
        records.append(answer_record("traced", i, start, end, result))
        for name, value in trace.counters.items():
            add(name, value)
        for name, timer in trace.registry.as_dict()["timers"].items():
            add(f"timer:{name}", timer["total_seconds"])
        if trace.io is not None:
            for field in ("logical_reads", "buffer_hits", "buffer_misses",
                          "physical_reads", "evictions", "fsyncs"):
                add(f"io:{field}", getattr(trace.io, field))
        stats = result.stats
        for field in ("node_accesses", "entries_processed", "candidates_created",
                      "candidates_rejected", "refinement_candidates", "signature_checks",
                      "signature_pruned", "leaf_skips", "refinement_skipped",
                      "mindist_evaluations", "mindist_batched", "exact_integral_evals",
                      "trapezoid_evals", "kernel_batches", "kernel_segments"):
            add(f"stats:{field}", getattr(stats, field))
        add("stats:terminated_early", 1 if stats.terminated_early else 0)
        add("stats:pruning_power", stats.pruning_power)
        totals["max:heap_high_water"] = max(
            totals.get("max:heap_high_water", 0), stats.heap_high_water
        )
    return seconds, totals


def search_layer_metrics(totals: dict, n: int) -> dict:
    def q(name):
        return totals.get(name, 0) / n

    layer = {
        "search.node_accesses_q": q("stats:node_accesses"),
        "search.entries_processed_q": q("stats:entries_processed"),
        "search.candidates_q": q("stats:candidates_created"),
        "search.h1_rejections_q": q("stats:candidates_rejected"),
        "search.h2_termination_ratio": q("stats:terminated_early"),
        "search.refinements_q": q("stats:refinement_candidates"),
        "search.refinement_ms_q": q("timer:search.bfmst.refinement") * 1e3,
        "search.pruning_power": q("stats:pruning_power"),
        "filter.signature_checks_q": q("stats:signature_checks"),
        "filter.pruned_ratio": ratio(
            totals.get("stats:signature_pruned", 0), totals.get("stats:signature_checks", 0)
        ),
        "filter.leaf_skips_q": q("stats:leaf_skips"),
        "filter.refinement_skipped_q": q("stats:refinement_skipped"),
        "index.mindist_evaluations_q": q("stats:mindist_evaluations"),
        "index.mindist_batches_q": q("stats:mindist_batched"),
        "index.nodes_enqueued_q": q("index.nodes_enqueued"),
        "index.heap_high_water": totals.get("max:heap_high_water", 0),
        "storage.logical_reads_q": q("io:logical_reads"),
        "storage.buffer_hit_ratio": ratio(
            totals.get("io:buffer_hits", 0),
            totals.get("io:buffer_hits", 0) + totals.get("io:buffer_misses", 0),
        ),
        "storage.physical_reads_q": q("io:physical_reads"),
        "storage.evictions_q": q("io:evictions"),
        "distance.segment_windows_q": q("distance.segment_windows"),
        "distance.kernel_batches_q": q("stats:kernel_batches"),
        "distance.segments_per_batch": ratio(
            totals.get("stats:kernel_segments", 0), totals.get("stats:kernel_batches", 0)
        ),
        "distance.exact_integrals_q": q("stats:exact_integral_evals"),
        "distance.trapezoid_integrals_q": q("stats:trapezoid_evals"),
    }
    if "io:logical_reads" not in totals:  # no single buffer pool to read
        layer = {k: v for k, v in layer.items() if not k.startswith("storage.")}
    return layer


#: repro sub-package -> the layer its self time is booked to (the rest —
#: geometry, trajectory, obs, the interpreter's own built-ins called from
#: outside repro — is nobody's and the shares do not sum to 1)
LAYER_OF = {
    "search": "search", "index": "index", "filter": "filter", "distance": "distance",
    "storage": "storage", "engine": "engine", "sharding": "engine",
}
_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def profile_shares(h: Harness, execute, specs) -> dict:
    """Self time by layer (= repro sub-package) over the sample, from
    cProfile: where the interpreter was, not what it cost — profiling
    inflates call-heavy code, so these are shares to compare across
    workloads, never milliseconds.  A built-in's time (numpy kernels,
    struct, heapq) is booked to the module that called it."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    with h.span("profiled"):
        profiler.enable()
        try:
            for spec in specs:
                execute(spec)
        finally:
            profiler.disable()
    stats = pstats.Stats(profiler).stats
    by_layer: dict[str, float] = {}
    total = 0.0

    def book(filename: str, seconds: float) -> None:
        match = _PACKAGE.search(filename)
        layer = LAYER_OF.get(match.group(1)) if match else None
        if layer is not None:
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds

    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        total += tt
        if filename.startswith(("~", "<")):  # built-in: book to its callers
            for (caller_file, _l, _n), (_ncalls, _cc2, caller_tt, _ct2) in callers.items():
                book(caller_file, caller_tt)
        else:
            book(filename, tt)
    return {f"{layer}.self_share": seconds / total for layer, seconds in by_layer.items()}


def cache_ratios(counters: dict) -> dict:
    def hit_ratio(prefix):
        hits, misses = counters.get(f"{prefix}.hits", 0), counters.get(f"{prefix}.misses", 0)
        return ratio(hits, hits + misses)

    return {
        "engine.cache.dissim_hit_ratio": hit_ratio("engine.cache.dissim"),
        "engine.cache.mindist_hit_ratio": hit_ratio("engine.cache.mindist"),
        "engine.cache.segdissim_hit_ratio": hit_ratio("engine.cache.segdissim"),
    }


# ----------------------------------------------------------------------
# single-index pieces shared by the engine and serve workloads
# ----------------------------------------------------------------------
def build_single(h: Harness, csv_path: str, tree: str, out: Path):
    """The default user path: dataset file on disk -> first query
    answerable.  Returns the open engine and the timed parts."""
    out.mkdir(parents=True)
    start = time.perf_counter()
    with h.span("setup"):
        data, read_s = h.timed("read_csv", lambda: int_ids(read_csv(csv_path)))
        index, build_s = h.timed("build_index", build_index, data, tree)
        _meta, save_s = h.timed(
            "save_index", save_index, index, out / "index.pages", signatures=True
        )
        engine, open_s = h.timed("QueryEngine.open", QueryEngine.open, out / "index.pages")
    parts = {
        "setup_s": time.perf_counter() - start, "read_csv_s": read_s,
        "build_s": build_s, "save_s": save_s, "open_s": open_s,
    }
    return engine, index, data, parts


def bare_rungs(path: Path) -> dict:
    def bare(filter_mode):
        def factory():
            index = load_index(path)

            def execute(spec):
                return bfmst_search(
                    index, None, spec.query, period=spec.period, k=spec.k,
                    kernels="auto", filter=filter_mode,
                )

            return execute, lambda: close_index(index)

        return factory

    def engine_factory():
        engine = QueryEngine.open(path)
        return engine.execute, lambda: close_engine(engine)

    return {"R1_bfmst_nofilter": bare("off"), "R2_bfmst": bare("auto"), "R3_engine": engine_factory}


def all_nodes(index):
    stack = [index.root_page]
    while stack:
        page = stack.pop()
        node = index.read_node(page)
        yield page, node
        if not node.is_leaf:
            stack.extend(e.child_page for e in node.entries)


def kernel_rung(h: Harness, path: Path, specs) -> dict:
    """R0: the two batch kernels on inputs taken from this index's own
    leaves and nodes, one query per length; best of three."""
    index = load_index(path)
    try:
        nodes = [node for _page, node in all_nodes(index)]
    finally:
        close_index(index)
    boxes = [[e.mbr for e in node.entries] for node in nodes]
    windows = md_s = sd_s = n_boxes = 0
    for spec in specs[:3]:
        query, (lo, hi) = spec.query, spec.period
        items = []
        for node in nodes:
            if node.is_leaf:
                for e in node.entries:
                    a, b = max(e.t_start, lo), min(e.t_end, hi)
                    if a < b:
                        items.append((e.segment, a, b))
        segment_dissim_batch(query, items[:1])  # columnar view built outside the timer
        sd_s += min(
            h.timed("R0.segment_dissim_batch", segment_dissim_batch, query, items)[1]
            for _ in range(3)
        )
        windows += len(items)

        def expand_all():
            for batch in boxes:
                mindist_batch(query, batch, lo, hi)

        md_s += min(h.timed("R0.mindist_batch", expand_all)[1] for _ in range(3))
        n_boxes += sum(len(b) for b in boxes)
    return {
        "distance.segment_dissim_per_s": ratio(windows, sd_s),
        "index.mindist_per_s": ratio(n_boxes, md_s),
    }


def storage_rung(h: Harness, path: Path) -> dict:
    lister = load_index(path)  # enumerating warms a buffer: not the timed one
    try:
        pages = [page for page, _node in all_nodes(lister)]
    finally:
        close_index(lister)
    index, load_s = h.timed("load_index", load_index, path)
    try:
        passes = []
        for label in ("cold", "warm"):
            with h.span(f"read_node.{label}"):
                start = time.perf_counter()
                for page in pages:
                    index.read_node(page)
                passes.append((time.perf_counter() - start) / len(pages) * 1e6)
        out = {
            "index.load_s": load_s,
            "index.nodes": index.num_nodes,
            "index.height": index.height,
            "storage.read_node_cold_us": passes[0],
            "storage.read_node_warm_us": passes[1],
        }
    finally:
        close_index(index)
    return out


def side_timings(h: Harness, index, scratch: Path) -> dict:
    """What ``save_index(signatures=True)`` does, timed in its two parts."""
    scratch.mkdir(parents=True)
    _meta, save_s = h.timed("save_index.pages_only", save_index, index, scratch / "plain.pages")
    signatures, build_s = h.timed("build_signatures", build_signatures, index)
    _doc, write_s = h.timed(
        "write_signatures", write_signatures, signatures, scratch / "plain.pages.sig"
    )
    shutil.rmtree(scratch)
    return {"index.save_s": save_s, "filter.build_s": build_s + write_s}


def single_index_trace(h: Harness, path: Path, data, specs, records: list) -> dict:
    """Everything the traced run reads from one saved index."""
    layer: dict[str, float] = {}
    rungs = rung_ladder(h, bare_rungs(path), specs, records)
    layer["search.bfmst_ms"] = rungs["R2_bfmst"]
    layer["filter.net_ms"] = rungs["R2_bfmst"] - rungs["R1_bfmst_nofilter"]
    layer["engine.execute_ms"] = rungs["R3_engine"]
    layer["engine.overhead_ms"] = rungs["R3_engine"] - rungs["R2_bfmst"]

    # tracing overhead: same sample, fresh engine each, traced / untraced p50
    overhead = []
    for _ in range(RUNG_PASSES):
        plain = QueryEngine.open(path)
        untraced = run_specs(h, "untraced", plain.execute, specs, [])
        close_engine(plain)
        engine = QueryEngine.open(path)
        sink = records if not overhead else []
        traced, totals = traced_pass(h, engine.execute, engine.index, specs, sink)
        overhead.append(statistics.median(traced) / statistics.median(untraced))
        counters = engine.cache_counters()
        pinned = engine.metrics.value("engine.pinned_pages")
        close_engine(engine)
    layer["trace.overhead_ratio"] = statistics.median(overhead)
    execute, close = bare_rungs(path)["R3_engine"]()
    try:
        layer.update(profile_shares(h, execute, specs))
    finally:
        close()
    layer.update(search_layer_metrics(totals, len(specs)))
    layer.update(cache_ratios(counters))
    layer["engine.pinned_pages"] = pinned

    scan: list = []
    for i, spec in enumerate(specs[: len(specs) // 3]):
        _result, s = h.timed(
            "linear_scan_kmst", linear_scan_kmst, None, data, spec.query,
            period=spec.period, k=spec.k, request=i,
        )
        scan.append(s)
    layer["search.linear_scan_ms"] = mean_ms(scan)
    layer["search.speedup_vs_linear"] = ratio(layer["search.linear_scan_ms"], rungs["R2_bfmst"])
    layer.update(kernel_rung(h, path, specs))
    layer.update(storage_rung(h, path))
    return layer


# ----------------------------------------------------------------------
# rtree_engine / tbtree_engine
# ----------------------------------------------------------------------
def run_engine(h: Harness, job: dict) -> dict:
    specs, warmup = load_specs(job["specs"]), load_specs(job["warmup"])
    workdir = Path(job["workdir"])
    result = {"setups": [], "records": [], "passes": []}
    out = None
    for r in range(max(job["setups"], job["passes"])):
        if r < job["setups"]:  # a fresh build; later passes reopen the last one
            if out is not None:
                del index, data
                shutil.rmtree(out)
            out = workdir / f"program-{r}"
            engine, index, data, parts = build_single(h, job["csv"], job["tree"], out)
            result["setups"].append(parts)
        else:
            engine = QueryEngine.open(out / "index.pages")
        if r < job["passes"]:
            run_specs(h, "warmup", engine.execute, warmup, [])
            cal: list = []
            with h.span("measured", r):
                run_specs(
                    h, "measured", engine.execute, specs, result["records"], pass_no=r, cal=cal
                )
            result["passes"].append({"cal": cal})
        close_engine(engine)
    result["disk_bytes"] = dir_bytes(out)
    if job["trace"]:
        sample = specs[: job["trace_sample"]]
        layer = single_index_trace(h, out / "index.pages", data, sample, result["records"])
        layer.update(side_timings(h, index, workdir / "scratch"))
        layer["index.build_s"] = parts["build_s"]
        layer["trajectory.read_csv_s"] = parts["read_csv_s"]
        layer["storage.bytes_on_disk"] = result["disk_bytes"]
        layer["filter.sidecar_bytes_per_trajectory"] = (
            signature_sidecar_path(out / "index.pages").stat().st_size / len(data)
        )
        result["layer"] = layer
    return result


# ----------------------------------------------------------------------
# sharded_serve
# ----------------------------------------------------------------------
class Server:
    """A ``python -m repro serve`` subprocess with the hygiene the issue
    asks for: port parsed from the banner, always SIGTERM + wait for the
    ``drained`` line, and a non-zero exit, a leftover process or anything
    on stderr fails the workload."""

    BANNER = re.compile(r"serving \S+ on http://([^:\s]+):(\d+)")

    def __init__(self, h: Harness, target: Path, workdir: Path, workers: int) -> None:
        self.h = h
        self.stderr_path = workdir / f"server-{time.monotonic_ns()}.stderr"
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        self.lines: list[str] = []
        self._banner = threading.Event()
        with self.stderr_path.open("wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(target),
                 "--port", "0", "--workers", str(workers)],
                stdout=subprocess.PIPE, stderr=err, env=env, text=True,
            )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        try:
            if not self._banner.wait(timeout=60):
                raise RuntimeError("server printed no banner within 60 s")
            match = self.BANNER.search(self.lines[0])
            self.address = (match.group(1), int(match.group(2)))
            deadline = time.monotonic() + 30
            while True:
                try:
                    with ServeClient(*self.address) as client:
                        client.stats()
                    break
                except (OSError, ServeError):
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if self.BANNER.search(line):
                self._banner.set()
        self._banner.set()  # EOF without a banner: wake the waiter to fail

    def stats(self) -> dict:
        with ServeClient(*self.address) as client:
            return client.stats()

    def cpu_s(self) -> float:
        rest = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(") ", 1)[1].split()
        ticks = sum(int(rest[i]) for i in (11, 12, 13, 14))  # utime stime cutime cstime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        with self.h.span("server.stop"):
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("server did not exit within 60 s of SIGTERM") from None
            self._reader.join(timeout=10)
        stderr = self.stderr_path.read_text()
        self.stderr_path.unlink()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}: {stderr[-2000:]}")
        if not any(line.startswith("drained") for line in self.lines):
            raise RuntimeError("server exited without printing 'drained'")
        if stderr.strip():
            raise RuntimeError(f"server wrote to stderr: {stderr[-2000:]}")


def drive(
    h: Harness, address, specs, stream, clients: int, label: str, records: list, pass_no=0
) -> float:
    """Closed loop: ``clients`` keep-alive connections, request ``j`` of
    the stream sent by client ``j % clients``.  Returns the wall time."""
    rows: list[list] = [[] for _ in range(clients)]
    failures: list[BaseException] = []

    def one_client(c: int) -> None:
        try:
            with ServeClient(*address, client_id=f"bench-{c}") as client:
                for j in range(c, len(stream), clients):
                    start = time.perf_counter()
                    try:
                        with h.span("ServeClient.query", j):
                            result = client.query(specs[stream[j]])
                        error = None
                    except Exception as exc:
                        result, error = None, repr(exc)
                    end = time.perf_counter()
                    rows[c].append(answer_record(
                        label, stream[j], start, end, result, error, pass_no, request=j,
                        hit=bool(getattr(result, "served_from_cache", False)),
                    ))
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    threads = [threading.Thread(target=one_client, args=(c,)) for c in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if failures:
        raise failures[0]
    records.extend(row for client_rows in rows for row in client_rows)
    return wall


def build_sharded(h: Harness, job: dict, out: Path):
    out.mkdir(parents=True)
    start = time.perf_counter()
    with h.span("setup"):
        data, read_s = h.timed("read_csv", lambda: int_ids(read_csv(job["csv"])))

        def build():
            sharded = ShardedDataset.partition(data, make_partitioner("hash", job["shards"]))
            return build_sharded_index(sharded, RTree3D)

        index, build_s = h.timed("build_sharded_index", build)
        _none, save_s = h.timed(
            "save_sharded_index", save_sharded_index, index, out / "shards", signatures=True
        )
        index.close()
        server, start_s = h.timed(
            "server.start", Server, h, out / "shards", Path(job["workdir"]), job["workers"]
        )
    parts = {
        "setup_s": time.perf_counter() - start, "read_csv_s": read_s,
        "build_s": build_s, "save_s": save_s, "open_s": start_s, "dir": out.name,
    }
    return server, data, parts


def run_serve(h: Harness, job: dict) -> dict:
    specs, warmup = load_specs(job["specs"]), load_specs(job["warmup"])
    stream, clients = job["stream"], job["clients"]
    workdir = Path(job["workdir"])
    result = {"setups": [], "records": [], "passes": []}
    shards_dir = None
    for r in range(job["passes"]):
        if r < job["setups"]:  # a fresh build; later passes serve the last one
            if shards_dir is not None:
                del data
                shutil.rmtree(shards_dir.parent)
            server, data, parts = build_sharded(h, job, workdir / f"program-{r}")
            shards_dir = workdir / parts["dir"] / "shards"
            result["setups"].append(parts)
        else:  # a new server all the same: cold result cache and buffers
            server = Server(h, shards_dir, workdir, job["workers"])
        try:
            drive(h, server.address, warmup, list(range(len(warmup))), 1, "warmup", [])
            cpu = server.cpu_s()
            with h.span("measured", r):
                wall = drive(
                    h, server.address, specs, stream, clients, "measured", result["records"], r
                )
            cpu = server.cpu_s() - cpu
            result["passes"].append({"wall_s": wall, "cpu_s": cpu})
            result["peak_rss_mb"] = max(result.get("peak_rss_mb", 0.0), server.peak_rss_mb())
            serve = server.stats()["serve"]
        finally:
            server.stop()
    result["disk_bytes"] = dir_bytes(shards_dir)
    if job["trace"]:
        layer = serve_trace(h, job, shards_dir, data, specs, warmup, result["records"])
        c = serve["counters"]
        hits, misses = c.get("serve.cache.hits", 0), c.get("serve.cache.misses", 0)
        layer["serve.requests"] = c.get("serve.requests", 0)
        layer["serve.cache_hit_ratio"] = ratio(hits, hits + misses)
        layer["serve.rejected"] = sum(v for k, v in c.items() if k.startswith("serve.rejected"))
        layer["serve.queue_depth_high_water"] = serve["gauges"].get("serve.queue_depth", 0)
        layer["serve.clients2_vs_1_qps_ratio"] = ratio(
            len(stream) / wall, layer.pop("qps_one_client")
        )
        layer["index.build_s"] = parts["build_s"]
        layer["index.save_s"] = parts["save_s"]
        layer["trajectory.read_csv_s"] = parts["read_csv_s"]
        layer["storage.bytes_on_disk"] = result["disk_bytes"]
        result["layer"] = layer
    return result


def sharded_rungs(shards_dir: Path, warmup) -> dict:
    def factory_for(executor):
        def factory():
            engine = ShardedQueryEngine.open(
                shards_dir, config=EngineConfig(executor=executor, max_workers=2)
            )
            engine.execute(warmup[0])  # the process pool spawns on first use
            return engine.execute, lambda: close_engine(engine)  # shuts the pool down

        return factory

    return {f"R4_sharded_{ex}": factory_for(ex) for ex in ("serial", "thread", "process")}


def serve_trace(h, job, shards_dir: Path, data, specs, warmup, records) -> dict:
    sample = specs[: job["trace_sample"]]
    workdir = Path(job["workdir"])
    n = len(sample)

    # the same data as one index: R1-R3, and the single side of the ratio
    single = workdir / "single"
    single.mkdir()
    index = build_index(data, "rtree")
    save_index(index, single / "index.pages", signatures=True)
    layer = single_index_trace(h, single / "index.pages", data, sample, records)
    del index

    rungs = rung_ladder(h, sharded_rungs(shards_dir, warmup), sample, records)
    layer["engine.executor.serial_ms"] = rungs["R4_sharded_serial"]
    layer["engine.executor.thread_ms"] = rungs["R4_sharded_thread"]
    layer["engine.executor.process_ms"] = rungs["R4_sharded_process"]
    layer["engine.sharded_vs_single_ratio"] = ratio(
        rungs["R4_sharded_serial"], layer["engine.execute_ms"]
    )

    # the shards searched one by one, no shared bound, no merge
    shard_files = sorted(shards_dir.glob("shard_*.pages"))
    apart = rung_ladder(
        h, {f"R2_{p.stem}": bare_rungs(p)["R2_bfmst"] for p in shard_files}, sample, []
    )
    layer["engine.merge_share"] = ratio(
        rungs["R4_sharded_serial"] - sum(apart.values()), rungs["R4_sharded_serial"]
    )

    # the program's planner counters, read in process, and where the
    # interpreter is when the shards are searched from one thread
    engine = ShardedQueryEngine.open(shards_dir)
    layer.update(profile_shares(h, engine.execute, sample))
    close_engine(engine)
    engine = ShardedQueryEngine.open(shards_dir)
    _seconds, totals = traced_pass(h, engine.execute, None, sample, [])
    counters = engine.metrics.counters
    layer["engine.planner.shards_selected_q"] = counters.get("engine.planner.shards_selected", 0) / n
    layer["engine.planner.shards_pruned_q"] = counters.get("engine.planner.shards_pruned", 0) / n
    close_engine(engine)

    # R5 on a fresh server: the sample over the wire, every request a cache
    # miss, then again as hits; the server's execute timer splits wire
    # from work
    server = Server(h, shards_dir, workdir, job["workers"])
    try:
        drive(h, server.address, warmup, [0], 1, "warmup", [])
        before = server.stats()["serve"]["timers"]["serve.execute"]
        miss_records: list = []
        drive(h, server.address, sample, list(range(n)), 1, "R5_http", miss_records)
        execute = server.stats()["serve"]["timers"]["serve.execute"]
        hit_records: list = []
        drive(h, server.address, sample, list(range(n)), 1, "R5_http_hit", hit_records)
        answer_codec_s = answer_codec(server.address, sample[0])
    finally:
        server.stop()
    records.extend(miss_records + hit_records)
    layer["serve.miss_rtt_ms"] = mean_ms([r["end"] - r["start"] for r in miss_records])
    layer["serve.hit_rtt_ms"] = mean_ms([r["end"] - r["start"] for r in hit_records])
    layer["serve.execute_ms"] = ratio(
        execute["total_seconds"] - before["total_seconds"], execute["count"] - before["count"]
    ) * 1e3
    layer["serve.wire_overhead_ms"] = layer["serve.miss_rtt_ms"] - layer["serve.execute_ms"]
    layer["serve.self_share"] = ratio(layer["serve.wire_overhead_ms"], layer["serve.miss_rtt_ms"])
    spec_codec = []
    for spec in sample:
        start = time.perf_counter()
        QuerySpec.from_json(spec.to_json())
        spec_codec.append(time.perf_counter() - start)
    layer["serve.spec_codec_us"] = (statistics.fmean(spec_codec) + answer_codec_s) * 1e6

    # the measured traffic again with one client, for the contention ratio
    server = Server(h, shards_dir, workdir, job["workers"])
    try:
        drive(h, server.address, warmup, list(range(len(warmup))), 1, "warmup", [])
        wall = drive(h, server.address, specs, job["stream"], 1, "one_client", [])
        layer["qps_one_client"] = len(job["stream"]) / wall
    finally:
        server.stop()
    shutil.rmtree(single)
    return layer


def answer_codec(address, spec) -> float:
    """Seconds to turn one answer into its wire form and back."""
    with ServeClient(*address) as client:
        result = client.query(spec)
    start = time.perf_counter()
    SearchResult.from_json(result.to_json())
    result.answer_json()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# ingest_live
# ----------------------------------------------------------------------
def read_events(path: str) -> list[tuple]:
    with open(path, newline="") as f:
        return [(int(oid), float(x), float(y), float(t)) for oid, x, y, t in csv.reader(f)]


def kmst_result(store, spec) -> SearchResult:
    matches, stats = store.kmst(spec.query, spec.period, spec.k)
    return SearchResult("bfmst", matches, stats)


FLAT_CHUNK = 200  # points between two calibrator readings of the flat-out segment
PACED_BURST = 50  # points the paced writer appends before it rests
PACED_REST = 2.0  # ... for this many times as long as the burst took


def ingest_pass(h: Harness, job: dict, events, specs: dict, out: Path, r: int, records: list):
    """One pass: fresh store, preload + compact (the set-up); a *paced*
    segment with a closed-loop reader beside the writer (what a query costs
    while a feed arrives, compactions included); a checkpoint;
    a *flat-out* segment ending in ``sync()``, the writer alone (points
    absorbed per second: what the write path costs — beside a flat-out
    writer the reader only gets the store's lock a few times a second, and
    how often is the scheduler's choice, not the program's); close, reopen.
    Returns the pass's figures."""
    preload, trace = job["preload"], job["trace"]
    half, half_specs = specs["checkpoints"][0]
    final, final_specs = specs["checkpoints"][1]
    reader_specs = specs["reader"]

    start = time.perf_counter()
    with h.span("setup"):
        store, _s = h.timed(
            "IngestStore.create", IngestStore.create, out,
            sync_every=job["sync_every"], auto_compact_points=job["compact_every"],
        )
        h.timed("IngestStore.extend", store.extend, events[:preload])
        _g, compact_s = h.timed("IngestStore.compact", store.compact)
    info = {"setup_s": time.perf_counter() - start, "compact_s": compact_s}
    run_specs(h, "warmup", lambda spec: kmst_result(store, spec), specs["warmup"], [])

    # closed-loop reader: one caller that asks again as soon as it is answered
    done = threading.Event()
    failures: list[BaseException] = []
    rows: list[dict] = []
    cal_reader: list[float] = []

    def reader() -> None:
        try:
            i = 0
            while not done.is_set():
                if i % CAL_EVERY == 0:  # between two requests, each timed on its own
                    cal_reader.append(calibrate())
                run_specs(
                    h, "measured", lambda spec: kmst_result(store, spec),
                    [reader_specs[i % len(reader_specs)]], rows, name="IngestStore.kmst",
                    pass_no=r,
                )
                rows[-1].update(i=i % len(reader_specs), request=i)
                i += 1
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    appends: list[float] = []

    def append_all(batch) -> None:
        if trace:  # per-append timing is tracing: not in the end-to-end run
            for event in batch:
                a = time.perf_counter()
                store.append(*event)
                appends.append(time.perf_counter() - a)
        else:
            for event in batch:
                store.append(*event)

    written = written_bytes()
    thread = threading.Thread(target=reader, name="bench-reader")
    trace_cm = query_trace(None) if trace else None
    live_trace = trace_cm.__enter__() if trace else None
    try:
        # paced by duty, not by the clock: the writer appends a burst, then
        # rests twice as long as the burst took, so it keeps the store busy a
        # third of the time on a fast host and on a slow one alike.  (At a
        # fixed points/s a slower host leaves the reader less than
        # proportionally less: its latency moved by 50 % when the host moved
        # by 20 %.)  What an append costs shows in the flat-out segment.
        thread.start()
        try:
            with h.span("paced", r):
                clock = time.perf_counter()
                for lo in range(preload, half, PACED_BURST):
                    _none, busy = h.timed(
                        "append.burst", append_all, events[lo:min(half, lo + PACED_BURST)]
                    )
                    time.sleep(busy * PACED_REST)
                info["paced_s"] = time.perf_counter() - clock
        finally:
            done.set()
            thread.join()
        if failures:
            raise failures[0]
        records.extend(rows)
        # checkpoint: live answers against a rebuild of what was acknowledged
        run_specs(
            h, f"checkpoint-{half}", lambda s: kmst_result(store, s), half_specs, records,
            pass_no=r,
        )
        # flat out, timed chunk by chunk with the calibrator between chunks
        cal, chunks = [calibrate()], []
        with h.span("flatout", r):
            for lo in range(half, final, FLAT_CHUNK):
                _none, seconds = h.timed("append.chunk", append_all, events[lo:lo + FLAT_CHUNK])
                chunks.append(seconds)
                cal.append(calibrate())
            chunks.append(h.timed("IngestStore.sync", store.sync)[1])
    finally:
        if trace:
            trace_cm.__exit__(None, None, None)
    info.update(flat_s=sum(chunks), flat_cal=cal, cal=cal_reader)
    info["disk_bytes"] = dir_bytes(out)
    info["written"] = written_bytes() - written
    info["counters"] = dict(store.metrics.counters)
    info["appends"] = appends
    info["fsyncs"] = live_trace.counters.get("storage.fsync", 0) if trace else 0
    store.close()

    reopened, info["reopen_s"] = h.timed("IngestStore.open", IngestStore.open, out)
    run_specs(
        h, f"checkpoint-{final}", lambda s: kmst_result(reopened, s), final_specs, records,
        pass_no=r,
    )
    info["replayed"] = reopened.metrics.counters.get("ingest.wal_replayed_records", 0)
    return reopened, info


def run_ingest(h: Harness, job: dict) -> dict:
    events = read_events(job["events"])
    specs = {
        "reader": load_specs(job["reader"]),
        "warmup": load_specs(job["warmup"]),
        "checkpoints": [(cp["at"], load_specs(cp["specs"])) for cp in job["checkpoints"]],
    }
    workdir = Path(job["workdir"])
    result = {"setups": [], "records": [], "passes": []}
    records = result["records"]
    for r in range(job["passes"]):
        out = workdir / f"program-{r}"
        reopened, info = ingest_pass(h, job, events, specs, out, r, records)
        result["setups"].append({"setup_s": info["setup_s"]})
        result["passes"].append({
            "flat_s": info["flat_s"], "flat_cal": info["flat_cal"], "cal": info["cal"],
            "flat_points": len(events) - specs["checkpoints"][0][0],
        })
        result["disk_bytes"] = info["disk_bytes"]
        if r < job["passes"] - 1:
            reopened.close()
            shutil.rmtree(out)

    try:
        if job["trace"]:
            sample = specs["reader"][: job["trace_sample"]]
            overhead = []
            for _ in range(RUNG_PASSES):
                untraced = run_specs(
                    h, "untraced", lambda s: kmst_result(reopened, s), sample, []
                )
                traced, totals = traced_pass(
                    h, lambda s: kmst_result(reopened, s), None, sample, []
                )
                overhead.append(statistics.median(traced) / statistics.median(untraced))
            shares = profile_shares(h, lambda s: kmst_result(reopened, s), sample)
    finally:
        reopened.close()

    if job["trace"]:
        appends = sorted(info["appends"])
        stalls = [a for a in appends if a > STALL_S]
        latency = sorted(r["end"] - r["start"] for r in records if r["phase"] == "measured")
        counters = info["counters"]
        stream_points = len(events) - job["preload"]
        half_points = specs["checkpoints"][0][0]
        layer = search_layer_metrics(totals, len(sample))
        layer.update(shares)  # of a query against the idle store, after the feed
        layer.update({
            "trace.overhead_ratio": statistics.median(overhead),
            "ingest.append_p50_us": statistics.median(appends) * 1e6,
            "ingest.append_p99_us": appends[int(len(appends) * 0.99)] * 1e6,
            "ingest.append_stall_max_ms": appends[-1] * 1e3,
            "ingest.stall_s_total": sum(stalls),
            "ingest.self_share": sum(appends) / (info["paced_s"] + info["flat_s"]),
            "ingest.compactions": counters.get("ingest.compactions", 0),
            "ingest.compaction_s_total": info["compact_s"] + sum(stalls),
            "ingest.wal_syncs": counters.get("ingest.wal_syncs", 0),
            "ingest.bytes_written_per_point": ratio(info["written"], 32 * stream_points),
            "ingest.reopen_s": info["reopen_s"],
            "ingest.wal_replayed_records": info["replayed"],
            "ingest.query_p80_ms": latency[int(len(latency) * 0.8)] * 1e3,
            "ingest.query_max_ms": latency[-1] * 1e3,
            "ingest.points_per_s": result["passes"][-1]["flat_points"] / info["flat_s"],
            "ingest.paced_points_per_s": (half_points - job["preload"]) / info["paced_s"],
            "storage.fsyncs": info["fsyncs"],
            "storage.bytes_on_disk": result["disk_bytes"],
        })
        result["layer"] = layer
    return result


# ----------------------------------------------------------------------
RUNNERS = {
    "rtree_engine": run_engine,
    "tbtree_engine": run_engine,
    "sharded_serve": run_serve,
    "ingest_live": run_ingest,
}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    h = Harness(job["trace"])
    spin_before = spin_ms()
    wall = time.perf_counter()
    with h.span(job["workload"]):
        result = RUNNERS[job["workload"]](h, job)
    result["wall_s"] = time.perf_counter() - wall
    result.setdefault("peak_rss_mb", peak_rss_mb())
    result["spin_ms"] = [spin_before, spin_ms()]
    if job["trace"]:
        Path(job["spans"]).write_text(json.dumps({"workload": job["workload"], "spans": h.spans}))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
