"""Paired in-process comparison of two source trees' query engines.

    python benchmarks/paired_engine.py OLD_TREE NEW_TREE \
        [--workload tbtree_engine] [--passes 8] [--seed 1]

Each tree is a checkout (for example a ``git archive`` of a commit
unpacked into a directory) holding ``src/repro``.  Both packages are
copied into one scratch directory as ``repro_old`` and ``repro_new``
and imported side by side in this process: the package imports itself
only relatively, so a renamed copy is the same program.  One GSTD
dataset is written to CSV once, and each build reads it back, builds
its index with its own shipped defaults, saves it with its signature
sidecar and opens a ``QueryEngine`` on it, as the end-to-end harness's
engine workloads do (``benchmarks/e2e``, whose sizes and query cells
this tool copies; it imports nothing from there).

A pass opens both engines afresh, warms each with the same queries,
then runs the query pool alternately, query by query (old then new on
even queries, new then old on odd ones), timing each ``execute`` on
the thread's CPU clock.  The two builds thus see the same host drift
within a pass, which back-to-back runs of the harness do not.  Answers
are compared id for id (a near-tie may swap two ids).  Printed: each
pass's mean CPU ms per query for both builds, their ratio (new / old),
the median ratio over passes and the number of passes the new build
won; then, beside the times, each build's work per query, averaged
over the pool (the counts repeat from pass to pass): node and leaf
accesses, entries processed, candidates created, Heuristic 1
rejections and signature checks.

``--workload ingest_live`` compares the two builds' write paths
instead, on the feed of the harness's ``ingest_live`` at ``--seconds
15`` (150 objects x 160 samples, time-ordered; a quarter preloaded and
compacted, then 2 400 points, then the 3 600-point flat-out segment,
auto-compacting every 1 600 points, WAL synced every 64).  A pass
creates one store per build in a scratch directory, times each set-up
(preload + compact) on the thread's CPU clock, feeds both stores the
untimed middle, then the flat-out segment in 200-point chunks, old
then new on even chunks and new then old on odd ones, each chunk and
the closing ``sync()`` on the thread's CPU clock, with one timed
``view()`` after each chunk (the reader's pin and memtable snapshot).
Printed per pass: both sides' set-up and flat-out CPU ms and the
flat-out ratio (new / old), and whether both stores' generation files
were equal byte for byte; then the medians and the passes won.  The
``--seed`` is not used: the feed is fixed, as in the harness.

Giving the same tree twice measures the tool's own A/A spread.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: The engine workloads of ``benchmarks/e2e/inputs.py``, full scale.
WORKLOADS = {
    "rtree_engine": {"objects": 500, "samples": 80, "tree": "rtree", "pool": 90},
    "tbtree_engine": {"objects": 500, "samples": 80, "tree": "tbtree", "pool": 54},
}
QUERY_LENGTHS = (0.02, 0.05, 0.10)
KS = (1, 5, 10)
WARMUP = 9
DATASET_SEED = 7
#: The per-query work printed beside the times: ``SearchStats`` fields.
COUNTS = (
    ("node accesses", "node_accesses"),
    ("leaf accesses", "leaf_accesses"),
    ("entries", "entries_processed"),
    ("candidates created", "candidates_created"),
    ("H1 rejections", "candidates_rejected"),
    ("signature checks", "signature_checks"),
)
#: ``ingest_live`` of ``benchmarks/e2e/inputs.py`` at ``--seconds 15``.
INGEST = {
    "objects": 150, "samples": 160, "preload": 6000, "paced": 2400,
    "flat": 3600, "compact_every": 1600, "sync_every": 64, "chunk": 200,
}


def load_build(tree: Path, name: str, scratch: Path):
    """Copy ``tree/src/repro`` to ``scratch/name`` and import it."""
    source = tree / "src" / "repro"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"{tree}: no src/repro package")
    shutil.copytree(
        source, scratch / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(name)


class Side:
    """One build: its package, its saved index and its query specs."""

    def __init__(self, pkg, csv_path: Path, tree: str, out: Path, queries, warmup):
        datasets = importlib.import_module(f"{pkg.__name__}.experiments.datasets")
        self.pkg = pkg
        data = pkg.TrajectoryDataset(
            tr.with_id(int(tr.object_id)) for tr in pkg.read_csv(csv_path)
        )
        index = datasets.build_index(data, tree)
        out.mkdir()
        self.path = out / "index.pages"
        pkg.save_index(index, self.path, signatures=True)
        self.specs = [self.spec(q) for q in queries]
        self.warmup = [self.spec(q) for q in warmup]
        self.engine = None

    def spec(self, query):
        qid, points, period, k = query
        trajectory = self.pkg.Trajectory(qid, points)
        return self.pkg.QuerySpec("mst", trajectory, period, k)

    def open(self) -> None:
        self.engine = self.pkg.QueryEngine.open(self.path)
        for spec in self.warmup:
            self.engine.execute(spec)

    def run(self, i: int) -> tuple[float, list[int], list[int]]:
        """One query: CPU seconds, the answer's ids and its ``COUNTS``."""
        start = time.thread_time()
        result = self.engine.execute(self.specs[i])
        cpu = time.thread_time() - start
        counts = [getattr(result.stats, field) for _name, field in COUNTS]
        return cpu, [m.trajectory_id for m in result.matches], counts

    def close(self) -> None:
        self.engine.close()
        self.engine.index.pagefile.close()
        self.engine = None


class IngestSide:
    """One build's store, fed the shared event list."""

    def __init__(self, pkg, events, directory: Path):
        self.pkg = pkg
        self.events = events
        self.directory = directory
        self.store = None

    def setup(self) -> float:
        """Create the store, preload it and compact; CPU seconds."""
        start = time.thread_time()
        self.store = self.pkg.IngestStore.create(
            self.directory,
            sync_every=INGEST["sync_every"],
            auto_compact_points=INGEST["compact_every"],
        )
        self.store.extend(self.events[: INGEST["preload"]])
        self.store.compact()
        return time.thread_time() - start

    def feed(self, lo: int, hi: int) -> float:
        """Append ``events[lo:hi]``; CPU seconds."""
        append = self.store.append
        start = time.thread_time()
        for event in self.events[lo:hi]:
            append(*event)
        return time.thread_time() - start

    def sync(self) -> float:
        start = time.thread_time()
        self.store.sync()
        return time.thread_time() - start

    def view(self) -> float:
        """Pin and release one view; CPU seconds."""
        start = time.thread_time()
        self.store.view().close()
        return time.thread_time() - start

    def close(self) -> dict:
        """Close the store and remove it; returns its generation files'
        digests by name."""
        self.store.close()
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(self.directory.glob("gen-*"))
        }
        shutil.rmtree(self.directory)
        return digests


def run_ingest(old_pkg, new_pkg, passes: int, scratch: Path) -> None:
    """The ``ingest_live`` mode (see the module docstring)."""
    data = old_pkg.generate_gstd(
        INGEST["objects"], INGEST["samples"], seed=DATASET_SEED,
        speed_sigma=0.6, heading="random",
    )
    events = sorted((p.t, tr.object_id, p.x, p.y) for tr in data for p in tr)
    half = INGEST["preload"] + INGEST["paced"]
    final = half + INGEST["flat"]
    events = [(oid, x, y, t) for t, oid, x, y in events[:final]]
    print(
        f"ingest_live: {len(events)} points, flat-out segment "
        f"{INGEST['flat']} points from {half}, CPU ms"
    )
    print(
        f"{'pass':>4} {'setup old':>9} {'new':>8} {'flat old':>9} "
        f"{'new':>8} {'new/old':>8} {'view us':>8} {'new':>7} files"
    )
    flat_ratios, setup_ratios = [], []
    views = [[], []]
    for p in range(passes):
        sides = [
            IngestSide(pkg, events, scratch / f"{name}-{p}")
            for pkg, name in ((old_pkg, "old"), (new_pkg, "new"))
        ]
        gc.collect()
        setup = [0.0, 0.0]
        for s in (0, 1) if p % 2 == 0 else (1, 0):
            setup[s] = sides[s].setup()
        for side in sides:
            side.feed(INGEST["preload"], half)
        flat = [0.0, 0.0]
        view = [[], []]
        for i, lo in enumerate(range(half, final, INGEST["chunk"])):
            for s in (0, 1) if i % 2 == 0 else (1, 0):
                flat[s] += sides[s].feed(lo, min(final, lo + INGEST["chunk"]))
                view[s].append(sides[s].view())
        for s in (0, 1) if p % 2 == 0 else (1, 0):
            flat[s] += sides[s].sync()
        digests = [side.close() for side in sides]
        same = "equal" if digests[0] == digests[1] else "DIFFER"
        flat_ratios.append(flat[1] / flat[0])
        setup_ratios.append(setup[1] / setup[0])
        view_us = [1e6 * statistics.fmean(v) for v in view]
        for s in (0, 1):
            views[s].append(view_us[s])
        print(
            f"{p:>4} {1000 * setup[0]:>9.1f} {1000 * setup[1]:>8.1f} "
            f"{1000 * flat[0]:>9.1f} {1000 * flat[1]:>8.1f} "
            f"{flat_ratios[-1]:>8.3f} {view_us[0]:>8.0f} {view_us[1]:>7.0f} {same}"
        )
    print(
        f"flat-out median new/old {statistics.median(flat_ratios):.3f} "
        f"(min {min(flat_ratios):.3f}, max {max(flat_ratios):.3f}), new "
        f"faster in {sum(r < 1.0 for r in flat_ratios)}/{passes} passes; "
        f"set-up median {statistics.median(setup_ratios):.3f}, new faster "
        f"in {sum(r < 1.0 for r in setup_ratios)}/{passes}; view() median "
        f"{statistics.median(views[0]):.0f} / {statistics.median(views[1]):.0f} us"
    )


def make_queries(pkg, data, n: int, rng: random.Random, first_id: int):
    """``n`` queries cycling the harness's 9 (length, k) cells, as plain
    ``(id, points, period, k)`` data each build turns into its own spec."""
    out = []
    for i in range(n):
        length, k = QUERY_LENGTHS[i % 3], KS[(i // 3) % 3]
        query, period = pkg.make_query(data, length, rng, query_id=-(first_id + i))
        out.append((query.object_id, [(p.x, p.y, p.t) for p in query], period, k))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="tree holding the baseline src/repro")
    parser.add_argument("new", type=Path, help="tree holding the candidate src/repro")
    parser.add_argument(
        "--workload", choices=sorted([*WORKLOADS, "ingest_live"]),
        default="tbtree_engine",
    )
    parser.add_argument("--passes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1, help="query pool seed")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        packages = scratch / "packages"
        packages.mkdir()
        sys.path.insert(0, str(packages))
        old_pkg = load_build(args.old.resolve(), "repro_old", packages)
        new_pkg = load_build(args.new.resolve(), "repro_new", packages)
        if args.workload == "ingest_live":
            run_ingest(old_pkg, new_pkg, args.passes, scratch)
            sys.path.remove(str(packages))
            return 0
        size = WORKLOADS[args.workload]

        data = old_pkg.generate_gstd(
            size["objects"], size["samples"], seed=DATASET_SEED,
            speed_sigma=0.6, heading="random",
        )
        csv_path = scratch / "dataset.csv"
        old_pkg.write_csv(data, csv_path)
        rng = random.Random(f"{args.seed}:{args.workload}")
        queries = make_queries(old_pkg, data, size["pool"], rng, 1)
        warmup = make_queries(old_pkg, data, WARMUP, rng, 10**6)
        sides = [
            Side(pkg, csv_path, size["tree"], scratch / name, queries, warmup)
            for pkg, name in ((old_pkg, "old"), (new_pkg, "new"))
        ]

        print(
            f"{args.workload}: {size['objects']} objects x {size['samples']} "
            f"samples, {len(queries)} queries per pass, CPU ms per query"
        )
        print(f"{'pass':>4} {'old':>9} {'new':>9} {'new/old':>8}")
        ratios = []
        differ = 0
        work = [[0] * len(COUNTS), [0] * len(COUNTS)]
        for p in range(args.passes):
            for side in sides if p % 2 == 0 else sides[::-1]:
                side.open()
            cpu = [[], []]
            gc.collect()
            for i in range(len(queries)):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                answers = {}
                for s in order:
                    seconds, answers[s], counts = sides[s].run(i)
                    cpu[s].append(seconds)
                    if p == 0:
                        work[s] = [a + b for a, b in zip(work[s], counts)]
                differ += answers[0] != answers[1]
            for side in sides:
                side.close()
            old_ms, new_ms = (1000 * statistics.fmean(c) for c in cpu)
            ratios.append(new_ms / old_ms)
            print(f"{p:>4} {old_ms:>9.3f} {new_ms:>9.3f} {ratios[-1]:>8.3f}")
        wins = sum(r < 1.0 for r in ratios)
        print(
            f"median new/old {statistics.median(ratios):.3f} "
            f"(min {min(ratios):.3f}, max {max(ratios):.3f}); "
            f"new faster in {wins}/{len(ratios)} passes; "
            f"{differ} answers with different ids"
        )
        print(f"work per query {'old':>9} {'new':>9}")
        for (name, _field), old, new in zip(COUNTS, *work):
            n = len(queries)
            print(f"{name:<18} {old / n:>9.1f} {new / n:>9.1f}")
        sys.path.remove(str(packages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
