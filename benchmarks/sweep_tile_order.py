"""The sweep behind the packed R-tree's tile order (docs/PERFORMANCE.md,
"Building").  Not a pytest bench: run it by hand,

    PYTHONPATH=src python benchmarks/sweep_tile_order.py

It packs the benchmark's two datasets (GSTD 500 x 80 and 400 x 70, the
``benchmarks/e2e`` settings) with each candidate order and asks the
benchmark's frozen query pools, reporting per query: node accesses,
nodes enqueued, and bare ``bfmst_search`` time with and without the
signature sidecar; an insert-built tree is the reference row.  The
TB-tree cuts its leaves per trajectory, so only the levels above them
have an order to choose: the same axes are tried there.  The orders
live here, not in ``src/``: the winner is the one
``repro.index.packing.str_tiles`` hard-codes.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from array import array
from operator import add
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import inputs  # noqa: E402  (benchmarks/e2e/inputs.py)

from repro import RTree3D, TBTree, query_trace  # noqa: E402
from repro.filter import build_signatures  # noqa: E402
from repro.index import LeafEntry, packing  # noqa: E402
from repro.index.packing import (  # noqa: E402
    append_box,
    box_columns,
    even_chunks,
    pack_upper_levels,
    shares,
    union_box,
)
from repro.search.bfmst import bfmst_search  # noqa: E402  (the bare driver)


def tiles(boxes, capacity, axes):
    """``repro.index.packing.str_tiles`` with the axes as a parameter:
    slab / slice / run by ``axes`` (0 = x, 1 = y, 2 = t)."""
    keys = [list(map(add, boxes[a], boxes[a + 3])) for a in axes]
    n = len(boxes[0])
    pages = math.ceil(n / capacity)
    slabs = max(1, round(pages ** (1 / 3)))
    groups = []
    for slab, p in shares(sorted(range(n), key=keys[0].__getitem__), pages, slabs):
        slices = max(1, round(math.sqrt(p)))
        for run, q in shares(sorted(slab, key=keys[1].__getitem__), p, slices):
            run.sort(key=keys[2].__getitem__)
            groups.extend(even_chunks(run, q))
    return groups


def trajectory_runs(entries, boxes, capacity, run_length):
    """Leaves made of whole runs of ``run_length`` consecutive segments
    of one trajectory (Pfoser's preservation idea, packed): the runs
    are tiled by their own boxes, ``capacity // run_length`` to a leaf."""
    runs, start = [], 0
    for i in range(1, len(entries) + 1):
        if i == len(entries) or entries[i].trajectory_id != entries[start].trajectory_id:
            span = list(range(start, i))
            runs.extend(even_chunks(span, math.ceil(len(span) / run_length)))
            start = i
    run_boxes = box_columns()
    for run in runs:
        append_box(run_boxes, union_box(boxes, run))
    return [
        [i for r in group for i in runs[r]]
        for group in tiles(run_boxes, capacity // run_length, (0, 1, 2))
    ]


ORDERS = {
    "(x, y, t)": lambda e, b, c: tiles(b, c, (0, 1, 2)),
    "(t, x, y)": lambda e, b, c: tiles(b, c, (2, 0, 1)),
    "(x, t, y)": lambda e, b, c: tiles(b, c, (0, 2, 1)),
    "runs of 8": lambda e, b, c: trajectory_runs(e, b, c, 8),
    "runs of 24": lambda e, b, c: trajectory_runs(e, b, c, 24),
}


AXES = {"(x, y, t)": (0, 1, 2), "(t, x, y)": (2, 0, 1), "(x, t, y)": (0, 2, 1)}


def inserted(cls, data):
    index = cls()
    for tr in data:
        index.insert(tr)
    index.finalize()
    return index


def pack_tbtree(data, axes) -> TBTree:
    """The shipped TB-tree packer with its upper levels tiled by
    ``axes`` instead of the hard-coded order."""
    shipped = packing.str_tiles
    packing.str_tiles = lambda boxes, capacity: tiles(boxes, capacity, axes)
    try:
        index = TBTree()
        index.bulk_insert(data)
    finally:
        packing.str_tiles = shipped
    index.finalize()
    return index


def pack(data, leaf_groups) -> RTree3D:
    index = RTree3D()
    entries = [LeafEntry(tr.object_id, seg) for tr in data for seg in tr.segments()]
    boxes = tuple(array("d", col) for col in zip(*(e.mbr.as_tuple() for e in entries)))
    pages, leaf_boxes = [], box_columns()
    for group in leaf_groups(entries, boxes, index.capacity):
        leaf = index.new_node(level=0)
        leaf.entries = [entries[i] for i in group]
        pages.append(leaf.page_id)
        append_box(leaf_boxes, union_box(boxes, group))
    pack_upper_levels(index, pages, leaf_boxes)
    index.trajectory_ids.update(tr.object_id for tr in data)
    index.max_speed = data.max_speed()
    index.num_entries = len(entries)
    index.finalize()
    return index


def ask(index, specs, filter_mode):
    """Per query: node accesses, nodes enqueued (one traced pass), then
    the median over three untraced passes of the mean search time."""
    accesses = enqueued = 0
    for spec in specs:
        with query_trace(index) as trace:
            _m, stats = bfmst_search(index, spec.query, spec.period, spec.k, filter=filter_mode)
        accesses += stats.node_accesses
        enqueued += trace.registry.counters.get("index.nodes_enqueued", 0)
    passes = []
    for _ in range(3):
        index.buffer.drop()
        start = time.perf_counter()
        for spec in specs:
            bfmst_search(index, spec.query, spec.period, spec.k, filter=filter_mode)
        passes.append((time.perf_counter() - start) / len(specs) * 1e3)
    n = len(specs)
    return accesses / n, enqueued / n, statistics.median(passes)


def report(name, index, specs) -> None:
    bare = ask(index, specs, "off")
    index.signatures = build_signatures(index)
    filtered = ask(index, specs, "auto")
    print(f"{name:<12}{index.num_nodes:>6}{bare[0]:>8.1f}{bare[1]:>8.1f}{bare[2]:>8.2f}"
          f"{filtered[0]:>11.1f}{filtered[1]:>11.1f}{filtered[2]:>10.2f}")


def main() -> None:
    header = (f"{'order':<12}{'nodes':>6}{'acc/q':>8}{'enq/q':>8}{'ms/q':>8}"
              f"{'acc/q+sig':>11}{'enq/q+sig':>11}{'ms/q+sig':>10}")
    for workload in ("rtree_engine", "sharded_serve"):
        size = inputs.SCALES["full"][workload]
        data = inputs.dataset(size["objects"], size["samples"])
        specs = inputs.queries(
            data, size["pool"], inputs._rng(inputs.POOL_SEED, workload, "pool")
        )
        shape = f"GSTD {size['objects']} x {size['samples']}, {len(specs)} pool queries"
        print(f"\nR-tree, {shape}\n{header}")
        report("inserted", inserted(RTree3D, data), specs)
        for name, order in ORDERS.items():
            report(name, pack(data, order), specs)
        print(f"\nTB-tree (upper levels), {shape}\n{header}")
        report("inserted", inserted(TBTree, data), specs)
        for name, axes in AXES.items():
            report(name, pack_tbtree(data, axes), specs)


if __name__ == "__main__":
    main()
