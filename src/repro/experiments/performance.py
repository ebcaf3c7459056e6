"""The performance experiments — Figure 10 / Table 3 of the paper.

Three query sets, evaluated on both trees:

* **Q1** — scale dataset cardinality (S0100...S1000), query length 5 %,
  k = 1;
* **Q2** — scale query length 1 %...100 % on S0500, k = 1;
* **Q3** — scale k 1...10 on S0500, query length 5 %.

Each point reports mean execution time and mean pruning power (the
fraction of index nodes never touched), exactly the two panels of
Figure 10.  Correctness is cross-checked against the linear scan when
``verify=True``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..datagen import make_workload
from ..index import TREES, TrajectoryIndex
from ..search import bfmst_search, linear_scan_kmst
from ..trajectory import TrajectoryDataset
from .datasets import DatasetSpec, build_dataset, build_index

__all__ = [
    "PerfPoint",
    "run_workload",
    "q1_cardinality",
    "q2_query_length",
    "q3_k",
]


@dataclass(frozen=True, slots=True)
class PerfPoint:
    """One point of a Figure 10 panel."""

    tree: str
    variable: str  # what was swept: "objects" | "query_length" | "k"
    value: float
    queries: int
    mean_time_ms: float
    mean_pruning_power: float
    mean_node_accesses: float
    mean_leaf_accesses: float
    mean_entries_processed: float
    mismatches: int  # BFMST vs linear scan disagreements (0 expected)

    @property
    def retrieval_density(self) -> float:
        """Trajectory entries integrated per leaf page read — the
        clustering benefit behind the paper's Q2 crossover claim (the
        TB-tree's trajectory-bundled pages deliver more candidate data
        per I/O as queries lengthen)."""
        if self.mean_leaf_accesses == 0:
            return 0.0
        return self.mean_entries_processed / self.mean_leaf_accesses


def run_workload(
    index: TrajectoryIndex,
    dataset: TrajectoryDataset,
    workload,
    k: int = 1,
    tree_name: str = "rtree",
    variable: str = "objects",
    value: float = 0.0,
    verify: bool = False,
) -> PerfPoint:
    """Execute every query of a workload against one index and
    aggregate time / pruning statistics."""
    total_time = 0.0
    total_pruning = 0.0
    total_accesses = 0.0
    total_leaves = 0.0
    total_entries = 0.0
    mismatches = 0
    for query, period in workload:
        start = time.perf_counter()
        result = bfmst_search(index, None, query, period=period, k=k)
        matches, stats = result.matches, result.stats
        total_time += time.perf_counter() - start
        total_pruning += stats.pruning_power
        total_accesses += stats.node_accesses
        total_leaves += stats.leaf_accesses
        total_entries += stats.entries_processed
        if verify:
            truth = linear_scan_kmst(
                None, dataset, query, period=period, k=k, exact=True
            )
            got = {m.trajectory_id for m in matches}
            want = {m.trajectory_id for m in truth.matches}
            if got != want:
                mismatches += 1
    n = len(workload)
    return PerfPoint(
        tree_name,
        variable,
        value,
        n,
        1000.0 * total_time / n,
        total_pruning / n,
        total_accesses / n,
        total_leaves / n,
        total_entries / n,
        mismatches,
    )


def _gstd_spec(num_objects: int, samples: int) -> DatasetSpec:
    return DatasetSpec(
        f"S{num_objects:04d}", "gstd", num_objects, samples, "Lognormal", 0.6
    )


def q1_cardinality(
    cardinalities=(100, 250, 500, 1000),
    samples_per_object: int = 100,
    num_queries: int = 20,
    query_length: float = 0.05,
    trees=tuple(TREES),
    seed: int = 7,
    verify: bool = False,
    page_size: int = 4096,
) -> list[PerfPoint]:
    """Q1: execution time / pruning power vs dataset cardinality.

    ``page_size`` may be scaled down together with the per-object
    sample count so the leaves-per-trajectory geometry (and with it
    the TB-tree's temporal selectivity) matches the paper's full-scale
    setup — see EXPERIMENTS.md.
    """
    points: list[PerfPoint] = []
    for n in cardinalities:
        dataset = build_dataset(_gstd_spec(n, samples_per_object), seed=seed)
        workload = make_workload(dataset, num_queries, query_length, seed=seed)
        for tree in trees:
            index = build_index(dataset, tree, page_size=page_size)
            points.append(
                run_workload(
                    index,
                    dataset,
                    workload,
                    k=1,
                    tree_name=tree,
                    variable="objects",
                    value=float(n),
                    verify=verify,
                )
            )
    return points


def q2_query_length(
    query_lengths=(0.01, 0.05, 0.25, 0.50, 1.00),
    num_objects: int = 500,
    samples_per_object: int = 100,
    num_queries: int = 10,
    trees=tuple(TREES),
    seed: int = 7,
    verify: bool = False,
    page_size: int = 4096,
) -> list[PerfPoint]:
    """Q2: execution time / pruning power vs query length on S0500."""
    dataset = build_dataset(_gstd_spec(num_objects, samples_per_object), seed=seed)
    indexes = {
        tree: build_index(dataset, tree, page_size=page_size) for tree in trees
    }
    points: list[PerfPoint] = []
    for length in query_lengths:
        workload = make_workload(dataset, num_queries, length, seed=seed)
        for tree in trees:
            points.append(
                run_workload(
                    indexes[tree],
                    dataset,
                    workload,
                    k=1,
                    tree_name=tree,
                    variable="query_length",
                    value=length,
                    verify=verify,
                )
            )
    return points


def q3_k(
    ks=(1, 2, 5, 10),
    num_objects: int = 500,
    samples_per_object: int = 100,
    num_queries: int = 10,
    query_length: float = 0.05,
    trees=tuple(TREES),
    seed: int = 7,
    verify: bool = False,
    page_size: int = 4096,
) -> list[PerfPoint]:
    """Q3: execution time / pruning power vs k on S0500."""
    dataset = build_dataset(_gstd_spec(num_objects, samples_per_object), seed=seed)
    indexes = {
        tree: build_index(dataset, tree, page_size=page_size) for tree in trees
    }
    workload = make_workload(dataset, num_queries, query_length, seed=seed)
    points: list[PerfPoint] = []
    for k in ks:
        for tree in trees:
            points.append(
                run_workload(
                    indexes[tree],
                    dataset,
                    workload,
                    k=k,
                    tree_name=tree,
                    variable="k",
                    value=float(k),
                    verify=verify,
                )
            )
    return points
