"""Ablation — the paper's two index substrates side by side.

The paper evaluates BFMST on the 3D R-tree and the TB-tree (Sec. 5).
The bench puts both through the same Q1-style workload and reports
build time, index size, trajectory clustering, and query-time
behaviour — the trade-off Pfoser et al. describe (R-tree: spatial
discrimination; TB-tree: trajectory clustering + smallest).

Each tree is built twice: the way its paper builds it, one ``insert``
per trajectory, and the way ``build_index`` builds it, packed
statically (Sort-Tile-Recursive; see docs/PERFORMANCE.md, "Building").
"""

import time

from repro import RTree3D, TBTree, bfmst_search
from repro.datagen import generate_gstd, make_workload
from repro.experiments import build_index, format_table

from conftest import emit, scaled

PAGE_SIZE = 512


def _inserted(cls):
    def build(dataset):
        index = cls(page_size=PAGE_SIZE)
        for tr in dataset:
            index.insert(tr)
        index.finalize()
        return index

    return build


def _packed(tree):
    return lambda dataset: build_index(dataset, tree, page_size=PAGE_SIZE)


BUILDS = {
    "rtree": _inserted(RTree3D),
    "rtree (packed)": _packed("rtree"),
    "tbtree": _inserted(TBTree),
    "tbtree (packed)": _packed("tbtree"),
}


def _leaves_per_trajectory(index) -> float:
    spread: dict[int, set[int]] = {}
    for node in index.nodes():
        if node.is_leaf:
            for e in node.entries:
                spread.setdefault(e.trajectory_id, set()).add(node.page_id)
    return sum(len(s) for s in spread.values()) / len(spread)


def test_two_tree_comparison(benchmark):
    dataset = generate_gstd(
        scaled(250), samples_per_object=scaled(150), seed=31, heading="random"
    )
    workload = make_workload(dataset, scaled(8), 0.05, seed=31)

    def run_all():
        rows = []
        answer_sets = []
        for tree, build in BUILDS.items():
            t0 = time.perf_counter()
            index = build(dataset)
            build_s = time.perf_counter() - t0
            clustering = _leaves_per_trajectory(index)
            query, period = next(iter(workload))  # untimed: first-use imports
            bfmst_search(index, None, query, period=period, k=1)
            t0 = time.perf_counter()
            prune = 0.0
            accesses = 0
            answers = []
            for query, period in workload:
                result = bfmst_search(index, None, query, period=period, k=1)
                matches, stats = result.matches, result.stats
                prune += stats.pruning_power
                accesses += stats.node_accesses
                answers.append(tuple(m.trajectory_id for m in matches))
            query_ms = 1000.0 * (time.perf_counter() - t0) / len(workload)
            rows.append(
                [
                    tree,
                    build_s,
                    index.num_nodes,
                    index.size_mb(),
                    clustering,
                    accesses / len(workload),
                    query_ms,
                    prune / len(workload),
                ]
            )
            answer_sets.append(answers)
        return rows, answer_sets

    rows, answer_sets = benchmark.pedantic(run_all, rounds=1, iterations=1)

    text = format_table(
        ["tree", "build (s)", "nodes", "size MB", "leaves/trajectory",
         "node accesses", "query (ms)", "pruning power"],
        rows,
        title="Ablation: R-tree vs TB-tree, inserted and packed (5% queries, k=1)",
    )
    emit("ablation_trees", text)

    # both trees, however built, answer identically
    for other in answer_sets[1:]:
        assert other == answer_sets[0]

    by = {r[0]: r for r in rows}
    # clustering: TB-tree best (one trajectory per leaf chain)
    assert by["tbtree"][4] <= by["rtree"][4] + 1e-9
    # TB-tree is the smallest index (chained leaves).
    assert by["tbtree"][3] < by["rtree"][3]
    # packing never needs more nodes than insertion, and builds faster
    for tree in ("rtree", "tbtree"):
        assert by[f"{tree} (packed)"][2] <= by[tree][2]
        assert by[f"{tree} (packed)"][1] < by[tree][1]
    # every tree still prunes the vast majority of nodes
    for row in rows:
        assert row[7] > 0.8
