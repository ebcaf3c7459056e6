"""Dataset construction and the Table 2 summary.

Table 2 of the paper lists, per dataset: number of objects, number of
entries (line segments), the speed distribution, and the sizes of the
3D R-tree and TB-tree built over it.  :func:`table2` regenerates
exactly those columns for any scale.

The paper's full-scale datasets (S0100...S1000, ~2000 samples/object,
up to 2M entries) are one parameter away; the default ``scale``
shrinks the sample counts so a pure-Python run stays interactive (the
scaling *trends*, which is what Figure 10 is about, survive — see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datagen import generate_gstd, generate_trucks
from ..index import TrajectoryIndex, tree_class
from ..trajectory import TrajectoryDataset

__all__ = ["DatasetSpec", "PAPER_SPECS", "build_dataset", "build_index", "table2"]


@dataclass(frozen=True, slots=True)
class DatasetSpec:
    """One row of Table 2."""

    name: str
    kind: str  # "trucks" | "gstd"
    num_objects: int
    samples_per_object: int
    speed_distribution: str
    speed_sigma: float


#: The paper's datasets at full scale (Table 2).
PAPER_SPECS = (
    DatasetSpec("Trucks", "trucks", 273, 412, "Lognormal", 1.0),
    DatasetSpec("S0100", "gstd", 100, 2000, "Lognormal", 0.6),
    DatasetSpec("S0250", "gstd", 250, 2000, "Lognormal", 0.6),
    DatasetSpec("S0500", "gstd", 500, 2000, "Lognormal", 0.6),
    DatasetSpec("S1000", "gstd", 1000, 2000, "Lognormal", 0.6),
)


def scaled_specs(scale: float = 0.1) -> tuple[DatasetSpec, ...]:
    """The paper's specs with sample counts multiplied by ``scale``
    (object counts untouched — cardinality is the Q1 variable).

    The Trucks row keeps at least half its paper sampling density: its
    trajectories are few, and the TB-tree size comparison of Table 2
    only makes sense when a trajectory fills whole leaves.
    """
    out = []
    for s in PAPER_SPECS:
        minimum = s.samples_per_object // 2 if s.kind == "trucks" else 10
        out.append(
            DatasetSpec(
                s.name,
                s.kind,
                s.num_objects,
                max(int(s.samples_per_object * scale), minimum),
                s.speed_distribution,
                s.speed_sigma,
            )
        )
    return tuple(out)


def build_dataset(spec: DatasetSpec, seed: int = 7) -> TrajectoryDataset:
    """Generate the dataset a spec describes."""
    if spec.kind == "trucks":
        return generate_trucks(
            spec.num_objects,
            spec.samples_per_object,
            seed=seed,
            speed_sigma=spec.speed_sigma,
        )
    if spec.kind == "gstd":
        # "the heading of objects in all cases was random" (Sec. 5.1)
        return generate_gstd(
            spec.num_objects,
            spec.samples_per_object,
            seed=seed,
            speed_sigma=spec.speed_sigma,
            heading="random",
        )
    raise ValueError(f"unknown dataset kind {spec.kind!r}")


def build_index(
    dataset: TrajectoryDataset,
    tree: str = "rtree",
    page_size: int = 4096,
    finalize: bool = True,
) -> TrajectoryIndex:
    """Build a finalized 3D R-tree (``tree='rtree'``) or TB-tree
    (``'tbtree'``) over the dataset with the paper's 4 KB pages and
    10 %-capped-at-1000-pages buffer; any other kind is a
    ``ValueError``."""
    index = tree_class(tree, error=ValueError)(page_size=page_size)
    index.bulk_insert(dataset)
    if finalize:
        index.finalize()
    return index


def table2(specs=None, seed: int = 7) -> list[dict]:
    """Regenerate Table 2: one dict per dataset with object/entry
    counts and both index sizes in MB."""
    if specs is None:
        specs = scaled_specs()
    rows = []
    for spec in specs:
        dataset = build_dataset(spec, seed=seed)
        rtree = build_index(dataset, "rtree")
        tbtree = build_index(dataset, "tbtree")
        rows.append(
            {
                "dataset": spec.name,
                "objects": len(dataset),
                "entries": dataset.total_segments(),
                "speed_distribution": spec.speed_distribution,
                "sigma": spec.speed_sigma,
                "rtree_mb": rtree.size_mb(),
                "tbtree_mb": tbtree.size_mb(),
            }
        )
    return rows
