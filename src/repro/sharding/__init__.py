"""Dataset/index sharding: partitioners, sharded build, manifest I/O.

The serving-scale layer: partition a trajectory collection into N
disjoint shards, build one paged index per shard, and persist the whole
thing as a directory with a JSON manifest.  The cross-shard search
(:func:`repro.search.bfmst.bfmst_search` over the shards) and the
planner-fronted engine (:class:`repro.engine.ShardedQueryEngine`)
build on these primitives.
"""

from .dataset import ShardedDataset
from .index import ShardedIndex, build_sharded_index
from .partitioners import (
    PARTITIONER_KINDS,
    HashPartitioner,
    Partitioner,
    TemporalPartitioner,
    make_partitioner,
)
from .persistence import (
    MANIFEST_NAME,
    load_sharded_index,
    save_sharded_index,
)

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "TemporalPartitioner",
    "PARTITIONER_KINDS",
    "make_partitioner",
    "ShardedDataset",
    "ShardedIndex",
    "build_sharded_index",
    "MANIFEST_NAME",
    "save_sharded_index",
    "load_sharded_index",
]
