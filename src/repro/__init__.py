"""repro — Index-based Most Similar Trajectory Search.

A from-scratch Python implementation of Frentzos, Gratsias &
Theodoridis, *Index-based Most Similar Trajectory Search* (ICDE 2007):
the DISSIM spatiotemporal dissimilarity metric with its trapezoid
approximation and error bound, the OPTDISSIM / PESDISSIM /
MINDISSIMINC pruning bounds, and the best-first k-MST search algorithm
over paged 3D R-tree / TB-tree indexes — plus the competitor measures,
data generators, compression and experiment harness the paper's
evaluation needs.

Quickstart::

    from repro import RTree3D, bfmst_search, generate_gstd, make_workload

    dataset = generate_gstd(100)
    index = RTree3D()
    index.bulk_insert(dataset)      # a whole dataset: packed in one pass
    index.finalize()

    (query, period), = make_workload(dataset, 1, query_length=0.05)
    result = bfmst_search(index, None, query, period=period, k=3)
    for m in result:
        print(m.trajectory_id, m.dissim)

For batches, open a :class:`repro.engine.QueryEngine` — it keeps the
hot index levels pinned in the buffer pool across queries::

    from repro import QueryEngine, QuerySpec

    with QueryEngine(index) as engine:
        batch = engine.run_batch(
            [QuerySpec("mst", query, period, k=3)]
        )
"""

from .compression import (
    douglas_peucker,
    td_tr,
    td_tr_fraction,
    uniform_downsample,
)
from .datagen import (
    GSTDConfig,
    GSTDGenerator,
    TrucksConfig,
    TrucksGenerator,
    generate_gstd,
    generate_trucks,
    make_query,
    make_workload,
)
from .distance import (
    PartialDissim,
    dissim,
    dissim_exact,
    distance_at,
    dtw_distance,
    edr_distance,
    edr_i_distance,
    euclidean_distance,
    lcss_distance,
    lcss_i_distance,
    ldd,
    mindissim_inc,
)
from .engine import (
    BatchResult,
    EngineConfig,
    LiveQueryEngine,
    QueryEngine,
)
from .exceptions import (
    IndexError_,
    PageOverflowError,
    QueryError,
    ReproError,
    StorageError,
    TemporalCoverageError,
    TrajectoryError,
)
from .geometry import MBR2D, MBR3D, Point, STPoint, STSegment
from .index import TREES, RTree3D, TBTree, load_index, mindist, save_index
from .ingest import IngestStore, LiveView, WriteAheadLog
from .obs import (
    MetricsRegistry,
    NoopRegistry,
    NOOP_REGISTRY,
    QueryTrace,
    query_trace,
)
from .search import (
    MSTMatch,
    QuerySpec,
    SearchResult,
    SearchStats,
    bfmst_search,
    execute_spec,
    linear_scan_kmst,
    nearest_neighbours,
    range_query,
    time_relaxed_dissim,
    time_relaxed_kmst,
)
from .trajectory import (
    Trajectory,
    TrajectoryDataset,
    read_csv,
    read_json,
    write_csv,
    write_json,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # geometry
    "Point",
    "STPoint",
    "STSegment",
    "MBR2D",
    "MBR3D",
    # trajectory model
    "Trajectory",
    "TrajectoryDataset",
    "read_csv",
    "write_csv",
    "read_json",
    "write_json",
    # metric + bounds
    "dissim",
    "dissim_exact",
    "distance_at",
    "ldd",
    "PartialDissim",
    "mindissim_inc",
    # competitors
    "lcss_distance",
    "lcss_i_distance",
    "edr_distance",
    "edr_i_distance",
    "dtw_distance",
    "euclidean_distance",
    # indexes
    "RTree3D",
    "TBTree",
    "TREES",
    "mindist",
    "save_index",
    "load_index",
    # search
    "bfmst_search",
    "linear_scan_kmst",
    "range_query",
    "nearest_neighbours",
    "time_relaxed_dissim",
    "time_relaxed_kmst",
    "MSTMatch",
    "SearchStats",
    "SearchResult",
    "QuerySpec",
    "execute_spec",
    # batched query engine
    "QueryEngine",
    "EngineConfig",
    "BatchResult",
    # live ingestion
    "IngestStore",
    "LiveView",
    "LiveQueryEngine",
    "WriteAheadLog",
    # observability
    "MetricsRegistry",
    "NoopRegistry",
    "NOOP_REGISTRY",
    "QueryTrace",
    "query_trace",
    # generators & compression
    "generate_gstd",
    "generate_trucks",
    "GSTDConfig",
    "GSTDGenerator",
    "TrucksConfig",
    "TrucksGenerator",
    "make_query",
    "make_workload",
    "td_tr",
    "td_tr_fraction",
    "douglas_peucker",
    "uniform_downsample",
    # errors
    "ReproError",
    "TrajectoryError",
    "TemporalCoverageError",
    "StorageError",
    "PageOverflowError",
    "IndexError_",
    "QueryError",
]
