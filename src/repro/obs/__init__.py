"""repro.obs — query-level observability.

The measurement substrate for the paper's observable costs (node
accesses, pruned candidates, refinement work) and for performance
regression tracking: a lightweight metrics registry (counters, gauges,
timers, histograms), a per-query :class:`QueryTrace` that composes the
storage layer's :class:`~repro.storage.stats.IOStats` snapshot/diff
with the new instrumentation points, and JSON export for benchmark
harnesses.

Tracing is opt-in and zero-cost-when-disabled: instrumentation sites
across the layers guard on :data:`repro.obs.state.ACTIVE`, which is
``None`` unless a :func:`query_trace` block is open.  See
``docs/OBSERVABILITY.md`` for the metric name catalogue.
"""

from . import state
from .registry import (
    Counter,
    DEFAULT_HISTOGRAM_BOUNDS,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from .trace import QueryTrace, query_trace

__all__ = [
    "state",
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_HISTOGRAM_BOUNDS",
    "QueryTrace",
    "query_trace",
]
