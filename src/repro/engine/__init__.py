"""repro.engine — batched query execution over warm sessions.

See :mod:`repro.engine.engine` for the session model,
:mod:`repro.engine.cache` for what a session keeps warm,
:mod:`repro.engine.planner` + :mod:`repro.engine.sharded` for
shard-parallel serving and ``docs/ENGINE.md`` / ``docs/SHARDING.md``
for the narrative documentation.
"""

from .cache import DissimRefinementCache, LRUCache
from .engine import (
    SESSION_BUFFER_FRACTION,
    BatchResult,
    EngineConfig,
    QueryEngine,
    QueryRequest,
    query_key,
)
from .executor import (
    ProcessPoolShardExecutor,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
)
from .live import LiveQueryEngine
from .planner import (
    QueryPlanner,
    ShardAnswer,
    ShardPlan,
    ShardSelection,
    budget_buffers,
)
from .sharded import ShardedQueryEngine

__all__ = [
    "QueryEngine",
    "ShardedQueryEngine",
    "LiveQueryEngine",
    "EngineConfig",
    "QueryRequest",
    "BatchResult",
    "query_key",
    "SESSION_BUFFER_FRACTION",
    "LRUCache",
    "DissimRefinementCache",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessPoolShardExecutor",
    "make_executor",
    "QueryPlanner",
    "ShardSelection",
    "ShardPlan",
    "ShardAnswer",
    "budget_buffers",
]
