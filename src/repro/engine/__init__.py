"""repro.engine — batched query execution over warm sessions.

See :mod:`repro.engine.engine` for the session body every engine
shares, :mod:`repro.engine.planner` + :mod:`repro.engine.sharded` for
sharded serving, :mod:`repro.engine.live` for live stores and
``docs/ENGINE.md`` / ``docs/SHARDING.md`` for the narrative
documentation.
"""

from .engine import (
    SESSION_MAX_PAGES,
    BatchResult,
    EngineConfig,
    QueryEngine,
)
from .live import LiveQueryEngine
from .planner import (
    QueryPlanner,
    ShardSelection,
    budget_buffers,
)
from .sharded import ShardedQueryEngine

__all__ = [
    "QueryEngine",
    "ShardedQueryEngine",
    "LiveQueryEngine",
    "EngineConfig",
    "BatchResult",
    "SESSION_MAX_PAGES",
    "QueryPlanner",
    "ShardSelection",
    "budget_buffers",
]
