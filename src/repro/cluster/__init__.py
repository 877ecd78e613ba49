"""Multi-server extension: MAPA within each node, placement across nodes."""

from .scheduler import (
    NODE_POLICIES,
    CandidateServerIndex,
    ClusterPlacement,
    MultiServerScheduler,
)
from .sharding import (
    SHARDABLE_NODE_POLICIES,
    ShardPlan,
    SharedFleetManifest,
    SharedLinkTableView,
    ShardedFleetScheduler,
    ShardedFleetSimulator,
    aggregate_cache_stats,
    run_sharded,
)
from .simulator import (
    ClusterJobRecord,
    MultiServerSimulator,
    run_cluster,
)

__all__ = [
    "NODE_POLICIES",
    "SHARDABLE_NODE_POLICIES",
    "CandidateServerIndex",
    "ClusterPlacement",
    "MultiServerScheduler",
    "ShardPlan",
    "SharedFleetManifest",
    "SharedLinkTableView",
    "ShardedFleetScheduler",
    "ShardedFleetSimulator",
    "aggregate_cache_stats",
    "run_sharded",
    "ClusterJobRecord",
    "MultiServerSimulator",
    "run_cluster",
]
