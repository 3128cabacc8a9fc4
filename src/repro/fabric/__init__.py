"""repro.fabric — sharded multi-card simulation as a message-passing system.

Modelled cards running their edge shards in-process, typed
inter-card messages grouped into synchronization rounds, an explicit
network model (bandwidth/latency/topology → modelled transfer time),
and a pluggable partitioner registry.  ``repro.core.run_scale_out`` and
``amst scaleout`` run on top of this package; see docs/SCALE_OUT.md.
"""

from .fabric import FabricError, FabricRun, run_fabric
from .messages import (
    BoundaryEdges,
    ComponentMerges,
    ForestShard,
    Message,
    ShardScatter,
    SyncRound,
    traffic_summary,
)
from .netmodel import (
    NET_PROFILES,
    NetProfile,
    NetworkCostReport,
    get_net_profile,
    list_net_profiles,
    model_rounds,
)
from .partition import (
    PARTITIONERS,
    PartitionPlan,
    PartitionStats,
    get_partitioner,
    list_partitioners,
    partition_vertices,
    plan_edges,
    register_partitioner,
    validate_num_cards,
)

__all__ = [
    "BoundaryEdges",
    "ComponentMerges",
    "FabricError",
    "FabricRun",
    "ForestShard",
    "Message",
    "NET_PROFILES",
    "NetProfile",
    "NetworkCostReport",
    "PARTITIONERS",
    "PartitionPlan",
    "PartitionStats",
    "ShardScatter",
    "SyncRound",
    "get_net_profile",
    "get_partitioner",
    "list_net_profiles",
    "list_partitioners",
    "model_rounds",
    "partition_vertices",
    "plan_edges",
    "register_partitioner",
    "run_fabric",
    "traffic_summary",
    "validate_num_cards",
]
