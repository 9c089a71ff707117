"""Device placement for computation DAGs.

A discrete-event simulator predicts makespan and peak memory for any
node-to-device assignment; a graph-embedding policy trained with REINFORCE
learns placements that generalize across graph families; classical schemes
and an exhaustive oracle provide the comparison points.
"""

from .graph_core import (
    ComputationGraph,
    GraphError,
    OpGroup,
    ReachabilityIndex,
    load_graph,
    merge_and_colocate,
    reachability,
    relation_sets,
    save_graph,
    topological_order,
)
from .placement_env import RewardConfig, penalized_runtime, reset, step
from .sim_engine import (
    Device,
    DeviceTopology,
    Placement,
    SimulationResult,
    load_placement,
    load_topology,
    makespan,
    oracle_simulate,
    simulate,
)

__all__ = [
    "ComputationGraph",
    "Device",
    "DeviceTopology",
    "GraphError",
    "OpGroup",
    "Placement",
    "ReachabilityIndex",
    "RewardConfig",
    "SimulationResult",
    "load_graph",
    "load_placement",
    "load_topology",
    "makespan",
    "merge_and_colocate",
    "oracle_simulate",
    "penalized_runtime",
    "reachability",
    "relation_sets",
    "reset",
    "save_graph",
    "simulate",
    "step",
    "topological_order",
]

__version__ = "0.1.0"
