"""Non-learned placement schemes and the exhaustive oracle.

The partitioner mirrors the classic static-mapping objective: minimize bytes
crossing device boundaries while keeping per-device compute load within a
tolerance of the mean, refined by single-node moves. The expert heuristic
generalizes place-each-layer-on-its-own-device to equal-compute contiguous
depth bands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import placement_env
from .graph_core import ComputationGraph, topological_order
from .placement_env import RewardConfig
from .sim_engine import DeviceTopology, Placement, simulate


class BaselineError(ValueError):
    pass


def place_single_device(graph: ComputationGraph, topology: DeviceTopology) -> Placement:
    return Placement((0,) * graph.num_nodes)


def place_random(graph: ComputationGraph, topology: DeviceTopology, seed: int) -> Placement:
    rng = np.random.default_rng(seed)
    return Placement(tuple(int(d) for d in rng.integers(topology.num_devices, size=graph.num_nodes)))


def _node_load(graph: ComputationGraph, topology: DeviceTopology, v: int) -> float:
    # Canonical load weight: mean effective compute across devices.
    g = graph.nodes[v]
    return float(
        np.mean([g.cost_on(d) * topology.devices[d].compute_scale for d in range(topology.num_devices)])
    )


def _cut_bytes(graph: ComputationGraph, assignment) -> float:
    return sum(graph.nodes[u].output_bytes for u, v in graph.edges if assignment[u] != assignment[v])


@dataclass(frozen=True)
class PartitionerConfig:
    balance_tolerance: float = 0.2  # max relative deviation from mean load
    refinement_passes: int = 2

    def __post_init__(self):
        if self.balance_tolerance < 0:
            raise BaselineError("balance_tolerance must be >= 0")


@dataclass(frozen=True)
class PartitionResult:
    placement: Placement
    cut_bytes: float
    effective_tolerance: float
    relaxed: bool


def place_balanced_mincut(
    graph: ComputationGraph, topology: DeviceTopology, cfg: PartitionerConfig | None = None
) -> PartitionResult:
    """Greedy growth in topological order plus move-based refinement.

    Each node goes to the feasible device adding the fewest cut bytes (ties to
    the smaller id); a device is feasible while its load stays within
    (1 + tolerance) * (total / |D|). If the granularity makes that impossible
    the tolerance doubles (from 0.01 when zero) until placement succeeds.
    """
    cfg = cfg or PartitionerConfig()
    n = graph.num_nodes
    m = topology.num_devices
    loads_w = [_node_load(graph, topology, v) for v in range(n)]
    total = sum(loads_w)
    order = topological_order(graph)

    eps = cfg.balance_tolerance
    relaxed = False
    while True:
        cap = (1.0 + eps) * total / m if total > 0 else float("inf")
        assignment = [0] * n
        load = [0.0] * m
        ok = True
        for v in order:
            best = None
            for d in range(m):
                if load[d] + loads_w[v] > cap + 1e-12:
                    continue
                added = sum(
                    graph.nodes[p].output_bytes for p in graph.parents[v] if assignment[p] != d
                )
                key = (added, d)
                if best is None or key < best[0]:
                    best = (key, d)
            if best is None:
                ok = False
                break
            assignment[v] = best[1]
            load[best[1]] += loads_w[v]
        if ok:
            break
        relaxed = True
        eps = eps * 2 if eps > 0 else 0.01

    # Kernighan-Lin style single-node refinement: accept the best strictly
    # cut-reducing move per node that keeps the balance bound.
    for _ in range(cfg.refinement_passes):
        moved = False
        for v in range(n):
            cur = assignment[v]
            cur_cut = _cut_bytes(graph, assignment)
            best = None
            for d in range(m):
                if d == cur:
                    continue
                if load[d] + loads_w[v] > cap + 1e-12:
                    continue
                assignment[v] = d
                c = _cut_bytes(graph, assignment)
                if c < cur_cut - 1e-15 and (best is None or (c, d) < best):
                    best = (c, d)
            assignment[v] = cur
            if best is not None:
                d = best[1]
                load[cur] -= loads_w[v]
                load[d] += loads_w[v]
                assignment[v] = d
                moved = True
        if not moved:
            break

    return PartitionResult(
        placement=Placement(tuple(assignment)),
        cut_bytes=_cut_bytes(graph, assignment),
        effective_tolerance=eps,
        relaxed=relaxed,
    )


def node_depths(graph: ComputationGraph) -> list[int]:
    """Longest-path depth from the sources."""
    depth = [0] * graph.num_nodes
    for v in topological_order(graph):
        for p in graph.parents[v]:
            depth[v] = max(depth[v], depth[p] + 1)
    return depth


def place_expert_chain(graph: ComputationGraph, topology: DeviceTopology) -> Placement:
    """Contiguous depth bands with approximately equal compute, one per device."""
    n = graph.num_nodes
    m = topology.num_devices
    depth = node_depths(graph)
    loads_w = [_node_load(graph, topology, v) for v in range(n)]
    total = sum(loads_w)
    by_depth: dict[int, list[int]] = {}
    for v in range(n):
        by_depth.setdefault(depth[v], []).append(v)

    assignment = [0] * n
    device = 0
    acc = 0.0
    for d in sorted(by_depth):
        for v in by_depth[d]:
            assignment[v] = device
            acc += loads_w[v]
        if device < m - 1 and total > 0 and acc >= total * (device + 1) / m:
            device += 1
    return Placement(tuple(assignment))


def _interchangeable_pair(graph: ComputationGraph, topology: DeviceTopology) -> bool:
    """Exactly two devices that differ in nothing but their id."""
    if topology.num_devices != 2:
        return False
    a, b = topology.devices
    return (
        a.compute_scale == b.compute_scale
        and a.memory_bytes == b.memory_bytes
        and topology.bandwidth(0, 1) == topology.bandwidth(1, 0)
        and all(g.cost_on(0) == g.cost_on(1) for g in graph.nodes)
    )


def exhaustive_search(
    graph: ComputationGraph,
    topology: DeviceTopology,
    reward_cfg: RewardConfig | None = None,
    budget: int = 2**20,
):
    """Enumerate every placement; min penalized runtime, lexicographic ties.

    Returns (Placement, runtime). Raises when |D| ** |V| exceeds the budget.
    When two devices are interchangeable, a placement and its mirror (devices
    swapped) simulate bit-identically, and the mirror with node 0 on device 0
    comes first, so only those placements are enumerated. With 3+ devices bus
    queues break ties on the destination id, so relabelling is not exact.
    """
    reward_cfg = reward_cfg or RewardConfig(mode=placement_env.TERMINAL)
    n = graph.num_nodes
    m = topology.num_devices
    count = m**n
    if count > budget:
        raise BaselineError(f"{m}^{n} = {count} placements exceed the budget {budget}")
    candidates = itertools.product(range(m), repeat=n)
    if n and _interchangeable_pair(graph, topology):
        candidates = ((0, *rest) for rest in itertools.product(range(2), repeat=n - 1))
    best_assign = None
    best_runtime = None
    for assign in candidates:
        result = simulate(graph, topology, Placement(assign))
        runtime = placement_env.penalized_runtime(result, topology, reward_cfg)
        if best_runtime is None or runtime < best_runtime:
            best_runtime = runtime
            best_assign = assign
    return Placement(best_assign), best_runtime
