"""Non-learned placement schemes and the exhaustive oracle.

The partitioner mirrors the classic static-mapping objective: minimize bytes
crossing device boundaries while keeping per-device compute load within a
tolerance of the mean, refined by single-node moves. The expert heuristic
generalizes place-each-layer-on-its-own-device to equal-compute contiguous
depth bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import placement_env
from .fileio import FINITE_AT_LEAST_0, check_values, rule
from .graph_core import ComputationGraph, topological_order
from .placement_env import RewardConfig
from .sim_engine import DeviceTopology, Placement


EXHAUSTIVE_BUDGET = 2**20  # exhaustive_search's default cap on |D| ** |V|


class BaselineError(ValueError):
    pass


def place_single_device(graph: ComputationGraph, topology: DeviceTopology) -> Placement:
    return Placement((0,) * graph.num_nodes)


def place_random(graph: ComputationGraph, topology: DeviceTopology, seed: int) -> Placement:
    rng = np.random.default_rng(seed)
    return Placement(tuple(int(d) for d in rng.integers(topology.num_devices, size=graph.num_nodes)))


def _device_durations(graph: ComputationGraph, topology: DeviceTopology) -> np.ndarray:
    """(|V|, |D|) seconds of each node on each device: its cost there times
    the device's compute_scale, each product rounded once, as the simulator
    takes it."""
    if graph.cost_widths == {1}:
        costs = np.array(graph.base_costs, dtype=float)[:, None]
    else:
        m = topology.num_devices
        costs = np.array([[g.cost_on(d) for d in range(m)] for g in graph.nodes], dtype=float).reshape(-1, m)
    return costs * np.array(topology.compute_scales, dtype=float)


def _node_loads(graph: ComputationGraph, topology: DeviceTopology) -> list[float]:
    """Canonical load weight per node: mean effective compute across devices."""
    return _device_durations(graph, topology).mean(axis=1).tolist()


def _cut_bytes(graph: ComputationGraph, assignment) -> float:
    size = graph.output_sizes
    return sum(size[u] for u, v in graph.edges if assignment[u] != assignment[v])


@dataclass(frozen=True)
class PartitionerConfig:
    balance_tolerance: float = field(default=0.2, metadata=FINITE_AT_LEAST_0)  # max relative deviation from mean load
    refinement_passes: int = field(default=2, metadata=rule(lambda v: type(v) is int and v >= 0, "an integer >= 0"))

    def __post_init__(self):
        check_values(vars(self), PartitionerConfig, "partitioner", BaselineError)


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

    Refinement scores a move of v from device cur to d by its exact
    incident-edge delta: v's edges to nodes on cur start crossing the cut and
    its edges to nodes on d stop, so the cut changes by (bytes to cur) -
    (bytes to d), summed exactly by math.fsum and rounded once. Each node
    takes the move with the most negative delta; exact ties go to the smaller
    device id, and a zero delta is no move. Refinement costs
    O(passes * sum(deg) * |D|), not a full cut recount per candidate.
    """
    cfg = cfg or PartitionerConfig()
    n = graph.num_nodes
    m = topology.num_devices
    loads_w = _node_loads(graph, topology)
    total = sum(loads_w)
    order = topological_order(graph)
    out_bytes = graph.output_sizes

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
                added = sum(out_bytes[p] for p in graph.parents[v] if assignment[p] != d)
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
            # Bytes of v's incident edges, grouped by the device of the other end.
            by_dev = [[] for _ in range(m)]
            for p in graph.parents[v]:
                by_dev[assignment[p]].append(out_bytes[p])
            for c in graph.children[v]:
                by_dev[assignment[c]].append(out_bytes[v])
            best = None
            for d in range(m):
                if d == cur or not by_dev[d]:
                    continue  # no edge to d: the move cannot lower the cut
                if load[d] + loads_w[v] > cap + 1e-12:
                    continue
                delta = math.fsum(by_dev[cur] + [-b for b in by_dev[d]])
                if delta < 0 and (best is None or (delta, d) < best):
                    best = (delta, d)
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
    loads_w = _node_loads(graph, topology)
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
    budget: int = EXHAUSTIVE_BUDGET,
):
    """Exact optimum by branch-and-bound; min penalized runtime, lexicographic ties.

    Returns (Placement, runtime). Raises when |D| ** |V| exceeds the budget.
    Nodes are assigned depth-first in id order with device 0 first, so leaves
    are simulated in lexicographic order and the first minimum found is the
    lexicographically first optimum. The first leaf (everything on device 0)
    sets the incumbent; after that a partial assignment is skipped when its
    lower bound exceeds incumbent * (1 + 1e-9), as every leaf below it is
    then strictly slower and cannot take over. See _lower_bound for why the
    bound holds. When two devices are interchangeable, a placement and its
    mirror (devices swapped) simulate bit-identically, and the mirror with
    node 0 on device 0 comes first, so node 0 stays on device 0. With 3+
    devices bus queues break ties on the destination id, so relabelling is
    not exact.
    """
    reward_cfg = reward_cfg or placement_env.EVALUATION_REWARD
    n = graph.num_nodes
    m = topology.num_devices
    count = m**n
    if count > budget:
        raise BaselineError(f"{m}^{n} = {count} placements exceed the budget {budget}")
    first_devices = 1 if n and _interchangeable_pair(graph, topology) else m
    bound = _lower_bound(graph, topology)
    assign = [0] * n
    best_assign = None
    best_runtime = None
    # Entries (k, d): nodes 0..k-2 are as on the path above, node k-1 goes to d.
    # Children are pushed in reverse, so device 0 pops first.
    stack = [(0, 0)]
    while stack:
        k, d = stack.pop()
        if k:
            assign[k - 1] = d
            if best_runtime is not None and bound(assign, k) > best_runtime * (1 + 1e-9):
                continue
        if k < n:
            stack.extend((k + 1, c) for c in reversed(range(first_devices if k == 0 else m)))
            continue
        runtime = placement_env.runtime_of(graph, topology, Placement(tuple(assign)), reward_cfg)
        if best_runtime is None or runtime < best_runtime:
            best_runtime = runtime
            best_assign = tuple(assign)
    return Placement(best_assign), best_runtime


def _lower_bound(graph: ComputationGraph, topology: DeviceTopology):
    """bound(assign, k): a lower bound on the penalized runtime of every
    placement that puts nodes 0..k-1 where assign does.

    It is the larger of (a) each device's summed duration over its assigned
    nodes, since a device runs one op at a time, and (b) the longest path with
    assigned nodes at their device's duration, free nodes at their cheapest
    duration, output_bytes / bandwidth on edges between assigned nodes on
    different devices and 0 on every other edge. Term (b) makes the
    simulator's own floating-point additions in the same order on values no
    larger than its own, so by monotone rounding it never exceeds the
    simulated makespan. Term (a) sums in another order than the simulator's
    clock, which the caller's relative margin absorbs. The memory penalty is
    >= 0 (RewardConfig enforces it), so the makespan bound holds for the
    penalized runtime too.
    """
    n = graph.num_nodes
    m = topology.num_devices
    dur = _device_durations(graph, topology).tolist()
    cheapest = [min(row) for row in dur]
    size = graph.output_sizes
    bw = topology.bandwidth_rows
    order = topological_order(graph)
    parents = graph.parents

    def bound(assign, k):
        load = [0.0] * m
        for v in range(k):
            load[assign[v]] += dur[v][assign[v]]
        finish = [0.0] * n
        for v in order:
            ready = 0.0
            if v < k:
                a = assign[v]
                for p in parents[v]:
                    t = finish[p]
                    if p < k and assign[p] != a:
                        t = t + size[p] / bw[assign[p]][a]
                    if t > ready:
                        ready = t
                finish[v] = ready + dur[v][a]
            else:
                for p in parents[v]:
                    if finish[p] > ready:
                        ready = finish[p]
                finish[v] = ready + cheapest[v]
        return max(max(load), max(finish, default=0.0))

    return bound
