"""MDP over placements: one episode visits every node once and re-places it.

A state is its placement and a cursor, step_index, into the fixed visit
order: the nodes before the cursor are visited and the node at it is current.
State features per node: [normalized compute time, normalized output bytes,
one-hot current device, visited flag, current flag], so the feature dimension
is |D| + 4. Rewards come from the memory-penalized runtime of the simulated
placement, either once at the end of the episode (terminal mode) or as the
per-step improvement (intermediate mode).

The penalty charges each device's peak memory above that device's own
memory_bytes; the topology is the one definition of the limit.

Rewards, reset's scale and final_runtime read that runtime through
runtime_of. When the graph's total output bytes, with a rounding margin, are
at most the smallest device's memory_bytes, no device's peak can exceed its
limit, so the penalty is 0 and runtime_of runs sim_engine.makespan, the event
loop alone. Otherwise it runs evaluate_placement: the full simulate, with the
memory profile. Both give the same float.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from . import sim_engine
from .fileio import FINITE_AT_LEAST_0, check_values, one_of, rule
from .graph_core import ComputationGraph, topological_order
from .sim_engine import DeviceTopology, Placement, SimulationResult

BYTES_PER_GB = 1.0e9

TERMINAL = "terminal"
INTERMEDIATE = "intermediate"

ALL_DEVICE_0 = "all_device_0"  # the default initial placement
RANDOM_INIT = "random"
INIT_MODES = (ALL_DEVICE_0, RANDOM_INIT)


class EnvError(ValueError):
    pass


@dataclass(frozen=True)
class RewardConfig:
    """How placements are scored; the memory limits are the topology's
    per-device memory_bytes."""

    mode: str = field(default=INTERMEDIATE, metadata=one_of(TERMINAL, INTERMEDIATE))
    penalty_per_gb: float = field(default=2.0, metadata=FINITE_AT_LEAST_0)  # seconds per GB over a device's limit
    # None: use R(p0) per episode, floored at 1e-6.
    reward_scale: float | None = field(default=None, metadata=rule(
        lambda v: v is None or 0 < v <= sys.float_info.max, "a finite number > 0 or null"))

    def __post_init__(self):
        check_values(vars(self), RewardConfig, "env", EnvError)


# What evaluation, prediction and exhaustive search score placements by.
EVALUATION_REWARD = RewardConfig(mode=TERMINAL)


def penalized_runtime(result: SimulationResult, topology: DeviceTopology, cfg: RewardConfig) -> float:
    """Makespan plus penalty_per_gb times the largest overflow, in GB, of a
    device's peak memory above that device's memory_bytes."""
    over = max(p - d.memory_bytes for p, d in zip(result.peak_memory_bytes, topology.devices))
    r = result.makespan_seconds
    if over <= 0:
        return r
    return r + cfg.penalty_per_gb * over / BYTES_PER_GB


def evaluate_placement(graph, topology, placement, cfg: RewardConfig):
    """Simulate a placement and return (penalized runtime, SimulationResult)."""
    result = sim_engine.simulate(graph, topology, placement)
    return penalized_runtime(result, topology, cfg), result


def runtime_of(graph, topology, placement, cfg: RewardConfig) -> float:
    """evaluate_placement(...)[0], bit for bit; only the event loop runs
    when the memory penalty is provably 0.

    Why skipping the memory profile is exact: each device allocates each
    tensor at most once, so no device's live bytes exceed the graph's total
    output bytes T. memory_profile's running sum on a device adds at most 2n
    allocations and frees, whose magnitudes sum to at most 2T. Recursive
    summation errs by at most gamma_2n * 2T (gamma_k = k*u / (1 - k*u),
    u = 2**-53), so every computed peak is at most T * (1 + 4.01*n*u) for
    n < 2**40. total_output_bytes is T correctly rounded (math.fsum). The
    condition below scales it by 1 + 16*(n + 1)*u; its three roundings (the
    sum, the factor, the product) cost at most about 3u, so when it is at
    most the smallest device's memory_bytes no computed peak exceeds its
    device's limit and penalized_runtime would return the makespan
    unchanged. Peaks are taken per device, so the device count does not
    enter the margin.
    """
    n = graph.num_nodes
    limit = min(d.memory_bytes for d in topology.devices)
    if graph.total_output_bytes * (1.0 + (n + 1) * 2.0**-49) <= limit:
        return sim_engine.makespan(graph, topology, placement)
    return evaluate_placement(graph, topology, placement, cfg)[0]


@dataclass(frozen=True)
class EpisodeState:
    graph: ComputationGraph
    placement: tuple[int, ...]
    step_index: int
    visit_order: tuple[int, ...]
    reward_scale: float
    cached_runtime: float | None  # R of the current placement (intermediate mode)

    @property
    def done(self) -> bool:
        return self.step_index >= len(self.visit_order)

    @property
    def current_node(self) -> int | None:
        return None if self.done else self.visit_order[self.step_index]


def reset(
    graph: ComputationGraph,
    topology: DeviceTopology,
    cfg: RewardConfig,
    init_mode: str = ALL_DEVICE_0,
    init_seed: int | None = None,
    order_seed: int | None = None,
) -> EpisodeState:
    """Start an episode. init_mode is ALL_DEVICE_0 or RANDOM_INIT (seeded)."""
    n = graph.num_nodes
    if init_mode == ALL_DEVICE_0:
        placement = (0,) * n
    elif init_mode == RANDOM_INIT:
        rng = np.random.default_rng(init_seed)
        placement = tuple(int(d) for d in rng.integers(topology.num_devices, size=n))
    else:
        raise EnvError(f"unknown init_mode {init_mode!r}")

    order = tuple(topological_order(graph, order_seed))
    cached = None
    scale = cfg.reward_scale
    if cfg.mode == INTERMEDIATE or scale is None:
        r0 = runtime_of(graph, topology, Placement(placement), cfg)
        if cfg.mode == INTERMEDIATE:
            cached = r0
        if scale is None:
            scale = max(r0, 1e-6)
    return EpisodeState(
        graph=graph,
        placement=placement,
        step_index=0,
        visit_order=order,
        reward_scale=scale,
        cached_runtime=cached,
    )


def featurize(state: EpisodeState, topology: DeviceTopology) -> np.ndarray:
    """Raw per-node feature matrix, shape (|V|, |D| + 4)."""
    return featurize_batch([state], topology.num_devices)


def featurize_batch(states, num_devices: int) -> np.ndarray:
    """The feature matrices of a sequence of states on num_devices devices,
    stacked in state order: shape (sum of |V|, num_devices + 4). It takes a
    fixed number of numpy calls however many states there are, and reads
    each graph's cached cost and bytes columns."""
    m = num_devices
    sizes = [s.graph.num_nodes for s in states]
    rows = sum(sizes)
    feats = np.zeros((rows, m + 4))
    if not rows:
        return feats
    feats[:, :2] = np.concatenate([s.graph.scaled_costs_and_bytes for s in states])
    placement = np.fromiter(chain.from_iterable(s.placement for s in states), np.intp, rows)
    feats[np.arange(rows), 2 + placement] = 1.0
    starts = list(accumulate(sizes, initial=0))
    visited = np.fromiter(chain.from_iterable(s.visit_order[: s.step_index] for s in states), np.intp)
    feats[visited + np.repeat(starts[:-1], [s.step_index for s in states]), m + 2] = 1.0
    current = [i + s.current_node for i, s in zip(starts, states) if not s.done]
    feats[current, m + 3] = 1.0
    return feats


def feature_dim(num_devices: int) -> int:
    return num_devices + 4


def step(state: EpisodeState, action: int, topology: DeviceTopology, cfg: RewardConfig):
    """Apply a device choice for the current node.

    Returns (next_state, reward, done). Terminal mode: reward is 0 except
    -R(final)/scale at the last step. Intermediate mode: (R_before -
    R_after)/scale at every step, so improvements are positive.
    """
    if state.done:
        raise EnvError("step() after episode end")
    if not (0 <= action < topology.num_devices):
        raise EnvError(f"invalid device {action}")

    v = state.current_node
    placement = list(state.placement)
    placement[v] = action
    placement = tuple(placement)
    t_next = state.step_index + 1
    done = t_next >= len(state.visit_order)

    reward = 0.0
    cached = state.cached_runtime
    if cfg.mode == INTERMEDIATE:
        if placement == state.placement:
            r_after = cached
        else:
            r_after = runtime_of(state.graph, topology, Placement(placement), cfg)
        reward = (cached - r_after) / state.reward_scale
        cached = r_after
    elif done:
        r_final = runtime_of(state.graph, topology, Placement(placement), cfg)
        reward = -r_final / state.reward_scale
        cached = r_final

    next_state = EpisodeState(state.graph, placement, t_next, state.visit_order, state.reward_scale, cached)
    return next_state, reward, done


def final_runtime(state: EpisodeState, topology: DeviceTopology, cfg: RewardConfig) -> float:
    """Penalized runtime of a finished episode's placement."""
    if state.cached_runtime is not None:
        return state.cached_runtime
    return runtime_of(state.graph, topology, Placement(state.placement), cfg)
