import numpy as np
import pytest

from placement_opt.graph_core import ComputationGraph, OpGroup
from placement_opt.placement_env import reset, step
from placement_opt.policy_gnn import policy_forward
from placement_opt.sim_engine import Device, DeviceTopology


def make_graph(name, costs, bytes_out, edges):
    """costs / bytes_out are per-node scalars, edges a set of (u, v)."""
    nodes = [
        OpGroup(id=i, compute_seconds=(float(c),), output_bytes=float(b))
        for i, (c, b) in enumerate(zip(costs, bytes_out))
    ]
    return ComputationGraph.build(name, nodes, set(edges))


def make_topology(n_devices=2, memory=12e9, bandwidth=1e6, scales=None):
    """memory is every device's memory_bytes, or a sequence of one per device."""
    scales = scales or [1.0] * n_devices
    memory = memory if isinstance(memory, (list, tuple)) else [memory] * n_devices
    return DeviceTopology(
        devices=tuple(Device(id=i, memory_bytes=memory[i], compute_scale=scales[i]) for i in range(n_devices)),
        bandwidth_bytes_per_sec=bandwidth,
    )


def random_dag(rng, max_nodes=8, edge_prob=0.4, cost_range=(0.1, 5.0), bytes_range=(0.0, 4.0), name="random"):
    n = int(rng.integers(2, max_nodes + 1))
    edges = set()
    for v in range(1, n):
        for u in range(v):
            if rng.random() < edge_prob:
                edges.add((u, v))
    costs = rng.uniform(*cost_range, size=n)
    sizes = rng.uniform(*bytes_range, size=n)
    return make_graph(name, costs, sizes, edges)


def forward_one(state, topology, params):
    """One state's device distribution (D,), from the batched policy forward
    over a batch of one, and the state itself."""
    return policy_forward([state], topology, params)[0], state


def episode_states(graph, topology, actions, reward_cfg):
    """The states an episode taking actions from its initial state visits."""
    states = [reset(graph, topology, reward_cfg)]
    for a in actions[:-1]:
        states.append(step(states[-1], a, topology, reward_cfg)[0])
    return states


def step_loss(probs, action, advantage, beta):
    """One step's loss -log pi(a) * A - beta * H(pi), from its probabilities."""
    p = probs[probs > 0.0]
    return -np.log(probs[action]) * advantage + beta * float((p * np.log(p)).sum())


def finite_difference_check(loss_fn, params, grads, h=1e-5, max_coords=None, rng=None, exclude=None):
    """Max relative error between central differences and analytic grads.

    loss_fn takes the params list and returns a scalar. When max_coords is
    given, a seeded random subset of coordinates is probed. exclude is an
    optional list of boolean masks (True = skip); coordinates sitting exactly
    on a relu kink should be excluded by the caller.
    """
    coords = []
    for i, p in enumerate(params):
        for j in range(p.size):
            if exclude is not None and exclude[i].ravel()[j]:
                continue
            coords.append((i, j))
    if max_coords is not None and len(coords) > max_coords:
        rng = rng or np.random.default_rng(0)
        pick = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(k)] for k in pick]
    worst = 0.0
    for i, j in coords:
        flat = params[i].ravel()
        orig = flat[j]
        flat[j] = orig + h
        up = loss_fn(params)
        flat[j] = orig - h
        down = loss_fn(params)
        flat[j] = orig
        numeric = (up - down) / (2.0 * h)
        analytic = grads[i].ravel()[j]
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, err)
    return worst


@pytest.fixture
def diamond():
    # The hand-traced fixture: a feeds b and c, both feed d.
    return make_graph(
        "diamond",
        costs=[1.0, 2.0, 2.0, 1.0],
        bytes_out=[2e6, 0.0, 2e6, 0.0],
        edges={(0, 1), (0, 2), (1, 3), (2, 3)},
    )


@pytest.fixture
def diamond_placement():
    from placement_opt.sim_engine import Placement

    return Placement((0, 0, 1, 0))


@pytest.fixture
def two_device():
    return make_topology(2)


@pytest.fixture
def chain2():
    return make_graph("chain2", costs=[2.0, 3.0], bytes_out=[0.0, 0.0], edges={(0, 1)})
