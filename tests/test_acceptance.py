"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The learning runs (criteria 7, 8, 10) are seeded end to end and finish well
inside their wall-clock budgets on a laptop CPU.
"""

import functools
import time

import numpy as np

from placement_opt import datagen, placement_env
from placement_opt.baselines import (
    PartitionerConfig,
    exhaustive_search,
    place_balanced_mincut,
    place_expert_chain,
    place_random,
    place_single_device,
)
from placement_opt.graph_core import ComputationGraph, OpGroup
from placement_opt.neural_primitives import AdamState
from placement_opt.placement_env import BYTES_PER_GB, RewardConfig, penalized_runtime, reset, step
from placement_opt.policy_gnn import (
    FULL,
    SIMPLE_AGGREGATOR,
    SIMPLE_PARTITIONER,
    PolicyConfig,
    init_policy,
    policy_backward,
    policy_forward,
)
from placement_opt.sim_engine import Placement, SimulationResult, oracle_simulate, simulate
from placement_opt.trainer import BaselineTable, TrainerConfig, train, train_epoch, predict_placement

from conftest import (
    episode_states,
    finite_difference_check,
    forward_one,
    make_graph,
    make_topology,
    random_dag,
    step_loss,
)


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {n}: {label}")
                raise
            print(f"[PASS] criterion {n}: {label} ({time.time() - start:.1f}s)")

        return wrapper

    return deco


@criterion(1, "simulate equals oracle_simulate exactly on 1000 random instances")
def test_simulator_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1000)
    for i in range(1000):
        g = random_dag(rng, max_nodes=8, bytes_range=(0.0, 4.0))
        topo = make_topology(2, bandwidth=float(rng.uniform(0.5, 3.0)))
        pl = Placement(tuple(int(d) for d in rng.integers(2, size=g.num_nodes)))
        assert simulate(g, topo, pl).makespan_seconds == oracle_simulate(g, topo, pl)
    assert time.time() - start <= 30.0


@criterion(2, "hand-traced diamond fixture: 8.0 s split, 6.0 s single device")
def test_hand_traced_fixture():
    g = make_graph(
        "diamond",
        costs=[1.0, 2.0, 2.0, 1.0],
        bytes_out=[2e6, 0.0, 2e6, 0.0],
        edges={(0, 1), (0, 2), (1, 3), (2, 3)},
    )
    topo = make_topology(2, bandwidth=1e6)
    split = simulate(g, topo, Placement((0, 0, 1, 0))).makespan_seconds
    mono = simulate(g, topo, Placement((0, 0, 0, 0))).makespan_seconds
    assert abs(split - 8.0) <= 1e-9
    assert abs(mono - 6.0) <= 1e-9


@criterion(3, "memory penalty: R(2.0 s, 11.7 GB) = 4.0 s; monotone and continuous")
def test_memory_penalty():
    # The paper's 10.7 GB limit is each device's memory_bytes.
    m_star = 10.7 * BYTES_PER_GB
    topo = make_topology(2, memory=m_star)
    cfg = RewardConfig(mode="terminal")
    assert cfg.penalty_per_gb == 2.0

    def result(m, other=0.0):
        return SimulationResult(2.0, (m, other), (), (), 0)

    assert penalized_runtime(result(11.7 * BYTES_PER_GB), topo, cfg) == 4.0
    grid = np.linspace(8.0, 14.0, 241) * BYTES_PER_GB
    vals = [penalized_runtime(result(m), topo, cfg) for m in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(
        penalized_runtime(result(m_star + 1.0), topo, cfg) - penalized_runtime(result(m_star), topo, cfg)
    ) < 1e-8
    # A device over its own smaller limit is penalized, though its peak is
    # below the other device's limit.
    small = make_topology(2, memory=[m_star, 5e9])
    assert penalized_runtime(result(0.0, 6e9), small, cfg) == 4.0
    assert penalized_runtime(result(6e9, 0.0), small, cfg) == 2.0


@criterion(4, "episode-loss gradients match finite differences in all three modes")
def test_gradient_exactness():
    start = time.time()
    g = make_graph("d4", [1.0, 2.0, 3.0, 4.0], [1e6, 2e6, 3e6, 4e6], {(0, 1), (0, 2), (1, 3), (2, 3)})
    topo = make_topology(2, bandwidth=1e6)
    env_cfg = RewardConfig(mode="terminal", reward_scale=1.0)
    actions = [1, 0, 1, 0]
    advantages = [0.5, -1.0, 2.0, 0.3]
    beta = 0.01
    for mode in (FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER):
        params = init_policy(PolicyConfig(num_devices=2, message_rounds=2, mode=mode), seed=3)
        prng = np.random.default_rng(99)
        for p in params.flat_params():
            p += prng.uniform(0.01, 0.05, size=p.shape)  # keep relu units off their kinks

        states = episode_states(g, topo, actions, env_cfg)
        _, grads = policy_backward(states, actions, advantages, beta, params)

        def loss_fn(_):
            probs = policy_forward(states, topo, params)
            return sum(step_loss(p, a, adv, beta) for p, a, adv in zip(probs, actions, advantages))

        err = finite_difference_check(loss_fn, params.flat_params(), grads, h=1e-5)
        assert err <= 1e-4, f"{mode}: max relative error {err}"
    assert time.time() - start <= 60.0


@criterion(5, "action distribution invariant under 100 node-id permutations")
def test_permutation_invariance():
    rng = np.random.default_rng(50)
    # two blocks of (entry + 2 branches x 4 ops + join) = 20 nodes
    spec = datagen.FamilySpec(
        family="branch_blocks", count=2, blocks=2, branches_lo=2, branches_hi=2,
        branch_ops_lo=4, branch_ops_hi=4, seed=77,
    )
    g = datagen.generate_family(spec)[0]
    assert g.num_nodes == 20
    topo = make_topology(2, bandwidth=1e6)
    params = init_policy(PolicyConfig(num_devices=2, message_rounds=3), seed=4)

    n = g.num_nodes
    placement = tuple(int(d) for d in rng.integers(2, size=n))
    visited = rng.integers(2, size=n).astype(bool)
    unvisited = np.flatnonzero(~visited).tolist()
    current = unvisited.pop(int(rng.integers(len(unvisited))))  # a current node is never visited
    order = (*np.flatnonzero(visited).tolist(), current, *unvisited)  # visited, current, the rest
    state = placement_env.EpisodeState(
        graph=g, placement=placement, step_index=int(visited.sum()), visit_order=order,
        reward_scale=1.0, cached_runtime=None,
    )
    base, _ = forward_one(state, topo, params)

    for _ in range(100):
        perm = rng.permutation(n)
        pg = ComputationGraph.build(
            g.name,
            [
                OpGroup(
                    id=int(perm[v]),
                    compute_seconds=g.nodes[v].compute_seconds,
                    output_bytes=g.nodes[v].output_bytes,
                )
                for v in range(n)
            ],
            {(int(perm[u]), int(perm[v])) for u, v in g.edges},
        )
        p_placement = [0] * n
        for v in range(n):
            p_placement[perm[v]] = placement[v]
        p_state = placement_env.EpisodeState(
            graph=pg, placement=tuple(p_placement), step_index=state.step_index,
            visit_order=tuple(int(perm[v]) for v in order), reward_scale=1.0, cached_runtime=None,
        )
        assert p_state.current_node == perm[current]
        probs, _ = forward_one(p_state, topo, params)
        assert np.max(np.abs(probs - base)) <= 1e-9


@criterion(6, "intermediate rewards telescope; both reward modes rank placements identically")
def test_reward_telescoping_and_rank_consistency():
    rng = np.random.default_rng(60)
    topo = make_topology(2, bandwidth=1e6)
    for _ in range(25):
        g = random_dag(rng, max_nodes=8, bytes_range=(0.0, 4e6))
        cfg = RewardConfig(mode="intermediate")
        st = reset(g, topo, cfg)
        r0 = st.cached_runtime
        total = 0.0
        while not st.done:
            st, r, _ = step(st, int(rng.integers(2)), topo, cfg)
            total += r
        r_final, _ = placement_env.evaluate_placement(g, topo, Placement(st.placement), cfg)
        assert abs(total - (r0 - r_final) / st.reward_scale) <= 1e-9

    for _ in range(10):
        g = random_dag(rng, max_nodes=6, bytes_range=(0.0, 4e6))

        def ret(mode, actions):
            cfg = RewardConfig(mode=mode, reward_scale=3.0)
            st = reset(g, topo, cfg)
            tot = 0.0
            for a in actions:
                st, r, _ = step(st, a, topo, cfg)
                tot += r
            return tot

        a1 = [int(rng.integers(2)) for _ in range(g.num_nodes)]
        a2 = [int(rng.integers(2)) for _ in range(g.num_nodes)]
        dt = ret("terminal", a1) - ret("terminal", a2)
        di = ret("intermediate", a1) - ret("intermediate", a2)
        assert abs(dt - di) <= 1e-9  # identical ranking, same margin


def _two_branch_family():
    spec = datagen.FamilySpec(
        family="branch_blocks", count=8, blocks=1, branches_lo=2, branches_hi=2,
        branch_ops_lo=3, branch_ops_hi=3, compute_lo=2.0, compute_hi=4.0,
        bytes_lo=1.0e6, bytes_hi=4.0e6, seed=7,
    )
    return datagen.generate_family(spec)[:4]


@criterion(7, "200-epoch training reaches <=1.05x optimum per graph and beats random by >=15%")
def test_learning_efficacy():
    start = time.time()
    graphs = _two_branch_family()
    assert all(g.num_nodes == 8 for g in graphs)
    topo = make_topology(2, bandwidth=1e6)
    eval_cfg = RewardConfig(mode="terminal")

    optima = {g.name: exhaustive_search(g, topo, eval_cfg)[1] for g in graphs}
    rand_mean = {
        g.name: np.mean(
            [
                placement_env.evaluate_placement(g, topo, place_random(g, topo, s), eval_cfg)[0]
                for s in range(64)
            ]
        )
        for g in graphs
    }

    pcfg = PolicyConfig(num_devices=2, message_rounds=3)
    tcfg = TrainerConfig(
        episodes=200, workers=8, seed=11, lr_start=1e-2, lr_end=1e-3,
        entropy_start=5e-3, entropy_end=1e-4,
    )
    result = train(pcfg, tcfg, graphs, topo, RewardConfig(mode="intermediate"))

    for g in graphs:
        best = result.best_placements[g.name][1]
        assert best <= 1.05 * optima[g.name], f"{g.name}: best {best} vs optimum {optima[g.name]}"
        assert best <= 0.85 * rand_mean[g.name], f"{g.name}: best {best} vs random mean {rand_mean[g.name]}"
    assert time.time() - start <= 600.0


@criterion(8, "zero-shot median <=1.10x optimum and beats median random on >=80% of test graphs")
def test_zero_shot_generalization():
    start = time.time()
    spec = datagen.FamilySpec(
        family="branch_blocks", count=32, train_fraction=0.5, blocks=1,
        branches_lo=2, branches_hi=2, branch_ops_lo=2, branch_ops_hi=4,
        compute_lo=2.0, compute_hi=4.0, bytes_lo=0.5e6, bytes_hi=2.5e6, seed=21,
    )
    graphs = datagen.generate_family(spec)
    train_graphs, test_graphs = datagen.split(graphs, spec.train_fraction, spec.seed)
    assert len(train_graphs) == 16 and len(test_graphs) == 16
    assert all(g.num_nodes <= 10 for g in test_graphs)
    topo = make_topology(2, bandwidth=1e6)

    pcfg = PolicyConfig(num_devices=2, message_rounds=3)
    tcfg = TrainerConfig(
        episodes=300, workers=8, seed=5, lr_start=1e-2, lr_end=1e-3,
        entropy_start=5e-3, entropy_end=1e-4, randomize_visit_order=True,
    )
    result = train(pcfg, tcfg, train_graphs, topo, RewardConfig(mode="intermediate"))

    eval_cfg = RewardConfig(mode="terminal")
    ratios, beats = [], []
    for g in test_graphs:
        _, opt = exhaustive_search(g, topo, eval_cfg)
        (pred,) = predict_placement(result.params, [g], topo, eval_cfg, n_samples=0)
        rand = sorted(
            placement_env.evaluate_placement(g, topo, place_random(g, topo, s), eval_cfg)[0]
            for s in range(64)
        )
        median_rand = 0.5 * (rand[31] + rand[32])
        ratios.append(pred.runtime_seconds / opt)
        beats.append(pred.runtime_seconds < median_rand)
    assert np.median(ratios) <= 1.10, f"median zero-shot ratio {np.median(ratios):.4f}"
    assert np.mean(beats) >= 0.80, f"beats random on only {sum(beats)}/16 graphs"
    assert time.time() - start <= 1200.0


@criterion(9, "baselines: exhaustive is the floor, mincut is balanced, reports regenerate identically")
def test_baseline_sanity():
    rng = np.random.default_rng(90)
    topo = make_topology(2, bandwidth=1e6)
    eval_cfg = RewardConfig(mode="terminal")
    for _ in range(15):
        g = random_dag(rng, max_nodes=7, bytes_range=(0.0, 4e6))
        _, opt = exhaustive_search(g, topo, eval_cfg)
        mincut = place_balanced_mincut(g, topo, PartitionerConfig(balance_tolerance=0.4))
        schemes = {
            "single": place_single_device(g, topo),
            "random": place_random(g, topo, 0),
            "mincut": mincut.placement,
            "expert": place_expert_chain(g, topo),
        }
        for pl in schemes.values():
            r, _ = placement_env.evaluate_placement(g, topo, pl, eval_cfg)
            assert opt <= r + 1e-12
        loads = [0.0, 0.0]
        for v, d in enumerate(mincut.placement.assignment):
            loads[d] += g.nodes[v].cost_on(0)
        cap = (1 + mincut.effective_tolerance) * sum(loads) / 2
        assert max(loads) <= cap + 1e-9
        greedy_only = place_balanced_mincut(g, topo, PartitionerConfig(0.4, refinement_passes=0))
        assert mincut.cut_bytes <= greedy_only.cut_bytes + 1e-12

    # bit-identical regeneration of a comparison report
    def report():
        rows = []
        rng2 = np.random.default_rng(17)
        for _ in range(5):
            g = random_dag(rng2, max_nodes=6, bytes_range=(0.0, 4e6))
            for name, pl in (
                ("single", place_single_device(g, topo)),
                ("random", place_random(g, topo, 3)),
                ("mincut", place_balanced_mincut(g, topo).placement),
                ("expert", place_expert_chain(g, topo)),
                ("exhaustive", exhaustive_search(g, topo, eval_cfg)[0]),
            ):
                runtime, res = placement_env.evaluate_placement(g, topo, pl, eval_cfg)
                rows.append((g.name, name, runtime, res.makespan_seconds, max(res.peak_memory_bytes)))
        return rows

    assert report() == report()


@criterion(10, "intermediate rewards give lower late-training return variance than terminal")
def test_intermediate_vs_terminal_variance():
    # Longer episodes are where per-step credit assignment pays off: use the
    # 16-node two-branch instance (two chained blocks of two branches).
    spec = datagen.FamilySpec(
        family="branch_blocks", count=4, blocks=2, branches_lo=2, branches_hi=2,
        branch_ops_lo=3, branch_ops_hi=3, compute_lo=2.0, compute_hi=4.0,
        bytes_lo=1.0e6, bytes_hi=4.0e6, seed=7,
    )
    graph = datagen.generate_family(spec)[0]
    assert graph.num_nodes == 16
    topo = make_topology(2, bandwidth=1e6)
    pcfg = PolicyConfig(num_devices=2, message_rounds=3)

    def late_variance(mode, seed, episodes=100, tail_epochs=50):
        rc = RewardConfig(mode=mode)
        tc = TrainerConfig(
            episodes=episodes, workers=8, seed=seed, lr_start=3e-3, lr_end=3e-4,
            entropy_start=1e-2, entropy_end=1e-3,
        )
        params = init_policy(pcfg, seed=seed)
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        table = BaselineTable(tc.baseline_window)
        returns = []
        for epoch in range(episodes):
            _, traces = train_epoch(params, [graph], topo, tc, rc, epoch, table, adam)
            returns.extend(sum(tr.rewards) for tr in traces)
        return np.var(returns[-tail_epochs * tc.workers :])

    vi = [late_variance("intermediate", s) for s in range(5)]
    vt = [late_variance("terminal", s) for s in range(5)]
    assert np.mean(vi) < np.mean(vt), f"intermediate {np.mean(vi):.5f} vs terminal {np.mean(vt):.5f}"
