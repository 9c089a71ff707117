import dataclasses
import math

import numpy as np
import pytest

from placement_opt import placement_env, sim_engine
from placement_opt.placement_env import (
    BYTES_PER_GB,
    EnvError,
    RewardConfig,
    evaluate_placement,
    featurize,
    featurize_batch,
    penalized_runtime,
    reset,
    runtime_of,
    step,
)
from placement_opt.graph_core import ComputationGraph, OpGroup, ReachabilityIndex
from placement_opt.sim_engine import Device, DeviceTopology, Placement, SimulationResult, simulate

from conftest import make_graph, make_topology, random_dag


def per_node_features(st, m, stepped):
    """The feature definition written out node by node; stepped lists the
    nodes the caller stepped through since reset."""
    g = st.graph
    expected = np.zeros((g.num_nodes, m + 4))
    max_c = max((node.cost_on(0) for node in g.nodes), default=0.0)
    max_b = max((node.output_bytes for node in g.nodes), default=0.0)
    for v, node in enumerate(g.nodes):
        expected[v, 0] = node.cost_on(0) / max_c if max_c > 0 else 0.0
        expected[v, 1] = node.output_bytes / max_b if max_b > 0 else 0.0
        expected[v, 2 + st.placement[v]] = 1.0
        expected[v, m + 2] = 1.0 if v in stepped else 0.0
        expected[v, m + 3] = 1.0 if v == st.current_node else 0.0
    return expected


def walk(st, actions, topo, cfg):
    """Step st through actions; returns the last state and the nodes stepped."""
    stepped = []
    for a in actions:
        stepped.append(st.current_node)
        st, _, _ = step(st, a, topo, cfg)
    return st, stepped


def fake_result(makespan, peak_bytes):
    return SimulationResult(
        makespan_seconds=makespan,
        peak_memory_bytes=tuple(peak_bytes),
        node_spans=(),
        transfers=(),
        event_count=0,
    )


# The paper's memory limit, declared by every device of PAPER_TOPOLOGY.
PAPER_LIMIT = 10.7 * BYTES_PER_GB
PAPER_TOPOLOGY = make_topology(2, memory=PAPER_LIMIT)


class TestPenalizedRuntime:
    def test_paper_constants(self):
        # r = 2.0 s, peak 11.7 GB against a 10.7 GB device at 2 s/GB
        cfg = RewardConfig(mode="terminal")
        res = fake_result(2.0, [11.7 * BYTES_PER_GB, 0.0])
        assert penalized_runtime(res, PAPER_TOPOLOGY, cfg) == 4.0

    def test_below_threshold_identity(self):
        cfg = RewardConfig(mode="terminal")
        res = fake_result(3.5, [1e9, 2e9])
        assert penalized_runtime(res, PAPER_TOPOLOGY, cfg) == 3.5

    def test_boundary_inclusive(self):
        cfg = RewardConfig(mode="terminal")
        res = fake_result(1.0, [PAPER_LIMIT, PAPER_LIMIT])
        assert penalized_runtime(res, PAPER_TOPOLOGY, cfg) == 1.0

    def test_monotone_and_continuous_in_memory(self):
        cfg = RewardConfig(mode="terminal")
        m_grid = np.linspace(9.0, 13.0, 81) * BYTES_PER_GB
        vals = [penalized_runtime(fake_result(2.0, [m, 0.0]), PAPER_TOPOLOGY, cfg) for m in m_grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        at = penalized_runtime(fake_result(2.0, [PAPER_LIMIT, 0.0]), PAPER_TOPOLOGY, cfg)
        just_above = penalized_runtime(fake_result(2.0, [PAPER_LIMIT + 1.0, 0.0]), PAPER_TOPOLOGY, cfg)
        assert abs(just_above - at) < 1e-8

    def test_each_device_has_its_own_limit(self):
        # Devices of 4 GB and 10.7 GB: the penalty charges the largest
        # overflow of a peak above its own device's limit.
        cfg = RewardConfig(mode="terminal")
        topo = make_topology(2, memory=[4e9, PAPER_LIMIT])
        gb = BYTES_PER_GB
        assert penalized_runtime(fake_result(2.0, [4e9, PAPER_LIMIT]), topo, cfg) == 2.0
        assert penalized_runtime(fake_result(2.0, [3e9, 11.7 * gb]), topo, cfg) == 4.0
        # 5 GB on device 0 is over its 4 GB, though below device 1's limit.
        assert penalized_runtime(fake_result(2.0, [5e9, 0.0]), topo, cfg) == 4.0
        assert penalized_runtime(fake_result(2.0, [6e9, 11.7 * gb]), topo, cfg) == 6.0
        assert penalized_runtime(fake_result(2.0, [0.0, 6e9]), topo, cfg) == 2.0

    def test_config_validation(self):
        with pytest.raises(EnvError, match='env key \'mode\' must be one of "terminal", "intermediate", not "nope"'):
            RewardConfig(mode="nope")
        with pytest.raises(EnvError):
            RewardConfig(penalty_per_gb=-1)
        for value in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(EnvError, match="env key 'penalty_per_gb' must be a finite number >= 0, not "):
                RewardConfig(penalty_per_gb=value)
        assert RewardConfig(penalty_per_gb=0).penalty_per_gb == 0
        with pytest.raises(EnvError):
            RewardConfig(reward_scale=0.0)
        for value in (math.nan, math.inf, 10**400):
            with pytest.raises(EnvError, match="env key 'reward_scale' must be a finite number > 0 or null, not "):
                RewardConfig(reward_scale=value)


class TestReset:
    def test_all_device_0(self, two_device):
        g = make_graph("c3", [1, 1, 1], [0, 0, 0], {(0, 1), (1, 2)})
        st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        assert st.placement == (0, 0, 0)
        assert st.step_index == 0
        assert st.current_node == 0
        assert st.visit_order == (0, 1, 2)

    def test_random_init_reproducible(self, diamond, two_device):
        cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        a = reset(diamond, two_device, cfg, init_mode="random", init_seed=7)
        b = reset(diamond, two_device, cfg, init_mode="random", init_seed=7)
        assert a.placement == b.placement
        c = reset(diamond, two_device, cfg, init_mode="random", init_seed=8)
        assert a.placement != c.placement  # seeds 7 and 8 happen to differ

    def test_order_seed_orthogonal_to_init(self, diamond, two_device):
        cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        a = reset(diamond, two_device, cfg, order_seed=1)
        b = reset(diamond, two_device, cfg, order_seed=2)
        assert a.placement == b.placement == (0, 0, 0, 0)
        for st in (a, b):
            pos = {v: i for i, v in enumerate(st.visit_order)}
            for u, v in diamond.edges:
                assert pos[u] < pos[v]

    def test_auto_reward_scale_is_initial_runtime(self, diamond, two_device):
        cfg = RewardConfig(mode="intermediate")
        st = reset(diamond, two_device, cfg)
        r0, _ = evaluate_placement(diamond, two_device, Placement((0, 0, 0, 0)), cfg)
        assert st.reward_scale == r0
        assert st.cached_runtime == r0


class TestFeaturize:
    def test_stated_example(self, two_device):
        # node 1: on device 1, visited, not current; compute 2 of max 4,
        # output 1 MB of max 2 MB -> [0.5, 0.5, 0, 1, 1, 0]
        g = make_graph("f", [4.0, 2.0], [2e6, 1e6], {(0, 1)})
        st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        st, _, _ = step(st, 0, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        # after one step: node 0 visited, node 1 current; re-pin node 1 to dev 1
        object.__setattr__(st, "placement", (0, 1))
        feats = featurize(st, two_device)
        assert feats[0].tolist() == [1.0, 1.0, 1.0, 0.0, 1.0, 0.0]
        assert feats[1].tolist() == [0.5, 0.5, 0.0, 1.0, 0.0, 1.0]

    def test_current_flag_at_reset(self, diamond, two_device):
        st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        feats = featurize(st, two_device)
        assert feats[:, -1].sum() == 1.0
        assert feats[0, -1] == 1.0
        assert feats[:, -2].sum() == 0.0  # nothing visited

    def test_zero_outputs_guarded(self, two_device):
        g = make_graph("z", [1.0, 1.0], [0.0, 0.0], {(0, 1)})
        st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        feats = featurize(st, two_device)
        assert (feats[:, 1] == 0.0).all()

    def test_matches_per_node_loop(self, two_device):
        # The vectorized featurize equals the per-node definition exactly,
        # mid-episode, from a random initial placement, on 2 and 3 devices.
        rng = np.random.default_rng(118)
        for topo in (two_device, make_topology(3)):
            m = topo.num_devices
            for _ in range(20):
                g = random_dag(rng, max_nodes=9, bytes_range=(0.0, 4e6))
                cfg = RewardConfig(mode="terminal", reward_scale=1.0)
                st = reset(g, topo, cfg, init_mode="random", init_seed=int(rng.integers(100)))
                actions = [int(rng.integers(m)) for _ in range(int(rng.integers(g.num_nodes + 1)))]
                st, stepped = walk(st, actions, topo, cfg)
                assert np.array_equal(featurize(st, topo), per_node_features(st, m, stepped))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_batch_equals_stacked_single_states(self, m):
        # States of mixed sizes, a 1-node graph among them, at every stage
        # from reset to done, stacked in order.
        rng = np.random.default_rng(120 + m)
        topo = make_topology(m)
        cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        graphs = [make_graph("one", [2.0], [0.0], set())]
        graphs += [random_dag(rng, max_nodes=12, bytes_range=(0.0, 4e6)) for _ in range(6)]
        states, steppeds = [], []
        for g in graphs + graphs[::-1]:
            st = reset(g, topo, cfg, init_mode="random", init_seed=int(rng.integers(100)))
            actions = [int(rng.integers(m)) for _ in range(int(rng.integers(g.num_nodes + 1)))]
            st, stepped = walk(st, actions, topo, cfg)
            states.append(st)
            steppeds.append(stepped)
        assert any(st.done for st in states) and any(not st.done for st in states)
        batch = featurize_batch(states, m)
        assert np.array_equal(batch, np.concatenate([featurize(st, topo) for st in states]))
        assert np.array_equal(batch, np.concatenate([per_node_features(st, m, sv) for st, sv in zip(states, steppeds)]))
        assert np.array_equal(featurize_batch(states[:1], m), featurize(states[0], topo))

    def test_graph_at_a_freed_graphs_id(self, two_device):
        # A graph allocated where a featurized graph was freed gets its own
        # cost and bytes columns, CSR arrays and reachability index, not the
        # freed graph's.
        cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        a = make_graph("a", [1.0, 4.0], [2e6, 1e6], {(0, 1)})
        b = make_graph("b", [3.0, 1.0], [0.0, 5e5], set())
        reused = 0
        for _ in range(5):
            old = dataclasses.replace(a)
            featurize(reset(old, two_device, cfg), two_device)
            assert old.parent_csr[1].tolist() == [0] and old.reachability_index.descendants == (0b10, 0)
            freed = id(old)
            del old
            new = ComputationGraph(b.name, b.nodes, b.edges, b.parents, b.children)
            reused += id(new) == freed
            st = reset(new, two_device, cfg)
            assert np.array_equal(featurize_batch([st], 2), per_node_features(st, 2, []))
            assert featurize(st, two_device)[:, :2].tolist() == [[1.0, 0.0], [1.0 / 3.0, 1.0]]
            for counts, ids in (new.parent_csr, new.child_csr):
                assert counts.tolist() == [0, 0] and ids.tolist() == []
            assert new.reachability_index == ReachabilityIndex(ancestors=(0, 0), descendants=(0, 0))
        assert reused  # the allocator did hand out a freed graph's id

    def test_feature_dim(self, two_device):
        assert placement_env.feature_dim(2) == 6
        assert placement_env.feature_dim(4) == 8


class TestStep:
    def test_terminal_final_reward(self):
        # Build an instance whose final placement yields R = 4.0: makespan 2.0
        # with an 11.7 GB tensor on a 10.7 GB device.
        g = make_graph("mem", [1.0, 1.0], [11.7 * BYTES_PER_GB, 0.0], {(0, 1)})
        cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        st = reset(g, PAPER_TOPOLOGY, cfg)
        st, r, done = step(st, 0, PAPER_TOPOLOGY, cfg)
        assert (r, done) == (0.0, False)
        st, r, done = step(st, 0, PAPER_TOPOLOGY, cfg)
        assert done
        assert r == -4.0

    def test_intermediate_unchanged_action_zero_reward(self, diamond, two_device):
        cfg = RewardConfig(mode="intermediate")
        st = reset(diamond, two_device, cfg)
        st2, r, _ = step(st, 0, two_device, cfg)  # keeps node 0 on device 0
        assert r == 0.0

    def test_episode_length_and_flags(self, diamond, two_device):
        cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        st = reset(diamond, two_device, cfg)
        seen = []
        for i in range(diamond.num_nodes):
            seen.append(st.current_node)
            st, _, done = step(st, 1, two_device, cfg)
            assert done == (i == diamond.num_nodes - 1)
        assert sorted(seen) == [0, 1, 2, 3]
        assert st.current_node is None
        assert (featurize(st, two_device)[:, -2] == 1.0).all()
        assert st.placement == (1, 1, 1, 1)
        with pytest.raises(EnvError, match="after episode end"):
            step(st, 0, two_device, cfg)

    def test_invalid_action(self, diamond, two_device):
        cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        st = reset(diamond, two_device, cfg)
        with pytest.raises(EnvError, match="invalid device"):
            step(st, 9, two_device, cfg)

    def test_intermediate_telescopes(self, two_device):
        rng = np.random.default_rng(17)
        cfg = RewardConfig(mode="intermediate")
        for _ in range(15):
            g = random_dag(rng, max_nodes=7, bytes_range=(0.0, 4e6))
            st = reset(g, two_device, cfg)
            r0 = st.cached_runtime
            total = 0.0
            while not st.done:
                st, r, _ = step(st, int(rng.integers(2)), two_device, cfg)
                total += r
            r_final, _ = evaluate_placement(g, two_device, Placement(st.placement), cfg)
            assert total == pytest.approx((r0 - r_final) / st.reward_scale, abs=1e-9)

    def test_modes_rank_final_placements_identically(self, two_device):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_dag(rng, max_nodes=6, bytes_range=(0.0, 4e6))

            def ret(mode, actions):
                cfg = RewardConfig(mode=mode, reward_scale=2.5)
                st = reset(g, two_device, cfg)
                total = 0.0
                for a in actions:
                    st, r, _ = step(st, a, two_device, cfg)
                    total += r
                return total

            acts1 = [int(rng.integers(2)) for _ in range(g.num_nodes)]
            acts2 = [int(rng.integers(2)) for _ in range(g.num_nodes)]
            t_order = ret("terminal", acts1) - ret("terminal", acts2)
            i_order = ret("intermediate", acts1) - ret("intermediate", acts2)
            assert t_order == pytest.approx(i_order, abs=1e-9)


@pytest.fixture
def profiled(monkeypatch):
    """How many times memory_profile runs."""
    calls = []
    memory_profile = sim_engine.memory_profile

    def counting(*args):
        calls.append(1)
        return memory_profile(*args)

    monkeypatch.setattr(sim_engine, "memory_profile", counting)
    return calls


def runtime_case(rng):
    """A random graph, topology and placement on 1-3 devices: cost vectors,
    compute scales and bandwidth matrices in about half the cases each. Each
    device's memory_bytes is drawn on its own, from a fifth to twice the
    graph's total output bytes, so the total and the peaks fall on both sides
    of the limits and the smallest limit is on any device."""
    m = int(rng.integers(1, 4))
    g = random_dag(rng, max_nodes=9, bytes_range=(0.0, 4e6))
    if rng.random() < 0.5:
        costs = rng.uniform(0.1, 5.0, size=(g.num_nodes, m))
        nodes = [OpGroup(id=v, compute_seconds=tuple(map(float, costs[v])), output_bytes=g.nodes[v].output_bytes)
                 for v in range(g.num_nodes)]
        g = ComputationGraph.build("vec", nodes, set(g.edges))
    scales = rng.choice([0.5, 1.0, 1.5, 2.0], size=m) if rng.random() < 0.5 else np.ones(m)
    bandwidth = float(rng.uniform(0.5e6, 3e6))
    if rng.random() < 0.5:
        bandwidth = tuple(tuple(map(float, row)) for row in rng.uniform(0.5e6, 3e6, size=(m, m)))
    limits = (g.total_output_bytes or 1.0) * rng.choice([0.2, 0.5, 0.9, 1.0, 1.01, 2.0], size=m)
    topo = DeviceTopology(
        devices=tuple(Device(id=i, memory_bytes=float(b), compute_scale=float(s))
                      for i, (b, s) in enumerate(zip(limits, scales))),
        bandwidth_bytes_per_sec=bandwidth,
    )
    return g, topo, Placement(tuple(int(d) for d in rng.integers(m, size=g.num_nodes)))


def penalized_by_device(result, topology, cfg):
    """The penalized runtime as the worst of each over-limit device's own
    penalized makespan; the penalty is monotone, so bit for bit the same."""
    r = result.makespan_seconds
    return max((r + cfg.penalty_per_gb * (p - d.memory_bytes) / BYTES_PER_GB
                for p, d in zip(result.peak_memory_bytes, topology.devices) if p > d.memory_bytes), default=r)


class TestRuntimeOf:
    def test_equals_penalized_simulation(self, profiled):
        rng = np.random.default_rng(61)
        cfg = RewardConfig()
        full = fast = penalized = 0
        for _ in range(400):
            g, topo, pl = runtime_case(rng)
            if not g.total_output_bytes:
                continue
            result = simulate(g, topo, pl)
            expected = penalized_by_device(result, topo, cfg)
            assert penalized_runtime(result, topo, cfg) == expected
            profiled.clear()
            assert runtime_of(g, topo, pl, cfg) == expected
            full += bool(profiled)
            fast += not profiled
            penalized += expected > sim_engine.makespan(g, topo, pl)
        assert full > 50 and fast > 50 and penalized > 20

    def test_total_within_the_margin_takes_the_full_path(self, profiled):
        # One ulp of headroom on the smaller device, device 1: the penalty is
        # 0, but rounding in the memory sweep could in principle exceed it,
        # so memory_profile decides.
        g = make_graph("chain", [1.0, 2.0, 3.0], [1e6, 3e6, 0.7e6], {(0, 1), (1, 2)})
        pl = Placement((0, 1, 0))
        cfg = RewardConfig()
        total = g.total_output_bytes
        margin = (g.num_nodes + 1) * 2.0**-49
        for limit, profiles in ((math.nextafter(total, math.inf), 1), (total * (1 + 2 * margin), 0)):
            topo = make_topology(2, memory=[4 * total, limit])
            expected = simulate(g, topo, pl).makespan_seconds
            profiled.clear()
            assert runtime_of(g, topo, pl, cfg) == expected
            assert len(profiled) == profiles

    def test_episode_rewards_skip_the_memory_profile(self, diamond, two_device, profiled):
        cfg = RewardConfig(mode="intermediate")
        st, _ = walk(reset(diamond, two_device, cfg), [1, 0, 1, 1], two_device, cfg)
        assert placement_env.final_runtime(st, two_device, cfg) == evaluate_placement(
            diamond, two_device, Placement(st.placement), cfg
        )[0]
        assert len(profiled) == 1  # evaluate_placement's own
