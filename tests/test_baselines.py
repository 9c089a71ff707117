import itertools

import numpy as np
import pytest

from placement_opt import baselines, placement_env
from placement_opt.baselines import (
    BaselineError,
    PartitionerConfig,
    exhaustive_search,
    node_depths,
    place_balanced_mincut,
    place_expert_chain,
    place_random,
    place_single_device,
)
from placement_opt.placement_env import RewardConfig
from placement_opt.graph_core import ComputationGraph, OpGroup
from placement_opt.sim_engine import Device, DeviceTopology, Placement, simulate

from conftest import make_graph, make_topology, random_dag

TCFG = RewardConfig(mode="terminal")


class TestSingleDevice:
    def test_all_zero_no_transfers(self, diamond, two_device):
        pl = place_single_device(diamond, two_device)
        assert pl.assignment == (0, 0, 0, 0)
        assert simulate(diamond, two_device, pl).transfers == ()

    def test_chain_serial_sum(self, two_device):
        g = make_graph("c", [1.0, 2.0, 3.0], [0, 0, 0], {(0, 1), (1, 2)})
        res = simulate(g, two_device, place_single_device(g, two_device))
        assert res.makespan_seconds == 6.0

    def test_beats_cross_device_diamond(self, diamond, two_device, diamond_placement):
        mono = simulate(diamond, two_device, place_single_device(diamond, two_device))
        split = simulate(diamond, two_device, diamond_placement)
        assert mono.makespan_seconds == 6.0
        assert split.makespan_seconds == 8.0


class TestRandom:
    def test_reproducible(self, diamond, two_device):
        assert place_random(diamond, two_device, 5) == place_random(diamond, two_device, 5)

    def test_single_device_degenerate(self, diamond):
        topo = make_topology(1)
        assert place_random(diamond, topo, 3) == place_single_device(diamond, topo)

    def test_uniform_frequencies(self, two_device):
        g = make_graph("f", [1, 1, 1, 1], [0, 0, 0, 0], set())
        n_trials = 10_000
        counts = np.zeros((4, 2))
        for s in range(n_trials):
            pl = place_random(g, two_device, s)
            for v, d in enumerate(pl.assignment):
                counts[v, d] += 1
        sigma = np.sqrt(n_trials * 0.25)
        assert (np.abs(counts - n_trials / 2) <= 3 * sigma).all()


class TestBalancedMincut:
    def test_independent_nodes_split_evenly(self, two_device):
        g = make_graph("indep", [1, 1, 1, 1], [5, 5, 5, 5], set())
        res = place_balanced_mincut(g, two_device, PartitionerConfig(balance_tolerance=0.0))
        loads = [sum(1 for d in res.placement.assignment if d == k) for k in range(2)]
        assert loads == [2, 2]
        assert res.cut_bytes == 0.0

    def test_huge_edge_colocated_under_loose_balance(self, two_device):
        g = make_graph("pair", [1.0, 1.0], [1e9, 0.0], {(0, 1)})
        res = place_balanced_mincut(g, two_device, PartitionerConfig(balance_tolerance=1.0))
        assert res.placement.assignment[0] == res.placement.assignment[1]
        assert res.cut_bytes == 0.0

    def test_two_chains_one_per_device(self, two_device):
        g = make_graph(
            "twochains",
            [2.0, 2.0, 2.0, 2.0],
            [7e6, 7e6, 7e6, 7e6],
            {(0, 1), (2, 3)},
        )
        res = place_balanced_mincut(g, two_device, PartitionerConfig(balance_tolerance=0.0))
        a = res.placement.assignment
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        assert res.cut_bytes == 0.0

    def test_balance_respected(self, two_device):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = random_dag(rng, max_nodes=12, bytes_range=(0.0, 9.0))
            cfg = PartitionerConfig(balance_tolerance=0.5)
            res = place_balanced_mincut(g, two_device, cfg)
            loads = [0.0, 0.0]
            for v, d in enumerate(res.placement.assignment):
                loads[d] += g.nodes[v].cost_on(0)
            cap = (1 + res.effective_tolerance) * sum(loads) / 2
            assert max(loads) <= cap + 1e-9

    def test_refinement_never_worsens_cut(self, two_device):
        # The refined result is never worse than the greedy pass alone.
        rng = np.random.default_rng(37)
        for _ in range(25):
            g = random_dag(rng, max_nodes=12, bytes_range=(0.0, 9.0))
            raw = place_balanced_mincut(g, two_device, PartitionerConfig(0.4, refinement_passes=0))
            refined = place_balanced_mincut(g, two_device, PartitionerConfig(0.4, refinement_passes=3))
            assert refined.cut_bytes <= raw.cut_bytes + 1e-12

    def test_infeasible_tolerance_relaxes(self, two_device):
        # One giant node forces relaxation when the tolerance is zero.
        g = make_graph("lopsided", [100.0, 1.0], [0.0, 0.0], set())
        res = place_balanced_mincut(g, two_device, PartitionerConfig(balance_tolerance=0.0))
        assert res.relaxed
        assert res.effective_tolerance > 0.0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(BaselineError):
            PartitionerConfig(balance_tolerance=-0.1)


class TestExpertChain:
    def test_layered_one_layer_per_device(self):
        topo = make_topology(4)
        # 4 layers x 2 nodes, equal cost
        edges = {(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)}
        g = make_graph("layers", [1.0] * 8, [0.0] * 8, edges)
        pl = place_expert_chain(g, topo)
        depth = node_depths(g)
        for v in range(8):
            assert pl.assignment[v] == depth[v]

    def test_chain_six_equal_ops_split_three_three(self, two_device):
        g = make_graph("c6", [1.0] * 6, [0.0] * 6, {(i, i + 1) for i in range(5)})
        pl = place_expert_chain(g, two_device)
        assert pl.assignment == (0, 0, 0, 1, 1, 1)

    def test_single_device(self, diamond):
        topo = make_topology(1)
        assert place_expert_chain(diamond, topo).assignment == (0, 0, 0, 0)


class TestExhaustive:
    def test_expensive_transfer_colocates(self, two_device):
        g = make_graph("pair", [1.0, 1.0], [50e6, 0.0], {(0, 1)})
        pl, runtime = exhaustive_search(g, two_device, TCFG)
        assert pl.assignment[0] == pl.assignment[1]
        assert runtime == 2.0

    def test_parallel_branches_split(self, two_device):
        # Branch compute of 10 s each dwarfs a 1 s transfer, so the optimum
        # runs the branches on different devices.
        g = make_graph(
            "fork",
            [0.1, 10.0, 10.0, 0.1],
            [1e6, 1e6, 1e6, 0.0],
            {(0, 1), (0, 2), (1, 3), (2, 3)},
        )
        pl, runtime = exhaustive_search(g, two_device, TCFG)
        assert pl.assignment[1] != pl.assignment[2]
        assert runtime < 20.0

    def test_single_device_topology(self, diamond):
        topo = make_topology(1)
        pl, _ = exhaustive_search(diamond, topo, TCFG)
        assert pl.assignment == (0, 0, 0, 0)

    def test_budget_guard(self, two_device):
        g = make_graph("big", [1.0] * 8, [0.0] * 8, set())
        with pytest.raises(BaselineError, match="budget"):
            exhaustive_search(g, two_device, TCFG, budget=100)

    def test_lexicographic_tie_break(self, two_device):
        # A single zero-cost node: every placement ties, so device 0 wins.
        g = make_graph("tie", [1.0], [0.0], set())
        pl, _ = exhaustive_search(g, two_device, TCFG)
        assert pl.assignment == (0,)

    def test_optimum_bounds_all_schemes(self, two_device):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_dag(rng, max_nodes=7, bytes_range=(0.0, 4e6))
            _, opt = exhaustive_search(g, two_device, TCFG)
            for scheme_pl in (
                place_single_device(g, two_device),
                place_random(g, two_device, 0),
                place_balanced_mincut(g, two_device).placement,
                place_expert_chain(g, two_device),
            ):
                r, _ = placement_env.evaluate_placement(g, two_device, scheme_pl, TCFG)
                assert opt <= r + 1e-12

    def test_deterministic(self, two_device):
        rng = np.random.default_rng(43)
        g = random_dag(rng, max_nodes=6, bytes_range=(0.0, 4e6))
        assert exhaustive_search(g, two_device, TCFG) == exhaustive_search(g, two_device, TCFG)


def full_enumeration(graph, topology, cfg):
    """Every placement in lexicographic order; the first minimum wins."""
    best = None
    for assign in itertools.product(range(topology.num_devices), repeat=graph.num_nodes):
        runtime, _ = placement_env.evaluate_placement(graph, topology, Placement(assign), cfg)
        if best is None or runtime < best[1]:
            best = (assign, runtime)
    return Placement(best[0]), best[1]


@pytest.fixture
def count_simulations(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return simulate(*args)

    monkeypatch.setattr(baselines, "simulate", counting)
    return calls


class TestExhaustiveMirrorPruning:
    def test_memory_penalty_matches_full_enumeration(self, two_device, count_simulations):
        # Peaks of a few MB over a 3 MB threshold make the penalty decide.
        cfg = RewardConfig(mode="terminal", memory_threshold_bytes=3e6, penalty_per_gb=2e3)
        rng = np.random.default_rng(51)
        penalized = 0
        for _ in range(12):
            g = random_dag(rng, max_nodes=8, bytes_range=(0.5e6, 4e6))
            expected = full_enumeration(g, two_device, cfg)
            count_simulations.clear()
            assert exhaustive_search(g, two_device, cfg) == expected
            assert len(count_simulations) == 2 ** (g.num_nodes - 1)
            best = simulate(g, two_device, expected[0])
            penalized += expected[1] > best.makespan_seconds
        assert penalized > 0

    def test_tied_optima_match_full_enumeration(self, two_device, count_simulations):
        # Integer costs and zero-byte tensors: many placements tie.
        rng = np.random.default_rng(53)
        for _ in range(12):
            n = int(rng.integers(2, 9))
            edges = {(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.3}
            g = make_graph("ties", rng.integers(0, 3, size=n).astype(float), [0.0] * n, edges)
            expected = full_enumeration(g, two_device, TCFG)
            count_simulations.clear()
            assert exhaustive_search(g, two_device, TCFG) == expected
            assert len(count_simulations) == 2 ** (n - 1)

    @pytest.mark.parametrize("case", ["compute_scale", "bandwidth_matrix", "cost_vectors", "memory_bytes"])
    def test_distinguishable_devices_enumerate_everything(self, case, count_simulations):
        rng = np.random.default_rng(57)
        g = random_dag(rng, max_nodes=7, bytes_range=(0.5e6, 4e6))
        n = g.num_nodes
        scales, bandwidth, memory = (1.0, 1.0), 1e6, (1e9, 1e9)
        if case == "compute_scale":
            scales = (1.0, 2.0)
        elif case == "memory_bytes":
            memory = (1e9, 2e9)
        elif case == "bandwidth_matrix":
            bandwidth = ((0.0, 1e6), (2e6, 0.0))
        else:
            nodes = [OpGroup(id=v, compute_seconds=(1.0, 1.0 + v % 2), output_bytes=1e6) for v in range(n)]
            g = ComputationGraph.build("vec", nodes, set(g.edges))
        topo = DeviceTopology(
            devices=tuple(Device(id=i, memory_bytes=memory[i], compute_scale=s) for i, s in enumerate(scales)),
            bandwidth_bytes_per_sec=bandwidth,
        )
        expected = full_enumeration(g, topo, TCFG)
        count_simulations.clear()
        assert exhaustive_search(g, topo, TCFG) == expected
        assert len(count_simulations) == 2**n
