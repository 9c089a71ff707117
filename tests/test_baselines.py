import itertools
from fractions import Fraction

import numpy as np
import pytest

from placement_opt import baselines, datagen, placement_env
from placement_opt.baselines import (
    BaselineError,
    PartitionerConfig,
    PartitionResult,
    exhaustive_search,
    node_depths,
    place_balanced_mincut,
    place_expert_chain,
    place_random,
    place_single_device,
)
from placement_opt.placement_env import RewardConfig
from placement_opt.graph_core import ComputationGraph, OpGroup, topological_order
from placement_opt.sim_engine import Device, DeviceTopology, Placement, simulate

from conftest import make_graph, make_topology, random_dag

TCFG = RewardConfig(mode="terminal")
# Peaks of a few MB over devices of 3 MB each make the memory penalty decide.
PENALTY_CFG = RewardConfig(mode="terminal", penalty_per_gb=2e3)
PENALTY_MEMORY = 3e6


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
        with pytest.raises(BaselineError, match="partitioner key 'balance_tolerance' must be a finite number >= 0, "
                                                "not -0.1"):
            PartitionerConfig(balance_tolerance=-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"balance_tolerance": float("nan")},
            {"balance_tolerance": float("inf")},
            {"refinement_passes": -1},
            {"refinement_passes": 1.5},
            {"refinement_passes": True},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        key, = kwargs
        with pytest.raises(BaselineError, match=f"partitioner key '{key}' must be "):
            PartitionerConfig(**kwargs)


def reference_mincut(graph, topology, cfg):
    """The full-recount partitioner: each candidate move recounts the whole cut."""
    n, m = graph.num_nodes, topology.num_devices
    loads_w = [
        float(np.mean([graph.nodes[v].cost_on(d) * topology.devices[d].compute_scale for d in range(m)]))
        for v in range(n)
    ]

    def cut(assignment):
        return sum(graph.nodes[u].output_bytes for u, v in graph.edges if assignment[u] != assignment[v])

    total = sum(loads_w)
    eps, relaxed = cfg.balance_tolerance, False
    while True:
        cap = (1.0 + eps) * total / m if total > 0 else float("inf")
        assignment, load, ok = [0] * n, [0.0] * m, True
        for v in topological_order(graph):
            best = None
            for d in range(m):
                if load[d] + loads_w[v] > cap + 1e-12:
                    continue
                added = sum(graph.nodes[p].output_bytes for p in graph.parents[v] if assignment[p] != d)
                if best is None or (added, d) < best:
                    best = (added, d)
            if best is None:
                ok = False
                break
            assignment[v] = best[1]
            load[best[1]] += loads_w[v]
        if ok:
            break
        relaxed = True
        eps = eps * 2 if eps > 0 else 0.01
    for _ in range(cfg.refinement_passes):
        moved = False
        for v in range(n):
            cur = assignment[v]
            cur_cut = cut(assignment)
            best = None
            for d in range(m):
                if d == cur or load[d] + loads_w[v] > cap + 1e-12:
                    continue
                assignment[v] = d
                c = cut(assignment)
                if c < cur_cut - 1e-15 and (best is None or (c, d) < best):
                    best = (c, d)
            assignment[v] = cur
            if best is not None:
                load[cur] -= loads_w[v]
                load[best[1]] += loads_w[v]
                assignment[v] = best[1]
                moved = True
        if not moved:
            break
    return PartitionResult(Placement(tuple(assignment)), cut(assignment), eps, relaxed)


def exact_cut(graph, assignment):
    return sum(Fraction(graph.nodes[u].output_bytes) for u, v in graph.edges if assignment[u] != assignment[v])


def scaled_topology(scales):
    return DeviceTopology(
        devices=tuple(Device(id=i, memory_bytes=12e9, compute_scale=s) for i, s in enumerate(scales)),
        bandwidth_bytes_per_sec=1e6,
    )


REFINE_TOPOLOGIES = {
    "2dev": (1.0, 1.0),
    "3dev": (1.0, 1.0, 1.0),
    "4dev": (1.0, 1.0, 1.0, 1.0),
    "4dev_scaled": (1.0, 1.0, 1.5, 2.0),
}


class TestMincutRefinement:
    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_node_loads_equal_per_node_mean(self, m):
        rng = np.random.default_rng(61 + m)
        nodes = []
        for v in range(40):
            cost = rng.uniform(0.0, 5.0, size=m if v % 2 else 1)
            nodes.append(OpGroup(id=v, compute_seconds=tuple(float(c) for c in cost), output_bytes=1.0))
        g = ComputationGraph.build("loads", nodes, set())
        topo = scaled_topology(tuple(float(s) for s in rng.uniform(0.5, 3.0, size=m)))
        per_node = [
            float(np.mean([g.nodes[v].cost_on(d) * topo.devices[d].compute_scale for d in range(m)]))
            for v in range(g.num_nodes)
        ]
        assert baselines._node_loads(g, topo) == per_node

    @pytest.mark.parametrize("family", ["branch_blocks", "layered_random", "encoder_decoder"])
    @pytest.mark.parametrize("topo_name", sorted(REFINE_TOPOLOGIES))
    def test_no_feasible_move_lowers_the_exact_cut(self, family, topo_name):
        # After refinement converges, every move that clearly keeps the balance
        # cap leaves the cut, counted exactly in rationals, no lower.
        topo = scaled_topology(REFINE_TOPOLOGIES[topo_name])
        m = topo.num_devices
        graphs = datagen.generate_family(datagen.FamilySpec(family=family, count=8, seed=71))
        if family == "branch_blocks":
            graphs += datagen.generate_family(datagen.FamilySpec(family=family, count=2, blocks=6, seed=73))
        improved = 0
        for g in graphs:
            res = place_balanced_mincut(g, topo, PartitionerConfig(refinement_passes=100))
            greedy = place_balanced_mincut(g, topo, PartitionerConfig(refinement_passes=0))
            a = list(res.placement.assignment)
            w = baselines._node_loads(g, topo)
            cap = (1.0 + res.effective_tolerance) * sum(w) / m
            load = [sum(w[v] for v in range(g.num_nodes) if a[v] == d) for d in range(m)]
            assert max(load) <= cap + 1e-9 * cap
            base = exact_cut(g, a)
            assert res.cut_bytes == pytest.approx(float(base), rel=1e-12)
            improved += base < exact_cut(g, greedy.placement.assignment)
            for v in range(g.num_nodes):
                cur = a[v]
                for d in range(m):
                    if d == cur or load[d] + w[v] > cap - 1e-9 * cap:
                        continue
                    a[v] = d
                    assert exact_cut(g, a) >= base, (g.name, v, cur, d)
                    a[v] = cur
        assert improved > 0

    def test_exact_tie_goes_to_smaller_device(self):
        # Node 1 (v) is a source on device 0 whose children sit on devices 1
        # and 2 with the same bytes: both moves save exactly 0.3, so the
        # smaller device id wins. Node 0 fills device 0 during the greedy pass.
        g = make_graph("tie", [8.0, 1.0, 4.0, 8.0], [0.0, 0.3, 0.0, 0.0], {(1, 2), (1, 3)})
        topo = make_topology(3)
        greedy = place_balanced_mincut(g, topo, PartitionerConfig(balance_tolerance=0.43, refinement_passes=0))
        assert greedy.placement.assignment == (0, 0, 1, 2)
        res = place_balanced_mincut(g, topo, PartitionerConfig(balance_tolerance=0.43))
        assert res.placement.assignment == (0, 1, 1, 2)
        assert res.cut_bytes == 0.3

    def test_zero_delta_is_no_move(self):
        # v's edges to devices 0 and 1 carry the same bytes: moving v to the
        # feasible device 1 leaves the cut unchanged, so v stays. (A zero-delta
        # move would flip v back and forth, once per pass.)
        g = make_graph("zero", [1.0, 1.0, 1.0], [0.7, 0.0, 0.0], {(0, 1), (0, 2)})
        for passes in (1, 2, 3):
            cfg = PartitionerConfig(balance_tolerance=0.5, refinement_passes=passes)
            res = place_balanced_mincut(g, make_topology(2), cfg)
            assert res.placement.assignment == (0, 0, 1)
            assert res.cut_bytes == 0.7

    @pytest.mark.parametrize("topo_name", sorted(REFINE_TOPOLOGIES))
    def test_matches_full_recount_reference(self, topo_name):
        topo = scaled_topology(REFINE_TOPOLOGIES[topo_name])
        graphs = datagen.generate_family(datagen.FamilySpec(family="branch_blocks", count=12, seed=79))
        graphs += datagen.generate_family(datagen.FamilySpec(family="branch_blocks", count=2, blocks=8, seed=83))
        for g in graphs:
            for cfg in (PartitionerConfig(), PartitionerConfig(balance_tolerance=0.05, refinement_passes=4)):
                assert place_balanced_mincut(g, topo, cfg) == reference_mincut(g, topo, cfg), g.name

    def test_matches_full_recount_reference_at_1400_nodes(self):
        spec = datagen.FamilySpec(
            family="branch_blocks", count=2, blocks=128, branches_lo=2, branches_hi=4,
            branch_ops_lo=2, branch_ops_hi=4, seed=89,
        )
        g = datagen.generate_family(spec)[0]
        assert 1200 <= g.num_nodes <= 1600
        topo = scaled_topology(REFINE_TOPOLOGIES["4dev_scaled"])
        assert place_balanced_mincut(g, topo) == reference_mincut(g, topo, PartitionerConfig())


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
def simulated(monkeypatch):
    """The assignments exhaustive_search simulates, in call order: every
    leaf it scores goes through placement_env.runtime_of."""
    calls = []
    runtime_of = placement_env.runtime_of

    def recording(graph, topology, placement, cfg):
        calls.append(placement.assignment)
        return runtime_of(graph, topology, placement, cfg)

    monkeypatch.setattr(placement_env, "runtime_of", recording)
    return calls


class TestExhaustiveMirrorPruning:
    def test_memory_penalty_matches_full_enumeration(self, simulated):
        rng = np.random.default_rng(51)
        topo = make_topology(2, memory=PENALTY_MEMORY)
        penalized = 0
        for _ in range(12):
            g = random_dag(rng, max_nodes=8, bytes_range=(0.5e6, 4e6))
            expected = full_enumeration(g, topo, PENALTY_CFG)
            simulated.clear()
            assert exhaustive_search(g, topo, PENALTY_CFG) == expected
            assert_mirror_restricted(simulated, g.num_nodes)
            best = simulate(g, topo, expected[0])
            penalized += expected[1] > best.makespan_seconds
        assert penalized > 0

    def test_tied_optima_match_full_enumeration(self, two_device, simulated):
        # Integer costs and zero-byte tensors: many placements tie.
        rng = np.random.default_rng(53)
        for _ in range(12):
            n = int(rng.integers(2, 9))
            edges = {(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.3}
            g = make_graph("ties", rng.integers(0, 3, size=n).astype(float), [0.0] * n, edges)
            expected = full_enumeration(g, two_device, TCFG)
            simulated.clear()
            assert exhaustive_search(g, two_device, TCFG) == expected
            assert_mirror_restricted(simulated, n)

    @pytest.mark.parametrize(
        "case", ["compute_scale", "bandwidth_matrix", "cost_vectors", "memory_bytes", "memory_binding"]
    )
    def test_distinguishable_devices_enumerate_everything(self, case):
        # Devices that differ are not mirror-restricted: the search reaches
        # optima with node 0 on device 1. full_enumeration returns the
        # lexicographically first optimum, so when it puts node 0 on device 1
        # no optimum has node 0 on device 0. Device memory enters the runtime
        # only when a peak exceeds its device's memory_bytes: with limits of
        # 1 and 2 GB no peak of a few MB does, so every optimum has a mirror
        # with node 0 on device 0; with limits of 3 and 6 MB the penalty
        # favours device 1.
        rng = np.random.default_rng(57)
        scales, bandwidth, memory, cfg = (1.0, 1.0), 1e6, (1e9, 1e9), TCFG
        if case == "compute_scale":
            scales = (2.0, 1.0)
        elif case == "memory_bytes":
            memory = (1e9, 2e9)
        elif case == "memory_binding":
            memory, cfg = (PENALTY_MEMORY, 2 * PENALTY_MEMORY), PENALTY_CFG
        elif case == "bandwidth_matrix":
            bandwidth = ((0.0, 2e6), (0.5e6, 0.0))
        topo = DeviceTopology(
            devices=tuple(Device(id=i, memory_bytes=memory[i], compute_scale=s) for i, s in enumerate(scales)),
            bandwidth_bytes_per_sec=bandwidth,
        )
        node0_on_1 = 0
        for _ in range(12):
            g = random_dag(rng, max_nodes=7, bytes_range=(0.5e6, 4e6))
            if case == "cost_vectors":
                nodes = [
                    OpGroup(id=v, compute_seconds=(1.0 + (v + 1) % 2, 1.0 + v % 2), output_bytes=1e6)
                    for v in range(g.num_nodes)
                ]
                g = ComputationGraph.build("vec", nodes, set(g.edges))
            expected = full_enumeration(g, topo, cfg)
            assert exhaustive_search(g, topo, cfg) == expected
            node0_on_1 += expected[0].assignment[0] == 1
        if case == "memory_bytes":
            assert node0_on_1 == 0
        else:
            assert node0_on_1 > 0


def assert_mirror_restricted(simulated, n):
    """On two interchangeable devices only placements with node 0 on device 0
    are simulated, so at most half of them."""
    assert simulated and all(a[0] == 0 for a in simulated)
    assert len(simulated) <= 2 ** (n - 1)


def with_cost_vectors(rng, g, m):
    nodes = [
        OpGroup(id=v, compute_seconds=tuple(float(c) for c in costs), output_bytes=node.output_bytes)
        for v, (node, costs) in enumerate(zip(g.nodes, rng.uniform(0.0, 3.0, size=(g.num_nodes, m))))
    ]
    return ComputationGraph.build("vec", nodes, set(g.edges))


SEARCH_TOPOLOGIES = {
    "3dev": make_topology(3),
    "4dev": make_topology(4),
    "scaled": make_topology(3, scales=[1.0, 1.5, 2.0]),
    "bandwidth_matrix": make_topology(3, bandwidth=((0.0, 1e6, 3e6), (0.5e6, 0.0, 2e6), (4e6, 0.25e6, 0.0))),
    "cost_vectors": make_topology(3),
    "zero_work": make_topology(2),
    "memory_penalty": make_topology(3, memory=PENALTY_MEMORY),
    "ties": make_topology(3),
    "shuffled_ids": make_topology(2),
}


def search_graph(case, rng, m):
    """One random graph for a named case, small enough to enumerate."""
    max_nodes = {2: 8, 3: 6, 4: 5}[m]
    if case in ("zero_work", "ties"):
        # Integer costs, a third of them zero: zero-cost ops and many tied
        # placements. Tensors are 0-2 MB, or all zero-byte for ties.
        n = int(rng.integers(2, max_nodes + 1))
        edges = {(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.4}
        sizes = [0.0] * n if case == "ties" else rng.integers(0, 3, size=n) * 1e6
        return make_graph(case, rng.integers(0, 3, size=n), sizes, edges)
    g = random_dag(rng, max_nodes=max_nodes, bytes_range=(0.5e6, 4e6) if case == "memory_penalty" else (0.0, 4e6))
    if case == "shuffled_ids":
        # Ids no longer follow a topological order, so parents may be
        # assigned after their children.
        new = rng.permutation(g.num_nodes)
        old = np.argsort(new)
        return make_graph(
            "shuffled",
            [g.nodes[v].cost_on(0) for v in old],
            [g.nodes[v].output_bytes for v in old],
            {(int(new[u]), int(new[v])) for u, v in g.edges},
        )
    return with_cost_vectors(rng, g, m) if case == "cost_vectors" else g


class TestBranchAndBound:
    @pytest.mark.parametrize("case", list(SEARCH_TOPOLOGIES))
    def test_matches_full_enumeration(self, case, simulated):
        rng = np.random.default_rng(sum(map(ord, case)))
        topo = SEARCH_TOPOLOGIES[case]
        cfg = PENALTY_CFG if case == "memory_penalty" else TCFG
        leaves = total = penalized = 0
        for _ in range(10):
            g = search_graph(case, rng, topo.num_devices)
            expected = full_enumeration(g, topo, cfg)
            simulated.clear()
            assert exhaustive_search(g, topo, cfg) == expected, g
            # Leaves are simulated in lexicographic order, each at most once.
            assert simulated and simulated == sorted(set(simulated))
            leaves += len(simulated)
            total += topo.num_devices**g.num_nodes
            penalized += expected[1] > simulate(g, topo, expected[0]).makespan_seconds
        assert leaves < total
        if case == "memory_penalty":
            assert penalized > 0

    def test_margin_keeps_an_optimum_at_its_bound(self):
        # A 5-op chain 4 -> 3 -> ... -> 0 with zero-byte tensors; device 1 is
        # a few ulps faster, so the optimum runs the whole chain there and its
        # runtime is the chain's total work. The per-device term of the bound
        # sums that work in id order, which rounds above the simulated
        # makespan (summed along the chain) and above earlier leaves: without
        # the relative margin the optimum's leaf would be pruned.
        costs = [0.5, 0.9, 0.7, 0.7, 0.5]
        s1 = 1.0 - 4 * 2.0**-53
        g = make_graph("chain", costs, [0.0] * 5, {(v + 1, v) for v in range(4)})
        topo = make_topology(2, scales=[1.0, s1])
        expected = full_enumeration(g, topo, TCFG)
        assert expected[0].assignment == (1, 1, 1, 1, 1)
        assert sum(c * s1 for c in costs) > expected[1]
        assert exhaustive_search(g, topo, TCFG) == expected

    def test_single_device_large_graph(self):
        # 1 ** n == 1 passes the budget for any n; the search must not recurse.
        spec = datagen.FamilySpec(
            family="branch_blocks", count=2, blocks=128, branches_lo=2, branches_hi=4,
            branch_ops_lo=2, branch_ops_hi=4, seed=89,
        )
        g = datagen.generate_family(spec)[0]
        assert 1200 <= g.num_nodes <= 1600
        topo = make_topology(1)
        pl, runtime = exhaustive_search(g, topo, TCFG)
        assert pl == place_single_device(g, topo)
        assert runtime == simulate(g, topo, pl).makespan_seconds

    def test_few_leaves_on_readme_topology(self, simulated):
        # branch_blocks graphs of 10-12 nodes on two interchangeable devices
        # at 1e6 bytes/s: the bound leaves under an eighth of the 2^(n-1)
        # mirror-restricted leaves to simulate.
        spec = datagen.FamilySpec(
            family="branch_blocks", count=16, blocks=1, branches_lo=2, branches_hi=2,
            branch_ops_lo=4, branch_ops_hi=5, seed=1,
        )
        topo = make_topology(2, memory=12e9, bandwidth=1e6)
        for g in datagen.generate_family(spec):
            assert 10 <= g.num_nodes <= 12
            simulated.clear()
            exhaustive_search(g, topo, TCFG)
            assert 0 < len(simulated) < 2 ** (g.num_nodes - 1) / 8, g.name
