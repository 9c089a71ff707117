import json

import numpy as np
import pytest

from placement_opt.graph_core import (
    ComputationGraph,
    GraphError,
    OpGroup,
    bitset_to_ids,
    load_graph,
    merge_and_colocate,
    reachability,
    relation_id_arrays,
    relation_sets,
    save_graph,
    topological_order,
)

from conftest import make_graph, random_dag


def doc(nodes, edges, name="g"):
    return json.dumps({"name": name, "nodes": nodes, "edges": edges})


class TestLoadGraph:
    def test_two_node_chain(self):
        g = load_graph(doc([{"id": 0, "cost": 1.0}, {"id": 1, "cost": 2.0}], [[0, 1]]))
        assert g.num_nodes == 2
        assert g.edges == {(0, 1)}
        assert g.nodes[0].compute_seconds == (1.0,)
        assert g.nodes[1].compute_seconds == (2.0,)

    def test_two_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            load_graph(doc([{"id": 0, "cost": 1.0}, {"id": 1, "cost": 1.0}], [[0, 1], [1, 0]]))

    def test_sparse_ids_remapped_with_members(self):
        g = load_graph(doc([{"id": 3, "cost": 1.0}, {"id": 7, "cost": 1.0}], [[3, 7]]))
        assert [n.id for n in g.nodes] == [0, 1]
        assert g.edges == {(0, 1)}
        assert g.nodes[0].members == ("3",)
        assert g.nodes[1].members == ("7",)

    def test_duplicate_id_rejected(self):
        with pytest.raises(GraphError, match="duplicate node id"):
            load_graph(doc([{"id": 0, "cost": 1.0}, {"id": 0, "cost": 1.0}], []))

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphError, match="missing node"):
            load_graph(doc([{"id": 0, "cost": 1.0}], [[0, 5]]))

    def test_negative_cost_rejected(self):
        with pytest.raises(GraphError, match="compute cost"):
            load_graph(doc([{"id": 0, "cost": -1.0}], []))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            load_graph(doc([{"id": 0, "cost": 1.0}], [[0, 0]]))

    def test_parse_failure(self):
        with pytest.raises(GraphError, match="JSON"):
            load_graph(b"{nope")

    def test_cost_vector_kept(self):
        g = load_graph(doc([{"id": 0, "cost": [1.5, 2.0]}], []))
        assert g.nodes[0].compute_seconds == (1.5, 2.0)
        assert g.nodes[0].cost_on(1) == 2.0

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_dag(rng, max_nodes=12)
            g2 = load_graph(save_graph(g))
            assert g2.edges == g.edges
            assert [n.compute_seconds for n in g2.nodes] == [n.compute_seconds for n in g.nodes]
            assert [n.output_bytes for n in g2.nodes] == [n.output_bytes for n in g.nodes]


class TestReachability:
    def test_chain(self):
        g = make_graph("c", [1, 1, 1], [0, 0, 0], {(0, 1), (1, 2)})
        idx = reachability(g)
        assert relation_sets(idx, 2)[0] == [0, 1]
        assert relation_sets(idx, 0)[1] == [1, 2]
        for v in range(3):
            assert relation_sets(idx, v)[2] == []

    def test_diamond_parallel(self, diamond):
        idx = reachability(diamond)
        assert relation_sets(idx, 1)[2] == [2]
        assert relation_sets(idx, 2)[2] == [1]

    def test_relation_sets_diamond_and_chain(self, diamond):
        idx = reachability(diamond)
        assert relation_sets(idx, 1) == ([0], [3], [2])
        chain = make_graph("c", [1, 1, 1], [0, 0, 0], {(0, 1), (1, 2)})
        assert relation_sets(reachability(chain), 1) == ([0], [2], [])

    def test_isolated_node(self):
        g = make_graph("iso", [1, 1, 1], [0, 0, 0], set())
        idx = reachability(g)
        assert relation_sets(idx, 1) == ([], [], [0, 2])

    def test_out_of_range(self, diamond):
        idx = reachability(diamond)
        with pytest.raises(GraphError, match="out of range"):
            relation_sets(idx, 4)
        with pytest.raises(GraphError, match="out of range"):
            relation_id_arrays(idx, -1)

    def test_id_arrays_match_relation_sets(self):
        # Seeded DAGs up to 200 nodes, so bitsets span several bytes; the
        # arrays equal relation_sets' lists and the bit-by-bit reference.
        rng = np.random.default_rng(11)
        for _ in range(15):
            g = random_dag(rng, max_nodes=200, edge_prob=0.05)
            idx = reachability(g)
            for v in range(g.num_nodes):
                arrays = relation_id_arrays(idx, v)
                bits = (idx.ancestors[v], idx.descendants[v], idx.parallel_mask(v))
                for ids, listed, b in zip(arrays, relation_sets(idx, v), bits):
                    assert ids.dtype == np.intp
                    assert np.array_equal(ids, listed)
                    assert np.array_equal(ids, _bitset_to_ids_bit_by_bit(b))

    def _dfs_descendants(self, g, v):
        seen, stack = set(), [v]
        while stack:
            u = stack.pop()
            for c in g.children[u]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen

    def test_matches_dfs_brute_force(self):
        # Oracle: per-node DFS closure on random DAGs up to 64 nodes.
        rng = np.random.default_rng(0)
        for trial in range(40):
            g = random_dag(rng, max_nodes=64, edge_prob=0.15)
            idx = reachability(g)
            for v in range(g.num_nodes):
                desc = self._dfs_descendants(g, v)
                anc, dsc, par = relation_sets(idx, v)
                assert set(dsc) == desc
                assert set(anc) == {u for u in range(g.num_nodes) if v in self._dfs_descendants(g, u)}
                # The three sets plus {v} partition V.
                assert len(anc) + len(dsc) + len(par) + 1 == g.num_nodes
                assert set(anc) | set(dsc) | set(par) | {v} == set(range(g.num_nodes))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_dag(rng, max_nodes=16)
            idx = reachability(g)
            for u in range(g.num_nodes):
                for v in range(g.num_nodes):
                    assert bool(idx.ancestors[v] >> u & 1) == bool(idx.descendants[u] >> v & 1)


def _bitset_to_ids_bit_by_bit(bits):
    # the former implementation: one shift per bit position
    out, i = [], 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


class TestBitsetToIds:
    def test_zero(self):
        assert bitset_to_ids(0).tolist() == [] == _bitset_to_ids_bit_by_bit(0)

    @pytest.mark.parametrize("k", [0, 1, 62, 63, 64, 65, 1023, 1499])
    def test_single_bit(self, k):
        assert bitset_to_ids(1 << k).tolist() == [k] == _bitset_to_ids_bit_by_bit(1 << k)

    def test_matches_bit_by_bit_on_random_bitsets(self):
        rng = np.random.default_rng(1500)
        for _ in range(200):
            width = int(rng.integers(1, 1501))
            density = float(rng.uniform(0.0, 1.0))
            bits = sum(1 << int(i) for i in np.flatnonzero(rng.random(width) < density))
            assert bitset_to_ids(bits).tolist() == _bitset_to_ids_bit_by_bit(bits)


class TestTopologicalOrder:
    def test_diamond_deterministic(self, diamond):
        assert topological_order(diamond) == [0, 1, 2, 3]

    def test_chain_unique(self):
        g = make_graph("c", [1, 1, 1], [0, 0, 0], {(0, 1), (1, 2)})
        assert topological_order(g) == [0, 1, 2]
        assert topological_order(g, seed=123) == [0, 1, 2]

    def test_seeded_orders_are_linear_extensions(self, diamond):
        orders = {tuple(topological_order(diamond, seed=s)) for s in range(20)}
        assert len(orders) > 1  # the diamond admits two extensions
        for order in orders:
            pos = {v: i for i, v in enumerate(order)}
            for u, v in diamond.edges:
                assert pos[u] < pos[v]

    def test_random_dags_property(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_dag(rng, max_nodes=32)
            for seed in (None, 1, 2):
                order = topological_order(g, seed)
                assert sorted(order) == list(range(g.num_nodes))
                pos = {v: i for i, v in enumerate(order)}
                for u, v in g.edges:
                    assert pos[u] < pos[v]


class TestMergeAndColocate:
    def test_chain_min_merged(self):
        # a(8B) -> b(1B) -> c(8B), threshold 4: only b is cheap; it merges
        # into its successor and the chain shrinks to two nodes.
        g = make_graph("abc", [1.0, 2.0, 4.0], [8.0, 1.0, 8.0], {(0, 1), (1, 2)})
        coarse, colo = merge_and_colocate(g, target_size=3, cost_threshold=4.0)
        assert coarse.num_nodes == 2
        assert colo[0] != colo[1]
        assert colo[1] == colo[2]
        assert coarse.edges == {(0, 1)}
        # compute conserved
        assert sum(n.compute_seconds[0] for n in coarse.nodes) == pytest.approx(7.0)
        # b's 1-byte tensor became internal; the merged group outputs c's 8
        assert coarse.nodes[colo[1]].output_bytes == 8.0

    def test_no_merge_when_coarse_enough(self):
        g = make_graph("ok", [1.0, 1.0], [9.0, 9.0], {(0, 1)})
        coarse, colo = merge_and_colocate(g, target_size=2, cost_threshold=4.0)
        assert coarse.num_nodes == 2
        assert colo == {0: 0, 1: 1}
        assert coarse.edges == g.edges

    def test_layered_to_target(self):
        rng = np.random.default_rng(11)
        # 10-node layered DAG: merge down to exactly 5 regardless of cost.
        edges = {(0, 2), (0, 3), (1, 3), (2, 4), (3, 5), (3, 6), (4, 7), (5, 7), (6, 8), (7, 9), (8, 9)}
        g = make_graph("layered", rng.uniform(1, 3, 10), rng.uniform(1, 9, 10), edges)
        coarse, colo = merge_and_colocate(g, target_size=5, cost_threshold=0.0)
        assert coarse.num_nodes == 5
        # still a DAG by construction (build() validates); colocation total
        assert set(colo) == set(range(10))
        assert set(colo.values()) == set(range(5))

    def test_compute_conserved_per_device(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_dag(rng, max_nodes=12, bytes_range=(0.5, 9.0))
            total = sum(n.compute_seconds[0] for n in g.nodes)
            coarse, colo = merge_and_colocate(g, target_size=3, cost_threshold=5.0)
            assert sum(n.cost_on(0) for n in coarse.nodes) == pytest.approx(total)
            assert all(colo[v] < coarse.num_nodes for v in range(g.num_nodes))

    def test_isolated_nodes_never_merge(self):
        g = make_graph("iso", [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], set())
        coarse, colo = merge_and_colocate(g, target_size=1, cost_threshold=10.0)
        assert coarse.num_nodes == 3
        assert colo == {0: 0, 1: 1, 2: 2}

    def test_target_below_one_rejected(self, diamond):
        with pytest.raises(GraphError):
            merge_and_colocate(diamond, target_size=0, cost_threshold=1.0)

    def test_members_track_originals(self):
        g = make_graph("m", [1.0, 1.0, 1.0], [8.0, 1.0, 8.0], {(0, 1), (1, 2)})
        coarse, colo = merge_and_colocate(g, 3, 4.0)
        merged = coarse.nodes[colo[1]]
        assert set(merged.members) == {"1", "2"}

    def test_unsafe_successor_skipped_to_avoid_cycle(self):
        # Node 1 is cheapest; merging it into successor 2 would close a cycle
        # through 3 -> 2, so the merge lands on successor 3 instead, and 1's
        # tensor still ships externally to 2 (bytes add onto the target's).
        g = make_graph(
            "alt",
            [5.0, 1.0, 5.0, 5.0],
            [9.0, 1.0, 9.0, 9.0],
            {(0, 1), (1, 2), (1, 3), (3, 2)},
        )
        coarse, colo = merge_and_colocate(g, target_size=4, cost_threshold=2.0)
        assert coarse.num_nodes == 3
        assert colo[1] == colo[3]
        merged = coarse.nodes[colo[1]]
        assert merged.output_bytes == 10.0  # 9 (node 3) + 1 (node 1, still external)
        assert sum(n.cost_on(0) for n in coarse.nodes) == pytest.approx(16.0)
