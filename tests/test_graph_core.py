import json
import re
import sys

import numpy as np
import pytest

from placement_opt import graph_core
from placement_opt.datagen import FamilySpec, generate_family
from placement_opt.fileio import check_object, number, parse_json, refusal
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
        # Named by the document entry, not by the node's dense id.
        with pytest.raises(GraphError) as e:
            load_graph(doc([{"id": 0, "cost": 1.0}, {"id": 5, "cost": -2.0}], []))
        assert str(e.value) == "graph nodes[1] key 'cost' must be a finite number >= 0, not -2.0"

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


def dict_document(graph):
    """A graph document built one dict per node and written by json.dumps."""
    nodes = []
    for g in graph.nodes:
        row = {"id": g.id, "cost": list(g.compute_seconds) if len(g.compute_seconds) > 1 else g.compute_seconds[0],
               "output_bytes": g.output_bytes}
        if g.members:
            row["members"] = list(g.members)
        nodes.append(row)
    edges = [[u, v] for u, children in enumerate(graph.children) for v in children]
    return json.dumps({"name": graph.name, "nodes": nodes, "edges": edges}, indent=2)


class TestSaveGraphText:
    """save_graph's text is json.dumps's indented text, with and without
    members and cost vectors."""

    @pytest.mark.parametrize("widths", [(1,), (4,), (1, 4)])
    @pytest.mark.parametrize("with_members", [False, True])
    def test_equals_json_dumps(self, widths, with_members):
        rng = np.random.default_rng(len(widths) * 10 + with_members)
        for _ in range(10):
            g = random_dag(rng, max_nodes=9)
            nodes = [
                OpGroup(n.id, tuple(float(x) for x in rng.uniform(0, 3, widths[n.id % len(widths)])), n.output_bytes,
                        (f"op {n.id}", f"op/{n.id}, \"b\"") if with_members and n.id % 2 else ())
                for n in g.nodes
            ]
            g = ComputationGraph.build('g "quoted", too', nodes, g.edges)
            assert any(n.members for n in g.nodes) == with_members
            assert save_graph(g) == dict_document(g)
            assert load_graph(save_graph(g)).nodes == g.nodes

    def test_integral_values_and_empty_graph(self):
        g = ComputationGraph.build("ints", [OpGroup(0, (1,), 2), OpGroup(1, (0, 3), 0)], {(0, 1)})
        assert save_graph(g) == dict_document(g)
        empty = ComputationGraph.build("", [], set())
        assert save_graph(empty) == dict_document(empty)


class TestSaveGraphAtScale:
    """save_graph writes a graph of place_large's size from its columns and
    one whose single node has members from node objects; both give
    json.dumps's text and read back to the same graph."""

    @pytest.fixture(scope="class")
    def large(self):
        # Graph i of a family depends on the spec seed and i, not the count,
        # so this is the first graph of place_large's 24 (seed 1000).
        spec = FamilySpec(family="branch_blocks", count=2, blocks=128, branches_lo=2, branches_hi=4,
                          branch_ops_lo=2, branch_ops_hi=4, seed=1000)
        return generate_family(spec)[0]

    def _check(self, g):
        text = save_graph(g)
        assert text == dict_document(g)
        back = load_graph(text)
        assert (back.name, back.nodes, back.edges) == (g.name, g.nodes, g.edges)

    def test_first_place_large_graph(self, large):
        assert large.num_nodes == 1387 and large.cost_widths == {1}
        self._check(large)

    def test_one_node_with_members(self, large):
        nodes = list(large.nodes)
        nodes[700] = nodes[700]._replace(members=("a, b", "%s"))
        self._check(ComputationGraph.build(large.name, nodes, large.edges))


# The per-node loader that the column-checked one replaced, kept as the
# reference: every node goes through check_object, number and a validating
# OpGroup, in document order.
_REF_GRAPH = {"name": "str", "nodes": "list", "edges": "list"}
_REF_NODE = {"id": "int", "cost": "number|list", "output_bytes": "number", "members": "list"}


def reference_load_graph(text):
    doc = parse_json(text, "graph", GraphError)
    check_object(doc, _REF_GRAPH, "graph", GraphError, required=("nodes",))
    orig_ids, fields = [], []
    for i, nd in enumerate(doc["nodes"]):
        where = f"graph nodes[{i}]"
        check_object(nd, _REF_NODE, where, GraphError, required=("id",))
        cost = nd.get("cost", 0.0)
        if type(cost) is list:
            cost = tuple([number(c, where, "cost", GraphError) for c in cost])
        else:
            cost = (float(cost),)
        if not all(type(m) is str for m in nd.get("members", ())):
            raise GraphError(refusal(where, "members", nd["members"], "a list of strings"))
        members = tuple(nd.get("members", ()))
        orig_ids.append(nd["id"])
        fields.append((cost, float(nd.get("output_bytes", 0.0)), members))
    n = len(orig_ids)
    remap = range(n)
    if orig_ids != list(remap):
        if len(set(orig_ids)) != n:
            dup = sorted(i for i in set(orig_ids) if orig_ids.count(i) > 1)
            raise GraphError(f"duplicate node id {dup[0]}")
        remap = {orig: new for new, orig in enumerate(sorted(orig_ids))}
        by_id = sorted(zip(orig_ids, fields))
        fields = [
            (cost, size, (members or (str(orig),)) if orig != new else members)
            for new, (orig, (cost, size, members)) in enumerate(by_id)
        ]
    nodes = [OpGroup(i, cost, size, members) for i, (cost, size, members) in enumerate(fields)]
    edges = []
    for e in doc.get("edges", ()):
        if type(e) is not list or len(e) != 2:
            raise GraphError(refusal("graph", "edges", e, "a [parent, child] pair of node ids"))
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise GraphError(refusal("graph", "edges", e, "a [parent, child] pair of node ids"))
        if u not in remap or v not in remap:
            raise GraphError(f"edge ({u}, {v}) references a missing node")
        edges.append((remap[u], remap[v]))
    return ComputationGraph.build(doc.get("name", ""), nodes, edges)


def _loaded(load, text):
    """(graph, None) or (None, the GraphError's message)."""
    try:
        return load(text), None
    except GraphError as e:
        return None, str(e)


def _same_graph(a, b):
    # repr tells 1 from 1.0 and 0.0 from -0.0, which == does not.
    assert repr(a.nodes) == repr(b.nodes)
    assert (a.name, a.edges, a.parents, a.children) == (b.name, b.edges, b.parents, b.children)


def _random_document(rng):
    """A valid graph document: scalar or list costs, integer-valued numbers,
    members, dense or sparse ids, keys in any order, optional keys left out."""
    n = int(rng.integers(0, 25))
    kind = rng.integers(3)
    if kind == 0:
        ids = list(range(n))
    elif kind == 1:
        ids = [int(i) for i in rng.permutation(n)]
    else:
        ids = [int(i) for i in rng.choice(np.arange(-50, 200), size=n, replace=False)]
    width = int(rng.integers(1, 4))

    def number():
        x = [float(rng.uniform(0, 10)), int(rng.integers(0, 1000)), 2.0, 0, -0.0, 5e-324, 1.7976931348623157e308]
        return x[rng.integers(len(x)) if rng.random() < 0.3 else 0]

    nodes = []
    for orig in ids:
        nd = {"id": orig}
        if rng.random() < 0.9:
            nd["cost"] = [number() for _ in range(width)] if rng.random() < 0.3 else number()
        if rng.random() < 0.8:
            nd["output_bytes"] = number()
        if rng.random() < 0.2:
            nd["members"] = [["a", "b, c"], [], ["1", "None", "2.5"], ["x"]][rng.integers(4)]
        keys = list(nd)
        rng.shuffle(keys)
        nodes.append({k: nd[k] for k in keys})
    order = [int(i) for i in rng.permutation(n)]  # a topological order of the document's ids
    edges = [[ids[order[a]], ids[order[b]]] for a in range(n) for b in range(a + 1, n) if rng.random() < 0.15]
    doc = {"nodes": nodes}
    if edges or rng.random() < 0.5:
        doc["edges"] = edges
    if rng.random() < 0.7:
        doc["name"] = "g"
    return doc


# A node entry the loader refuses: (entry with id ID, the new message where
# the reference's is a node value refusal by dense id, else None).
AT_LEAST_0 = "must be a finite number >= 0, not"
BAD_NODES = {
    "cost_nan": ({"id": "ID", "cost": float("nan")}, None),
    "cost_infinity": ({"id": "ID", "cost": float("inf")}, None),
    "output_bytes_minus_infinity": ({"id": "ID", "output_bytes": float("-inf")}, None),
    "cost_int_beyond_float": ({"id": "ID", "cost": 10**400}, None),
    "cost_int_just_beyond_float": ({"id": "ID", "cost": int(sys.float_info.max) + 1}, None),
    "cost_entry_int_beyond_float": ({"id": "ID", "cost": [1.0, 2**1024]}, None),
    "cost_entry_nan": ({"id": "ID", "cost": [float("nan"), 1.0]}, None),
    "cost_bool": ({"id": "ID", "cost": True}, None),
    "cost_entry_bool": ({"id": "ID", "cost": [False]}, None),
    "output_bytes_bool": ({"id": "ID", "output_bytes": True}, None),
    "id_bool": ({"id": True}, None),
    "id_float": ({"id": 1.0}, None),
    "id_null": ({"id": None}, None),
    "no_id": ({"cost": 1.0}, None),
    "unknown_key": ({"id": "ID", "costs": 1.0}, None),
    "cost_string": ({"id": "ID", "cost": "1"}, None),
    "cost_entry_null": ({"id": "ID", "cost": [None]}, None),
    "members_string": ({"id": "ID", "members": "ab"}, None),
    "members_int": ({"id": "ID", "members": 5}, None),
    "members_entry_null": ({"id": "ID", "members": ["a", None]}, None),
    "members_entries_not_strings": ({"id": "ID", "members": [1, None, {"a": 2}]}, None),
    "output_bytes_list": ({"id": "ID", "output_bytes": [1]}, None),
    "output_bytes_string": ({"id": "ID", "output_bytes": "2e6"}, None),
    "not_an_object": (5, None),
    "a_list": ([], None),
    "duplicate_id": ({"id": 0}, None),
    "cost_empty_list": ({"id": "ID", "cost": []}, "graph nodes[{i}] key 'cost' must be a non-empty list, not []"),
    "cost_negative": ({"id": "ID", "cost": -2.0}, f"graph nodes[{{i}}] key 'cost' {AT_LEAST_0} -2.0"),
    "cost_negative_int": ({"id": "ID", "cost": -2}, f"graph nodes[{{i}}] key 'cost' {AT_LEAST_0} -2"),
    "cost_entry_negative": ({"id": "ID", "cost": [1.0, -0.5]}, f"graph nodes[{{i}}] key 'cost' {AT_LEAST_0} -0.5"),
    "output_bytes_negative": ({"id": "ID", "output_bytes": -1e-9},
                              f"graph nodes[{{i}}] key 'output_bytes' {AT_LEAST_0} -1e-09"),
}
# Edge lists the loader refuses, for the same node table of ids 0..4.
BAD_EDGES = {
    "edge_not_a_list": [[0, 1], "01"],
    "edge_one_end": [[0, 1], [2]],
    "edge_three_ends": [[0, 1, 2]],
    "edge_bool_end": [[True, 1]],
    "edge_float_end": [[0, 1.0]],
    "edge_missing_node": [[0, 1], [1, 99]],
    "edge_negative_end": [[-1, 2]],
    "self_loop": [[0, 1], [3, 3]],
    "self_loop_then_missing_node": [[3, 3], [0, 99]],  # each end is looked up before any edge is indexed
    "self_loop_on_missing_node": [[99, 99]],
    "duplicate_edge": [[0, 1], [1, 2], [0, 1]],
    "cycle": [[0, 1], [1, 2], [2, 0]],
}


# Replacement values for the mutation fuzz below.
MUTANTS = [None, True, False, "", "1", [], {}, [1.0], [-1.0], 0, -1, 1.5, -0.0, -2.5, 7, 10**400, float("nan"),
           float("inf"), float("-inf"), 1.7976931348623157e308]
VALUE_REFUSAL = re.compile(
    r"graph nodes\[\d+\] key '(cost|output_bytes)' must be (a finite number >= 0|a non-empty list), not "
)
DENSE_ID_VALUE_REFUSAL = r"node \d+: .* not finite and >= 0|node \d+: empty compute cost vector"


def _mutate(doc, rng):
    """Replace or drop one value at some depth of a graph document."""
    paths = [(key,) for key in doc]
    for i, nd in enumerate(doc["nodes"] if type(doc.get("nodes")) is list else ()):
        paths.append(("nodes", i))
        if type(nd) is dict:
            paths += [("nodes", i, k) for k in nd]
            paths += [("nodes", i, "cost", j) for j in range(len(nd["cost"]))] if type(nd.get("cost")) is list else []
    for j, e in enumerate(doc["edges"] if type(doc.get("edges")) is list else ()):
        paths += [("edges", j)] + ([("edges", j, k) for k in range(len(e))] if type(e) is list else [])
    path = paths[rng.integers(len(paths))]
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if type(parent) is dict and rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = MUTANTS[rng.integers(len(MUTANTS))]


class TestColumnLoaderMatchesReference:
    def test_valid_documents_load_equal_graphs(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            doc = _random_document(rng)
            text = json.dumps(doc)
            assert graph_core._node_columns(doc["nodes"]) is not None  # the column path takes it
            _same_graph(load_graph(text), reference_load_graph(text))

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("case", BAD_NODES)
    def test_bad_node_gives_the_reference_message(self, case, position):
        bad, reworded = BAD_NODES[case]
        i = {"first": 0, "middle": 3, "last": 6}[position]
        nodes = [{"id": v, "cost": 1.0, "output_bytes": 2.0} for v in range(6)]
        if type(bad) is dict and bad.get("id") == "ID":
            bad = {**bad, "id": 40}
        nodes.insert(i, bad)
        text = json.dumps({"nodes": nodes, "edges": [[0, 1], [1, 2]]})
        expected = _loaded(reference_load_graph, text)[1]
        assert expected is not None
        if reworded is None:
            assert _loaded(load_graph, text)[1] == expected
        else:
            assert re.fullmatch(DENSE_ID_VALUE_REFUSAL, expected)
            assert _loaded(load_graph, text)[1] == reworded.format(i=i)

    def test_mutated_documents_give_the_reference_message(self):
        # Node value refusals are reworded to name the document entry; where
        # several values are out of range, the reference named the lowest
        # dense id and the loader names the first entry.
        rng = np.random.default_rng(7)
        loaded = refused = reworded = 0
        for _ in range(1500):
            doc = _random_document(rng)
            if not doc["nodes"]:
                continue
            for _ in range(1 + rng.integers(2)):
                _mutate(doc, rng)
            text = json.dumps(doc)
            graph, message = _loaded(load_graph, text)
            expected_graph, expected = _loaded(reference_load_graph, text)
            if expected is None:
                assert message is None, text
                _same_graph(graph, expected_graph)
                loaded += 1
            elif re.fullmatch(DENSE_ID_VALUE_REFUSAL, expected):
                assert VALUE_REFUSAL.match(message), (text, message)
                reworded += 1
            else:
                assert message == expected, text
            refused += expected is not None
        assert loaded > 100 and refused > 1000 and reworded > 30, (loaded, refused, reworded)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("case", BAD_EDGES)
    def test_bad_edges_give_the_reference_message(self, case, sparse):
        ids = [0, 1, 2, 3, 4] if not sparse else [4, 3, 2, 1, 0, 7]
        text = json.dumps({"nodes": [{"id": v} for v in ids], "edges": BAD_EDGES[case]})
        expected = _loaded(reference_load_graph, text)[1]
        assert expected is not None
        assert _loaded(load_graph, text)[1] == expected


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
