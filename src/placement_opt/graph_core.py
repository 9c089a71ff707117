"""Computation-graph data model: validation, reachability, coarsening, serialization.

A graph is a DAG of op groups. Each group carries a per-device compute cost
vector (a single entry is broadcast to all devices at simulation time) and the
byte size of its output tensor. Node ids are densified to 0..n-1 on load;
original ids are kept in ``members``.

What the simulator, the featurizer and the policy derive from a graph alone
(base costs, output sizes, parent counts, source ids, cost-vector widths,
total output bytes, feature columns, CSR arrays, reachability bitsets) is a
``cached_property``, freed with the graph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple, NoReturn

import numpy as np

from .fileio import Table, check_object, finite_numbers, json_document, number, parse_json, refusal


_INF = float("inf")


class GraphError(ValueError):
    """Invalid graph document or graph operation."""


class _OpGroupFields(NamedTuple):
    id: int
    compute_seconds: tuple[float, ...]  # len 1 = same cost on every device
    output_bytes: float
    members: tuple[str, ...] = ()


class OpGroup(_OpGroupFields):
    """One atomically-placed group of operations: an immutable named tuple.

    Building one by its fields checks them; ``load_graph`` checks a whole
    node table by columns and builds its nodes with ``OpGroup._make``.
    """

    __slots__ = ()

    def __new__(cls, id: int, compute_seconds: tuple[float, ...], output_bytes: float, members: tuple[str, ...] = ()):
        if id < 0:
            raise GraphError(f"node id {id} is negative")
        if len(compute_seconds) == 0:
            raise GraphError(f"node {id}: empty compute cost vector")
        for c in compute_seconds:
            if not 0.0 <= c < _INF:
                raise GraphError(f"node {id}: compute cost {c} not finite and >= 0")
        if not 0.0 <= output_bytes < _INF:
            raise GraphError(f"node {id}: output_bytes {output_bytes} not finite and >= 0")
        return super().__new__(cls, id, compute_seconds, output_bytes, members)

    def cost_on(self, device: int) -> float:
        """Compute seconds on a device; a length-1 vector is broadcast."""
        if len(self.compute_seconds) == 1:
            return self.compute_seconds[0]
        return self.compute_seconds[device]


@dataclass(frozen=True)
class ComputationGraph:
    """Immutable DAG of op groups with dense ids 0..n-1."""

    name: str
    nodes: tuple[OpGroup, ...]
    edges: frozenset[tuple[int, int]]
    parents: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    children: tuple[tuple[int, ...], ...] = field(repr=False, default=())

    @staticmethod
    def build(name, nodes, edges) -> "ComputationGraph":
        """Validate and index a graph; nodes must already have dense ids."""
        nodes = tuple(sorted(nodes, key=attrgetter("id")))
        n = len(nodes)
        ids = [g.id for g in nodes]
        if ids != list(range(n)):
            seen = set()
            for i in ids:
                if i in seen:
                    raise GraphError(f"duplicate node id {i}")
                seen.add(i)
            raise GraphError(f"node ids {ids} are not dense 0..{n - 1}")
        return _indexed(name, nodes, list(edges))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def scaled_costs_and_bytes(self) -> np.ndarray:
        """Read-only (n, 2) feature columns, computed once per graph: each
        node's device-0 compute cost and output bytes over their graph-wide
        maxima; a column whose maximum is 0 stays 0."""
        cols = np.zeros((self.num_nodes, 2))
        for k, values in enumerate((self.base_costs, self.output_sizes)):
            values = np.array(values, dtype=np.float64)
            top = values.max(initial=0.0)
            if top > 0:
                cols[:, k] = values / top
        cols.flags.writeable = False
        return cols

    @cached_property
    def base_costs(self) -> tuple[float, ...]:
        """Each node's compute seconds on device 0, in id order: its cost on
        every device when every cost vector has length 1."""
        return tuple([g.compute_seconds[0] for g in self.nodes])

    @cached_property
    def output_sizes(self) -> tuple[float, ...]:
        """Each node's output_bytes, in id order."""
        return tuple([g.output_bytes for g in self.nodes])

    @cached_property
    def total_output_bytes(self) -> float:
        """The correctly rounded sum of every node's output_bytes."""
        return math.fsum(self.output_sizes)

    @cached_property
    def parent_counts(self) -> tuple[int, ...]:
        """Each node's number of parents, in id order."""
        return tuple(map(len, self.parents))

    @cached_property
    def source_ids(self) -> tuple[int, ...]:
        """The nodes without parents, in id order."""
        return tuple([v for v, p in enumerate(self.parents) if not p])

    @cached_property
    def cost_widths(self) -> frozenset[int]:
        """The distinct lengths of the nodes' compute cost vectors."""
        return frozenset([len(g.compute_seconds) for g in self.nodes])

    @cached_property
    def parent_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(counts, ids): each node's parent count, and all parent ids flat
        in node order, each node's in ``parents`` order (np.intp)."""
        return _csr(self.parents)

    @cached_property
    def child_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(counts, ids) of each node's children, as parent_csr."""
        return _csr(self.children)

    @cached_property
    def reachability_index(self) -> "ReachabilityIndex":
        """reachability(self), swept once per graph object: about n² bits."""
        return reachability(self)


def _csr(lists) -> tuple[np.ndarray, np.ndarray]:
    counts = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    return counts, np.fromiter((u for ids in lists for u in ids), dtype=np.intp, count=int(counts.sum()))


def _indexed(name, nodes: tuple, edges: list) -> ComputationGraph:
    """Check the edges among nodes with dense ids 0..n-1, in order (self-loop,
    missing node, duplicate; then cycles), and index the graph."""
    n = len(nodes)
    edge_set = set(edges)
    # Edges that all run from a lower id to a higher one are in range and
    # admit no self-loop or cycle; only duplicates remain to be ruled out.
    forward = all(0 <= u < v < n for u, v in edges)
    if not forward or len(edge_set) != len(edges):
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references a missing node")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
    parents = [[] for _ in range(n)]
    children = [[] for _ in range(n)]
    # Sorting a list already in order (as save_graph writes it) is one pass.
    for u, v in sorted(edges):
        children[u].append(v)
        parents[v].append(u)
    g = ComputationGraph(name, nodes, frozenset(edge_set), tuple(map(tuple, parents)), tuple(map(tuple, children)))
    if not forward:
        cycle = _find_cycle(g)
        if cycle is not None:
            raise GraphError("cycle detected: " + " -> ".join(map(str, cycle)))
    return g


def _find_cycle(graph: ComputationGraph):
    """Return one cycle as a node list, or None if the graph is acyclic."""
    n = graph.num_nodes
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    parent = [-1] * n
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(graph.children[root]))]
        color[root] = 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if color[v] == 0:
                    color[v] = 1
                    parent[v] = u
                    stack.append((v, iter(graph.children[v])))
                    advanced = True
                    break
                if color[v] == 1:
                    cycle = [v, u]
                    w = u
                    while w != v:
                        w = parent[w]
                        cycle.append(w)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[u] = 2
                stack.pop()
    return None


_GRAPH = {"name": "str", "nodes": "list", "edges": "list"}
_NODE = {"id": "int", "cost": "number|list", "output_bytes": "number", "members": "list"}
_AT_LEAST_0 = "a finite number >= 0"


def load_graph(text) -> ComputationGraph:
    """Parse and validate a graph document (JSON text or bytes).

    The node table and the edge list are checked a column at a time, in a
    fixed number of passes whatever the graph's size; only once a column
    check has failed does a walk in document order name the first fault.
    Sparse node ids are remapped to 0..n-1 in increasing original-id order;
    a remapped node with no declared members records its original id there.
    """
    doc = parse_json(text, "graph", GraphError)
    check_object(doc, _GRAPH, "graph", GraphError, required=("nodes",))
    columns = _node_columns(doc["nodes"])
    if columns is None:
        _refuse_nodes(doc["nodes"])
    ids, costs, sizes, members = columns

    n = len(ids)
    remap = range(n)  # original id -> dense id; a range when they are equal
    if ids != list(remap):
        _check_unique(ids)
        remap = {orig: new for new, orig in enumerate(sorted(ids))}
        ids, costs, sizes, members = zip(*sorted(zip(ids, costs, sizes, members)))
        members = [(m or (str(orig),)) if orig != new else m for new, (orig, m) in enumerate(zip(ids, members))]
    nodes = tuple(map(OpGroup._make, zip(range(n), costs, sizes, members)))
    return _indexed(doc.get("name", ""), nodes, _edge_pairs(doc.get("edges", []), remap))


def _node_columns(nodes):
    """(ids, cost tuples, output sizes, members) of a node table whose every
    entry is valid, each value converted as OpGroup holds it; None if some
    entry is at fault. A missing id reads as None, which no kind admits."""
    if not set(map(type, nodes)) <= {dict} or not _NODE.keys() >= set().union(*nodes):
        return None
    ids = [nd.get("id") for nd in nodes]
    costs = [nd.get("cost", 0.0) for nd in nodes]
    sizes = [nd.get("output_bytes", 0.0) for nd in nodes]
    if not set(map(type, ids)) <= {int} or not finite_numbers(sizes, 0.0):
        return None
    if list in set(map(type, costs)):
        lists = [c for c in costs if type(c) is list]
        flat = [c for c in costs if type(c) is not list] + [x for c in lists for x in c]
        if not all(lists) or not finite_numbers(flat, 0.0):
            return None
        costs = [tuple(map(float, c)) if type(c) is list else (float(c),) for c in costs]
    elif finite_numbers(costs, 0.0):
        costs = list(zip(map(float, costs)))
    else:
        return None
    members = [nd.get("members", ()) for nd in nodes]  # () where the key is absent
    kinds = set(map(type, members))
    if not kinds <= {list, tuple}:
        return None
    if list in kinds:
        if not {type(m) for ms in members for m in ms} <= {str}:
            return None
        members = list(map(tuple, members))
    return ids, costs, list(map(float, sizes)), members


def _refuse_nodes(nodes) -> NoReturn:
    """Raise the GraphError for the first fault of a node table that failed
    its column check: a key or kind fault in document order, then a
    duplicate id, then a value out of range in document order."""
    for i, nd in enumerate(nodes):
        where = f"graph nodes[{i}]"
        check_object(nd, _NODE, where, GraphError, required=("id",))
        if type(nd.get("cost")) is list:
            for c in nd["cost"]:
                number(c, where, "cost", GraphError)
        if not all(type(m) is str for m in nd.get("members", ())):
            raise GraphError(refusal(where, "members", nd["members"], "a list of strings"))
    _check_unique([nd["id"] for nd in nodes])
    for i, nd in enumerate(nodes):
        where = f"graph nodes[{i}]"
        cost = nd.get("cost", 0.0)
        if cost == []:
            raise GraphError(refusal(where, "cost", cost, "a non-empty list"))
        for c in cost if type(cost) is list else (cost,):
            if c < 0:
                raise GraphError(refusal(where, "cost", c, _AT_LEAST_0))
        if nd.get("output_bytes", 0.0) < 0:
            raise GraphError(refusal(where, "output_bytes", nd["output_bytes"], _AT_LEAST_0))
    raise AssertionError("a node column check failed, but no node is at fault")


def _check_unique(ids) -> None:
    if len(set(ids)) != len(ids):
        raise GraphError(f"duplicate node id {min(i for i in set(ids) if ids.count(i) > 1)}")


def _edge_pairs(edges: list, remap) -> list[tuple[int, int]]:
    """The edges as (parent, child) pairs of dense ids, checked by columns;
    a walk in document order names the first faulty edge."""
    if set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}:
        parents, children = zip(*edges) if edges else ((), ())
        ends = parents + children
        if set(map(type, ends)) <= {int}:
            if type(remap) is range:
                if not ends or (min(ends) >= 0 and max(ends) < len(remap)):
                    return list(zip(parents, children))
            elif all(map(remap.__contains__, ends)):
                return list(zip(map(remap.__getitem__, parents), map(remap.__getitem__, children)))
    for e in edges:
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise GraphError(refusal("graph", "edges", e, "a [parent, child] pair of node ids"))
        if e[0] not in remap or e[1] not in remap:
            raise GraphError(f"edge ({e[0]}, {e[1]}) references a missing node")
    raise AssertionError("an edge column check failed, but no edge is at fault")


def save_graph(graph: ComputationGraph) -> str:
    """Serialize back to the JSON document schema (round-trips load_graph).
    A graph whose every cost vector has length 1 and whose nodes have no
    members writes its node table from the cached cost and size columns.
    The edges are written in (parent, child) order, read off the children
    lists, which _indexed keeps ascending."""
    if graph.cost_widths == {1} and not any(map(attrgetter("members"), graph.nodes)):
        nodes = Table(("id", "cost", "output_bytes"), (range(graph.num_nodes), graph.base_costs, graph.output_sizes))
    else:
        nodes = [
            {
                "id": g.id,
                "cost": list(g.compute_seconds) if len(g.compute_seconds) > 1 else g.compute_seconds[0],
                "output_bytes": g.output_bytes,
                **({"members": list(g.members)} if g.members else {}),
            }
            for g in graph.nodes
        ]
    edges = [[u, v] for u, children in enumerate(graph.children) for v in children]
    return json_document({"name": graph.name, "nodes": nodes, "edges": edges})


@dataclass(frozen=True)
class ReachabilityIndex:
    """Transitive-closure bitsets: bit u of ancestors[v] set iff u can reach v."""

    ancestors: tuple[int, ...]
    descendants: tuple[int, ...]

    def parallel_mask(self, v: int) -> int:
        n = len(self.ancestors)
        full = (1 << n) - 1
        return full & ~(self.ancestors[v] | self.descendants[v] | (1 << v))


def reachability(graph: ComputationGraph) -> ReachabilityIndex:
    """Transitive closure via bitset sweeps in topological order."""
    n = graph.num_nodes
    order = topological_order(graph)
    anc = [0] * n
    for v in order:
        bits = 0
        for p in graph.parents[v]:
            bits |= anc[p] | (1 << p)
        anc[v] = bits
    desc = [0] * n
    for v in reversed(order):
        bits = 0
        for c in graph.children[v]:
            bits |= desc[c] | (1 << c)
        desc[v] = bits
    return ReachabilityIndex(ancestors=tuple(anc), descendants=tuple(desc))


def bitset_to_ids(bits: int) -> np.ndarray:
    """Ascending positions of the set bits (np.intp), from one unpack of the
    bitset's bytes. Most relation sets of a chained graph hold most of its
    nodes, so a Python loop costs O(n) big-int operations per set even over
    set bits only."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").nonzero()[0]


def relation_id_arrays(index: ReachabilityIndex, v: int):
    """relation_sets as ascending id arrays (np.intp), unpacked straight from
    the bitsets without a Python list."""
    n = len(index.ancestors)
    if not (0 <= v < n):
        raise GraphError(f"node id {v} out of range 0..{n - 1}")
    return (
        bitset_to_ids(index.ancestors[v]),
        bitset_to_ids(index.descendants[v]),
        bitset_to_ids(index.parallel_mask(v)),
    )


def relation_sets(index: ReachabilityIndex, v: int):
    """(ancestor ids, descendant ids, parallel ids) of v; disjoint, cover V minus v."""
    return tuple(ids.tolist() for ids in relation_id_arrays(index, v))


def topological_order(graph: ComputationGraph, seed=None):
    """Kahn's algorithm. Deterministic min-id tie-break without a seed;
    uniform choice among ready nodes with one."""
    n = graph.num_nodes
    indeg = [len(graph.parents[v]) for v in range(n)]
    order = []
    if seed is None:
        ready = [v for v in range(n) if indeg[v] == 0]
        heapq.heapify(ready)
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in graph.children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
    else:
        rng = np.random.default_rng(seed)
        ready = sorted(v for v in range(n) if indeg[v] == 0)
        while ready:
            v = ready.pop(int(rng.integers(len(ready))))
            order.append(v)
            fresh = []
            for c in graph.children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    fresh.append(c)
            ready.extend(sorted(fresh))
    if len(order) != n:
        raise GraphError("cycle detected during topological sort")
    return order


def _add_costs(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    # Element-wise with length-1 broadcast, so per-device totals are conserved.
    if len(a) == len(b):
        return tuple(x + y for x, y in zip(a, b))
    if len(a) == 1:
        return tuple(a[0] + y for y in b)
    if len(b) == 1:
        return tuple(x + b[0] for x in a)
    raise GraphError(f"cannot add cost vectors of lengths {len(a)} and {len(b)}")


def _reaches_around(children, src: int, dst: int) -> bool:
    """Whether src reaches dst along children by a path of two edges or more."""
    stack = [w for w in children[src] if w != dst]
    seen = set(stack)
    while stack:
        for w in children[stack.pop()]:
            if w == dst:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def merge_and_colocate(graph: ComputationGraph, target_size: int, cost_threshold: float):
    """Coarsen by repeatedly merging the cheapest node into a neighbor.

    A node's cost is its output_bytes, and the cheapest node is the least by
    (cost, id) among those that still have an edge: isolated nodes never
    merge. Merging continues while the graph is larger than ``target_size``
    or the cheapest cost is below ``cost_threshold``.

    The cheapest node is absorbed by its smallest-id successor that no other
    path from it reaches or, if it is a sink, by its largest-output
    predecessor (then smallest id) that no other path to it leaves. With no
    other path between the two, the merge closes no cycle. Such a target
    always exists, so the cheapest node always merges: a successor that no
    other successor reaches, or a predecessor that reaches no other
    predecessor. The target's output grows by the node's only if the node's
    tensor still leaves the group, to another successor.

    Returns (coarse graph, mapping original id -> coarse id).
    """
    if target_size < 1:
        raise GraphError(f"target size {target_size} must be >= 1")
    n = graph.num_nodes
    children = [set(c) for c in graph.children]
    parents = [set(p) for p in graph.parents]
    cost = list(graph.output_sizes)
    compute = [g.compute_seconds for g in graph.nodes]
    root = list(range(n))  # v itself while v survives, else the node that absorbed it
    merged = []  # absorbed nodes, in merge order
    heap = [(cost[v], v) for v in range(n) if children[v] or parents[v]]
    heapq.heapify(heap)
    while heap:
        c, v = heapq.heappop(heap)
        if root[v] != v or c != cost[v] or not (children[v] or parents[v]):
            continue  # absorbed, repriced or isolated since it was pushed
        if n - len(merged) <= target_size and not c < cost_threshold:
            break
        if children[v]:
            t = next(s for s in sorted(children[v]) if not _reaches_around(children, v, s))
            cost[t] += cost[v] if len(children[v]) > 1 else 0.0
            heapq.heappush(heap, (cost[t], t))
        else:
            t = next(p for p in sorted(parents[v], key=lambda q: (-cost[q], q)) if not _reaches_around(children, p, v))
        compute[t] = _add_costs(compute[t], compute[v])
        for w in children[v]:
            parents[w].discard(v)
            parents[w].add(t)
        for w in parents[v]:
            children[w].discard(v)
            children[w].add(t)
        children[t] |= children[v]
        parents[t] |= parents[v]
        children[t].discard(t)
        parents[t].discard(t)
        root[v] = t
        merged.append(v)
    for v in reversed(merged):  # a target outlives the nodes it absorbs
        root[v] = root[root[v]]

    # Dense ids in survivor order; each group's members in original-id order.
    survivors = [v for v in range(n) if root[v] == v]
    new_id = {v: i for i, v in enumerate(survivors)}
    colocation = {v: new_id[root[v]] for v in range(n)}
    members = [[] for _ in survivors]
    for v, g in enumerate(graph.nodes):
        members[colocation[v]].extend(g.members or (str(v),))
    coarse_nodes = [OpGroup(new_id[v], compute[v], cost[v], tuple(m)) for v, m in zip(survivors, members)]
    coarse_edges = {(new_id[v], new_id[w]) for v in survivors for w in children[v]}
    return ComputationGraph.build(graph.name, coarse_nodes, coarse_edges), colocation
