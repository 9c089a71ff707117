"""merge_and_colocate against a verbatim copy of its earlier, sort-per-merge
version: the same coarse graphs (by save_graph text) and the same mappings."""

import numpy as np
import pytest

from placement_opt.datagen import BRANCH_BLOCKS, ENCODER_DECODER, LAYERED_RANDOM, FamilySpec, generate_family
from placement_opt.graph_core import (
    ComputationGraph,
    GraphError,
    OpGroup,
    merge_and_colocate,
    save_graph,
)


def _add_costs(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    # Element-wise with length-1 broadcast, so per-device totals are conserved.
    if len(a) == len(b):
        return tuple(x + y for x, y in zip(a, b))
    if len(a) == 1:
        return tuple(a[0] + y for y in b)
    if len(b) == 1:
        return tuple(x + b[0] for x in a)
    raise GraphError(f"cannot add cost vectors of lengths {len(a)} and {len(b)}")


def reference_merge_and_colocate(graph: ComputationGraph, target_size: int, cost_threshold: float):
    """Coarsen by repeatedly merging the cheapest node into a neighbor.

    The cost metric is output_bytes. Merging continues while the graph is
    larger than ``target_size`` or some node is cheaper than
    ``cost_threshold``. The chosen node is absorbed by the successor fed by
    the largest tensor (its own output, so ties resolve to the smallest
    successor id) or, lacking successors, the predecessor with the largest
    output. A merge that would create a cycle (an alternative path between
    the pair) is skipped in favor of the next candidate. Isolated nodes are
    never merged.

    Returns (coarse graph, mapping original id -> coarse id).
    """
    if target_size < 1:
        raise GraphError(f"target size {target_size} must be >= 1")

    # Mutable adjacency over surviving nodes.
    n = graph.num_nodes
    alive = set(range(n))
    children = {v: set(graph.children[v]) for v in range(n)}
    parents = {v: set(graph.parents[v]) for v in range(n)}
    cost = {v: graph.nodes[v].output_bytes for v in range(n)}
    compute = {v: graph.nodes[v].compute_seconds for v in range(n)}
    members = {v: [v] for v in range(n)}
    absorbed_into = {}

    def path_exists(src, dst, skip_edge):
        # DFS over current adjacency, ignoring one direct edge.
        stack = [src]
        seen = {src}
        while stack:
            u = stack.pop()
            for w in children[u]:
                if (u, w) == skip_edge:
                    continue
                if w == dst:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def pick_target(v):
        # Successor fed by the largest tensor; every out-edge of v carries
        # v's own output, so this reduces to the smallest safe successor id.
        # A reachability-minimal successor is always safe (any alternative
        # path's first hop is a successor that reaches it), so the pred
        # branch is taken only when v has no successors at all.
        for s in sorted(children[v]):
            if not path_exists(v, s, skip_edge=(v, s)):
                return s, "succ"
        for p in sorted(parents[v], key=lambda q: (-cost[q], q)):
            if not path_exists(p, v, skip_edge=(p, v)):
                return p, "pred"
        return None, None

    while len(alive) > 1:
        need_size = len(alive) > target_size
        candidates = sorted(
            (v for v in alive if children[v] or parents[v]),
            key=lambda v: (cost[v], v),
        )
        if not need_size:
            candidates = [v for v in candidates if cost[v] < cost_threshold]
        if not candidates:
            break
        merged = False
        for v in candidates:
            target, kind = pick_target(v)
            if target is None:
                continue
            # Absorb v into target.
            if kind == "succ":
                still_external = bool(children[v] - {target})
                new_out = cost[target] + (cost[v] if still_external else 0.0)
            else:
                # v had no successors; its tensor fed nothing.
                new_out = cost[target]
            compute[target] = _add_costs(compute[target], compute[v])
            cost[target] = new_out
            members[target].extend(members[v])
            for c in list(children[v]):
                parents[c].discard(v)
                if c != target:
                    children[target].add(c)
                    parents[c].add(target)
            for p in list(parents[v]):
                children[p].discard(v)
                if p != target:
                    children[p].add(target)
                    parents[target].add(p)
            children[target].discard(target)
            parents[target].discard(target)
            children.pop(v)
            parents.pop(v)
            alive.remove(v)
            absorbed_into[v] = target
            merged = True
            break
        if not merged:
            break

    # Rebuild with dense ids, preserving relative order of survivors.
    survivors = sorted(alive)
    new_id = {v: i for i, v in enumerate(survivors)}
    colocation = {}
    for orig in range(n):
        root = orig
        while root in absorbed_into:
            root = absorbed_into[root]
        colocation[orig] = new_id[root]

    coarse_nodes = []
    for v in survivors:
        orig_members = []
        for m in sorted(members[v]):
            g = graph.nodes[m]
            orig_members.extend(g.members if g.members else (str(m),))
        coarse_nodes.append(
            OpGroup(
                id=new_id[v],
                compute_seconds=compute[v],
                output_bytes=cost[v],
                members=tuple(orig_members),
            )
        )
    coarse_edges = set()
    for v in survivors:
        for c in children[v]:
            coarse_edges.add((new_id[v], new_id[c]))
    coarse = ComputationGraph.build(graph.name, coarse_nodes, coarse_edges)
    return coarse, colocation


def assert_same_coarsening(graph, targets, thresholds):
    """Both versions give the same save_graph text and mapping for every
    target and threshold; returns how many cases merged down to at most
    the target while the threshold kept merging."""
    past_target = 0
    for target in targets:
        for threshold in thresholds:
            coarse, colocation = merge_and_colocate(graph, target, threshold)
            ref, ref_colocation = reference_merge_and_colocate(graph, target, threshold)
            assert colocation == ref_colocation, (graph.name, target, threshold)
            assert save_graph(coarse) == save_graph(ref), (graph.name, target, threshold)
            past_target += coarse.num_nodes < min(target, graph.num_nodes)
    return past_target


def spread(n):
    """Targets of 1, n/4, n/2 and n."""
    return sorted({1, max(1, n // 4), max(1, n // 2), max(1, n)})


def tied_dag(rng, n):
    """A random DAG on n nodes, many of them isolated, whose output sizes
    are drawn from three values, so costs tie."""
    edges = {(u, v) for v in range(n) for u in range(v) if rng.random() < 0.25}
    nodes = [OpGroup(i, (float(rng.uniform(0.1, 5.0)),), float(rng.choice([0.0, 1.0, 2.0]))) for i in range(n)]
    return ComputationGraph.build(f"tied-{n}", nodes, edges)


FAMILY_SPECS = [
    FamilySpec(family=BRANCH_BLOCKS, count=3, blocks=4, seed=3),
    FamilySpec(family=ENCODER_DECODER, count=3, layers_lo=1, layers_hi=3, unroll_lo=2, unroll_hi=5, seed=4),
    FamilySpec(family=LAYERED_RANDOM, count=3, layers_lo=3, layers_hi=6, branches_lo=2, branches_hi=5, seed=5),
]


class TestSameAsReference:
    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
    def test_seeded_families(self, spec):
        past_target = 0
        for graph in generate_family(spec):
            # Thresholds of none, about a median output and above every output.
            past_target += assert_same_coarsening(graph, spread(graph.num_nodes), [0.0, 4.5e6, 1e9])
        assert past_target > 0

    def test_random_dags_with_ties_and_isolated_nodes(self):
        rng = np.random.default_rng(2024)
        past_target = 0
        for i in range(200):
            graph = tied_dag(rng, 1 + i % 14)
            past_target += assert_same_coarsening(graph, spread(graph.num_nodes), [0.0, 1.0, 1.5, 2.0, 1e9])
        assert past_target > 0

    def test_cost_vectors_and_members(self):
        graph = generate_family(FamilySpec(family=BRANCH_BLOCKS, count=2, blocks=6, seed=8))[0]
        scales = (1.0, 1.0, 1.5, 2.0)
        nodes = [
            OpGroup(g.id, tuple(g.compute_seconds[0] * s for s in scales), g.output_bytes,
                    (f"op{g.id}", f"op{g.id}/bias") if g.id % 3 else ())
            for g in graph.nodes
        ]
        vector = ComputationGraph.build(graph.name, nodes, graph.edges)
        assert_same_coarsening(vector, spread(vector.num_nodes), [0.0, 4.5e6, 1e9])

    def test_place_large_sized_graph(self):
        spec = FamilySpec(family=BRANCH_BLOCKS, count=2, blocks=128, branches_lo=2, branches_hi=4,
                          branch_ops_lo=2, branch_ops_hi=4, seed=1000)
        graph = generate_family(spec)[0]
        assert graph.num_nodes > 1000
        assert_same_coarsening(graph, [graph.num_nodes // 4], [0.0])
