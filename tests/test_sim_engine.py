import hashlib
import json

import numpy as np
import pytest

from placement_opt import datagen
from placement_opt.graph_core import ComputationGraph, OpGroup
from placement_opt.sim_engine import (
    Device,
    DeviceTopology,
    Placement,
    SimError,
    load_placement,
    load_topology,
    makespan,
    oracle_simulate,
    simulate,
)

from conftest import make_graph, make_topology, random_dag


def save_topology(topology):
    bw = topology.bandwidth_bytes_per_sec
    doc = {
        "devices": [
            {"id": d.id, "memory_bytes": d.memory_bytes, "compute_scale": d.compute_scale}
            for d in topology.devices
        ],
        "bandwidth_bytes_per_sec": bw if isinstance(bw, (int, float)) else [list(r) for r in bw],
    }
    return json.dumps(doc, indent=2)


def random_placement(rng, graph, n_devices):
    return Placement(tuple(int(d) for d in rng.integers(n_devices, size=graph.num_nodes)))


class TestTopology:
    def test_load_and_save(self):
        text = json.dumps(
            {
                "devices": [
                    {"id": 0, "memory_bytes": 11811160064, "compute_scale": 1.0},
                    {"id": 1, "memory_bytes": 11811160064},
                ],
                "bandwidth_bytes_per_sec": 1.0e10,
            }
        )
        topo = load_topology(text)
        assert topo.num_devices == 2
        assert topo.bandwidth(0, 1) == 1.0e10
        again = load_topology(save_topology(topo))
        assert again == topo

    def test_bandwidth_matrix(self):
        topo = load_topology(
            json.dumps(
                {
                    "devices": [{"id": 0, "memory_bytes": 1e9}, {"id": 1, "memory_bytes": 1e9}],
                    "bandwidth_bytes_per_sec": [[0.0, 2.0e6], [1.0e6, 0.0]],
                }
            )
        )
        assert topo.bandwidth(0, 1) == 2.0e6
        assert topo.bandwidth(1, 0) == 1.0e6

    def test_validation(self):
        with pytest.raises(SimError):
            DeviceTopology(devices=(), bandwidth_bytes_per_sec=1.0)
        with pytest.raises(SimError):
            DeviceTopology(devices=(Device(0, 0.0),), bandwidth_bytes_per_sec=1.0)
        with pytest.raises(SimError):
            DeviceTopology(devices=(Device(0, 1e9),), bandwidth_bytes_per_sec=-1.0)
        with pytest.raises(SimError):
            DeviceTopology(
                devices=(Device(0, 1e9), Device(1, 1e9)),
                bandwidth_bytes_per_sec=((0.0, -1.0), (1.0, 0.0)),
            )

    def test_placement_document(self, diamond):
        pl = Placement((0, 1, 0, 1))
        again = load_placement(pl.to_document("diamond"), 4)
        assert again == pl
        with pytest.raises(SimError, match="missing"):
            load_placement(json.dumps({"assignment": {"0": 0}}), 2)


class TestSimulate:
    def test_chain_single_device(self, chain2, two_device):
        res = simulate(chain2, two_device, Placement((0, 0)))
        assert res.makespan_seconds == 5.0
        assert res.transfers == ()

    def test_diamond_hand_trace(self, diamond, two_device, diamond_placement):
        # a 0-1 on d0; a's 2 MB crosses 1-3; b 1-3 on d0; c 3-5 on d1;
        # c's 2 MB crosses back 5-7; d 7-8.
        res = simulate(diamond, two_device, diamond_placement)
        assert res.makespan_seconds == pytest.approx(8.0, abs=1e-9)
        assert res.node_spans == ((0.0, 1.0), (1.0, 3.0), (3.0, 5.0), (7.0, 8.0))
        assert len(res.transfers) == 2
        t0, t1 = res.transfers
        assert (t0.node, t0.src, t0.dst, t0.start, t0.end) == (0, 0, 1, 1.0, 3.0)
        assert (t1.node, t1.src, t1.dst, t1.start, t1.end) == (2, 1, 0, 5.0, 7.0)

    def test_diamond_single_device(self, diamond, two_device):
        res = simulate(diamond, two_device, Placement((0, 0, 0, 0)))
        assert res.makespan_seconds == pytest.approx(6.0, abs=1e-9)
        assert res.transfers == ()

    def test_single_device_equals_serial_sum(self):
        rng = np.random.default_rng(2)
        topo = make_topology(2)
        for _ in range(25):
            g = random_dag(rng, max_nodes=10)
            res = simulate(g, topo, Placement((0,) * g.num_nodes))
            assert res.makespan_seconds == pytest.approx(sum(n.cost_on(0) for n in g.nodes))
            assert res.transfers == ()

    def test_compute_scale_applied(self, chain2):
        topo = make_topology(2, scales=[2.0, 1.0])
        res = simulate(chain2, topo, Placement((0, 0)))
        assert res.makespan_seconds == 10.0

    def test_shared_tensor_shipped_once(self, two_device):
        # One producer feeding two consumers on the other device: one transfer.
        g = make_graph("fan", [1.0, 1.0, 1.0], [3e6, 0, 0], {(0, 1), (0, 2)})
        res = simulate(g, two_device, Placement((0, 1, 1)))
        assert len(res.transfers) == 1

    def test_determinism(self, diamond, two_device, diamond_placement):
        a = simulate(diamond, two_device, diamond_placement)
        b = simulate(diamond, two_device, diamond_placement)
        assert a == b

    def test_invalid_device(self, chain2, two_device):
        with pytest.raises(SimError, match="invalid device"):
            simulate(chain2, two_device, Placement((0, 7)))

    def test_cost_vector_length_mismatch(self, two_device):
        g = make_graph("v", [1.0], [0.0], set())
        bad = g.nodes[0].__class__(id=0, compute_seconds=(1.0, 2.0, 3.0), output_bytes=0.0)
        g2 = g.__class__.build("v", [bad], set())
        with pytest.raises(SimError, match="incompatible"):
            simulate(g2, two_device, Placement((0,)))

    def test_device_and_bus_serialization(self):
        rng = np.random.default_rng(8)
        topo = make_topology(3, bandwidth=0.7e6)
        for _ in range(60):
            g = random_dag(rng, max_nodes=10, bytes_range=(0.0, 3e6))
            pl = random_placement(rng, g, 3)
            res = simulate(g, topo, pl)
            by_dev = {}
            for v, (s, e) in enumerate(res.node_spans):
                by_dev.setdefault(pl.assignment[v], []).append((s, e))
            for spans in by_dev.values():
                spans.sort()
                for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                    assert e1 <= s2 + 1e-12
            by_bus = {}
            for t in res.transfers:
                by_bus.setdefault(t.src, []).append((t.start, t.end))
            for spans in by_bus.values():
                spans.sort()
                for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                    assert e1 <= s2 + 1e-12

    def test_node_start_respects_dependencies(self):
        rng = np.random.default_rng(21)
        topo = make_topology(2)
        for _ in range(40):
            g = random_dag(rng, max_nodes=9, bytes_range=(0.0, 4e6))
            pl = random_placement(rng, g, 2)
            res = simulate(g, topo, pl)
            arrivals = {(t.node, t.dst): t.end for t in res.transfers}
            for v in range(g.num_nodes):
                s = res.node_spans[v][0]
                for p in g.parents[v]:
                    if pl.assignment[p] == pl.assignment[v]:
                        assert s >= res.node_spans[p][1] - 1e-12
                    else:
                        assert s >= arrivals[(p, pl.assignment[v])] - 1e-12

    def test_bandwidth_monotonicity(self):
        # Scaling every bandwidth up never increases the makespan.
        rng = np.random.default_rng(4)
        for _ in range(60):
            g = random_dag(rng, max_nodes=8, bytes_range=(0.0, 4e6))
            pl = random_placement(rng, g, 2)
            base = float(rng.uniform(0.3e6, 2e6))
            prev = simulate(g, make_topology(2, bandwidth=base), pl).makespan_seconds
            for lam in (1.5, 4.0):
                cur = simulate(g, make_topology(2, bandwidth=base * lam), pl).makespan_seconds
                assert cur <= prev + 1e-9
                prev = cur

    def test_timeline_document(self, diamond, two_device, diamond_placement):
        res = simulate(diamond, two_device, diamond_placement)
        doc = json.loads(res.to_document(diamond, diamond_placement))
        assert doc["makespan_seconds"] == 8.0
        assert len(doc["nodes"]) == 4
        assert len(doc["transfers"]) == 2


class TestOracle:
    def test_fixtures(self, chain2, diamond, two_device, diamond_placement):
        assert oracle_simulate(chain2, two_device, Placement((0, 0))) == 5.0
        assert oracle_simulate(diamond, two_device, diamond_placement) == 8.0

    def test_agreement_uniform_costs(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            g = random_dag(rng, max_nodes=8, bytes_range=(0.0, 4.0))
            topo = make_topology(2, bandwidth=float(rng.uniform(0.5, 3.0)))
            pl = random_placement(rng, g, 2)
            assert simulate(g, topo, pl).makespan_seconds == oracle_simulate(g, topo, pl)

    def test_agreement_tie_heavy(self):
        # Integer costs and zero bytes force identical timestamps and
        # exercise the tie-breaking rules on both sides.
        rng = np.random.default_rng(200)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            edges = {(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.4}
            costs = rng.integers(0, 4, size=n).astype(float)
            sizes = rng.integers(0, 4, size=n).astype(float)
            g = make_graph("q", costs, sizes, edges)
            topo = make_topology(2, bandwidth=float(rng.integers(1, 3)))
            pl = random_placement(rng, g, 2)
            assert simulate(g, topo, pl).makespan_seconds == oracle_simulate(g, topo, pl)

    def test_agreement_asymmetric_bandwidth_matrix_three_devices(self):
        rng = np.random.default_rng(300)
        for _ in range(200):
            g = random_dag(rng, max_nodes=8, bytes_range=(0.0, 4.0))
            m = rng.uniform(0.5, 3.0, size=(3, 3))
            topo = DeviceTopology(
                devices=tuple(Device(id=i, memory_bytes=1e9) for i in range(3)),
                bandwidth_bytes_per_sec=tuple(tuple(row) for row in m),
            )
            pl = random_placement(rng, g, 3)
            assert simulate(g, topo, pl).makespan_seconds == oracle_simulate(g, topo, pl)


class TestMemoryProfile:
    def test_single_op(self, two_device):
        g = make_graph("one", [1.0], [4e9], set())
        res = simulate(g, two_device, Placement((0,)))
        assert res.peak_memory_bytes == (4e9, 0.0)

    def test_chain_overlap(self, two_device):
        # a's 1 GB output lives until its consumer b finishes; b's 1 GB output
        # exists from b's start, so both overlap during b.
        g = make_graph("chain", [1.0, 1.0], [1e9, 1e9], {(0, 1)})
        res = simulate(g, two_device, Placement((0, 0)))
        assert res.peak_memory_bytes[0] == 2e9

    def test_diamond_source_tensor_lifetime(self, diamond, two_device, diamond_placement):
        # a's 2 MB is live on d0 from t=0 until both its local reader b ends
        # and the outbound transfer ends (both t=3); c's 2 MB lands on d0 at
        # transfer start t=5 and d's zero-byte output adds nothing, so the
        # peak on d0 is a alone (its interval [0,3] does not meet c's [5,8]).
        res = simulate(diamond, two_device, diamond_placement)
        assert res.peak_memory_bytes[0] == 2e6
        # on d1: a's tensor arrives in [1, 5] (freed when c ends) and c's
        # output is live [3, 7] -> they overlap in [3, 5].
        assert res.peak_memory_bytes[1] == 4e6

    def test_sink_outputs_live_until_makespan(self, two_device):
        g = make_graph("sink", [1.0, 5.0], [3e9, 0.0], set())
        res = simulate(g, two_device, Placement((0, 0)))
        # node 0's tensor has no readers; it persists to the makespan.
        assert res.makespan_seconds == 6.0
        assert res.peak_memory_bytes[0] == 3e9


# Seeded fuzz over topology families. "matrix4" has 4 devices, a bandwidth
# matrix, compute scales (1, 1, 1.5, 2) and per-device cost vectors on about
# half the nodes; "zero_cost" uses integer costs and sizes so that zero-length
# ops and identical timestamps are common.
FAMILIES = ("uniform2", "scaled3", "matrix4", "zero_cost", "zero_bytes")


def fuzz_case(rng, family, max_nodes=9):
    """One (graph, topology, placement) instance of a topology family."""
    m = {"uniform2": 2, "matrix4": 4}.get(family, 3)
    n = int(rng.integers(2, max_nodes + 1))
    edges = {(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.4}
    costs = [(float(c),) for c in rng.uniform(0.1, 5.0, size=n)]
    sizes = rng.uniform(0.0, 4e6, size=n)
    bandwidth = float(rng.uniform(0.5e6, 3e6))
    scales = [1.0] * m
    if family == "scaled3":
        scales = [float(x) for x in rng.choice([0.5, 1.0, 1.5, 2.0], size=m)]
    elif family == "matrix4":
        scales = [1.0, 1.0, 1.5, 2.0]
        bandwidth = tuple(tuple(float(x) for x in row) for row in rng.uniform(0.5e6, 3e6, size=(m, m)))
        costs = [tuple(float(x) for x in rng.uniform(0.1, 5.0, size=m)) if rng.random() < 0.5 else c for c in costs]
    elif family == "zero_cost":
        costs = [(float(c),) for c in rng.integers(0, 3, size=n)]
        sizes = rng.integers(0, 3, size=n) * 1e6
        bandwidth = 1e6
    elif family == "zero_bytes":
        sizes = np.where(rng.random(n) < 0.5, 0.0, sizes)
    nodes = [OpGroup(id=i, compute_seconds=c, output_bytes=float(b)) for i, (c, b) in enumerate(zip(costs, sizes))]
    topo = DeviceTopology(
        devices=tuple(Device(id=i, memory_bytes=1e9, compute_scale=scales[i]) for i in range(m)),
        bandwidth_bytes_per_sec=bandwidth,
    )
    graph = ComputationGraph.build(family, nodes, edges)
    return graph, topo, random_placement(rng, graph, m)


def result_digest(results):
    """sha256 over every SimulationResult field, floats in exact hex form."""
    h = hashlib.sha256()
    f = float.hex
    for r in results:
        fields = [f(r.makespan_seconds), str(r.event_count), *map(f, r.peak_memory_bytes)]
        fields += [f"{f(s)}:{f(e)}" for s, e in r.node_spans]
        fields += [f"{t.node}:{t.src}:{t.dst}:{f(t.start)}:{f(t.end)}" for t in r.transfers]
        h.update((" ".join(fields) + "\n").encode())
    return h.hexdigest()


def golden_cases(family):
    """The (graph, topology, placement) instances a golden digest covers."""
    rng = np.random.default_rng([7, FAMILIES.index(family) if family in FAMILIES else 99])
    if family in FAMILIES:
        return [fuzz_case(rng, family, max_nodes=12) for _ in range(60)]
    # "blocks4": branch_blocks graphs of about 60 nodes on the matrix4 topology.
    _, topo, _ = fuzz_case(rng, "matrix4")
    spec = datagen.FamilySpec("branch_blocks", count=4, blocks=6, branches_hi=4, seed=3)
    return [(g, topo, random_placement(rng, g, 4)) for g in datagen.generate_family(spec)]


# Recorded from the original event-object simulator; any change to a makespan,
# peak, span, transfer or event count on these cases changes a digest.
GOLDEN = {
    "uniform2": "a7784a577c73a0b55e3cb2d4735008e2fe0c0d33f64582c2ce640cfb3ac9553d",
    "scaled3": "169921ef39d7d8a31d80aa6f5c4ab7066b5ce6dbc4c9248943ced610036f39fd",
    "matrix4": "957c31772f6a652ff81bcf48b06208d7be94618a4420caa47095f35d80a6aad7",
    "zero_cost": "18d837d6a0c43875032229bcb81bdfe0ebd92bfb1d2e2c24bdaffd7aa924d311",
    "zero_bytes": "df11e2c639e186d9f7e4dd12703f8293abf28257e3fdfecfe6de0eafed60b528",
    "blocks4": "4df25a96fcdf46853fa6ef9dcb0398f81322267cf28d4d313e601618c58012a0",
}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_golden_digest(family):
    assert result_digest([simulate(*case) for case in golden_cases(family)]) == GOLDEN[family]


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_makespan_equals_simulate_on_golden_cases(family):
    for case in golden_cases(family):
        assert makespan(*case) == simulate(*case).makespan_seconds


@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_agreement_fuzz(family):
    rng = np.random.default_rng([11, FAMILIES.index(family)])
    for _ in range(150):
        g, topo, pl = fuzz_case(rng, family)
        expected = oracle_simulate(g, topo, pl)
        assert simulate(g, topo, pl).makespan_seconds == expected
        assert makespan(g, topo, pl) == expected


def brute_force_peaks(graph, topology, placement, result):
    """Peak live bytes per device, summed afresh at every interval endpoint.

    Lifetimes as documented in memory_profile: a tensor lives on its producer's
    device from the producer's start until its last local reader ends or its
    last outbound transfer ends (sinks: until the makespan), and on a
    destination from transfer start until the last consumer there ends.
    Intervals are closed, so an allocation meets a free at the same instant.
    """
    dev = placement.assignment
    end = [e for _, e in result.node_spans]
    intervals = []  # (device, alloc, free, bytes)
    for t in result.transfers:
        last = max(end[c] for c in graph.children[t.node] if dev[c] == t.dst)
        intervals.append((t.dst, t.start, last, graph.nodes[t.node].output_bytes))
    for v, node in enumerate(graph.nodes):
        readers = [end[c] for c in graph.children[v] if dev[c] == dev[v]]
        readers += [t.end for t in result.transfers if t.node == v]
        free = max(readers) if graph.children[v] else result.makespan_seconds
        intervals.append((dev[v], result.node_spans[v][0], free, node.output_bytes))
    peaks = []
    for d in range(topology.num_devices):
        mine = [(s, e, b) for dd, s, e, b in intervals if dd == d]
        instants = {x for s, e, _ in mine for x in (s, e)}
        peaks.append(max((sum(b for s, e, b in mine if s <= x <= e) for x in instants), default=0.0))
    return peaks


@pytest.mark.parametrize("family", FAMILIES)
def test_peak_memory_brute_force(family):
    rng = np.random.default_rng([13, FAMILIES.index(family)])
    for _ in range(150):
        g, topo, pl = fuzz_case(rng, family)
        res = simulate(g, topo, pl)
        # The sweep adds and subtracts in time order, the oracle sums afresh:
        # a few dozen float64 terms below 1e7 differ by well under 1e-6.
        assert list(res.peak_memory_bytes) == pytest.approx(brute_force_peaks(g, topo, pl, res), rel=1e-12, abs=1e-6)
