"""Discrete-event execution simulator for placed computation graphs.

Per device there is a FIFO queue of runnable ops and a FIFO queue of pending
outbound transfers (one op runs per device at a time; one transfer occupies a
device's bus at a time). An op becomes runnable once every parent has finished
and every off-device parent tensor has arrived. Transfer duration is
output_bytes / bandwidth(src, dst); colocated edges cost nothing and never
touch a bus. A tensor needed by several consumers on one destination device
is shipped there once.

Determinism rules (shared with the reference oracle below):
  * queue entries are ordered by (time entered, node id) for ops and by
    (time entered, producer id, destination id) for transfers;
  * events pop in (timestamp, sequence) order;
  * at each distinct timestamp, all completions (including cascades through
    zero-duration work) are processed before any non-zero-duration dispatch.

`event_count` counts completions plus dispatches: each op and each transfer
is dispatched once and completes once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heappop, heappush

from .graph_core import ComputationGraph


class SimError(ValueError):
    """Invalid simulation input."""


@dataclass(frozen=True)
class Device:
    id: int
    memory_bytes: float
    compute_scale: float = 1.0


@dataclass(frozen=True)
class DeviceTopology:
    """Devices plus pairwise bandwidth (scalar = uniform)."""

    devices: tuple[Device, ...]
    bandwidth_bytes_per_sec: object  # float or |D|x|D| nested tuples

    def __post_init__(self):
        if len(self.devices) < 1:
            raise SimError("topology needs at least one device")
        for i, d in enumerate(self.devices):
            if d.id != i:
                raise SimError("device ids must be dense 0..|D|-1")
            if not d.memory_bytes > 0:
                raise SimError(f"device {i}: memory_bytes must be positive")
            if not d.compute_scale > 0:
                raise SimError(f"device {i}: compute_scale must be positive")
        bw = self.bandwidth_bytes_per_sec
        if isinstance(bw, (int, float)):
            if not bw > 0:
                raise SimError("bandwidth must be positive")
        else:
            m = len(self.devices)
            if len(bw) != m or any(len(row) != m for row in bw):
                raise SimError("bandwidth matrix must be |D|x|D|")
            for i in range(m):
                for j in range(m):
                    if i != j and not bw[i][j] > 0:
                        raise SimError(f"bandwidth[{i}][{j}] must be positive")

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def bandwidth(self, src: int, dst: int) -> float:
        bw = self.bandwidth_bytes_per_sec
        if isinstance(bw, (int, float)):
            return float(bw)
        return float(bw[src][dst])


def load_topology(data) -> DeviceTopology:
    """Parse the topology JSON document."""
    if isinstance(data, (bytes, str)):
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as e:
            raise SimError(f"not valid JSON: {e}") from e
    else:
        doc = data
    devs = []
    for i, dd in enumerate(doc.get("devices", ())):
        devs.append(
            Device(
                id=int(dd.get("id", i)),
                memory_bytes=float(dd["memory_bytes"]),
                compute_scale=float(dd.get("compute_scale", 1.0)),
            )
        )
    bw = doc.get("bandwidth_bytes_per_sec")
    if bw is None:
        raise SimError("topology document missing bandwidth_bytes_per_sec")
    if not isinstance(bw, (int, float)):
        bw = tuple(tuple(float(x) for x in row) for row in bw)
    else:
        bw = float(bw)
    return DeviceTopology(devices=tuple(sorted(devs, key=lambda d: d.id)), bandwidth_bytes_per_sec=bw)


def save_topology(topology: DeviceTopology) -> str:
    bw = topology.bandwidth_bytes_per_sec
    doc = {
        "devices": [
            {"id": d.id, "memory_bytes": d.memory_bytes, "compute_scale": d.compute_scale}
            for d in topology.devices
        ],
        "bandwidth_bytes_per_sec": bw if isinstance(bw, (int, float)) else [list(r) for r in bw],
    }
    return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class Placement:
    """Total node -> device assignment."""

    assignment: tuple[int, ...]

    @staticmethod
    def from_mapping(mapping, num_nodes: int) -> "Placement":
        """Node id (decimal string or int) -> device (int); nothing is coerced."""
        if not isinstance(mapping, dict):
            raise SimError("placement assignment must be an object")
        out = [None] * num_nodes
        for k, v in mapping.items():
            node = int(k) if isinstance(k, str) and k.isascii() and k.isdigit() else k
            if type(node) is not int or not 0 <= node < num_nodes:
                raise SimError(f"placement key {k!r} is not a node id in 0..{num_nodes - 1}")
            if type(v) is not int:
                raise SimError(f"node {node}: device {v!r} is not an integer")
            if out[node] is not None:
                raise SimError(f"placement names node {node} twice")
            out[node] = v
        if any(d is None for d in out):
            missing = [i for i, d in enumerate(out) if d is None]
            raise SimError(f"placement missing nodes {missing}")
        return Placement(assignment=tuple(out))

    def to_document(self, graph_name: str) -> str:
        return json.dumps(
            {"graph": graph_name, "assignment": {str(i): d for i, d in enumerate(self.assignment)}},
            indent=2,
        )


def load_placement(data, num_nodes: int) -> Placement:
    doc = json.loads(data) if isinstance(data, (bytes, str)) else data
    if not isinstance(doc, dict) or "assignment" not in doc:
        raise SimError("placement document needs an 'assignment' object")
    return Placement.from_mapping(doc["assignment"], num_nodes)


@dataclass(frozen=True)
class TransferRecord:
    node: int  # producer of the tensor
    src: int
    dst: int
    start: float
    end: float


@dataclass(frozen=True)
class SimulationResult:
    makespan_seconds: float
    peak_memory_bytes: tuple[float, ...]
    node_spans: tuple[tuple[float, float], ...]
    transfers: tuple[TransferRecord, ...]
    event_count: int

    def to_document(self, graph: ComputationGraph, placement: Placement) -> str:
        """Timeline export for external visualization."""
        return json.dumps(
            {
                "graph": graph.name,
                "makespan_seconds": self.makespan_seconds,
                "peak_memory_bytes": list(self.peak_memory_bytes),
                "event_count": self.event_count,
                "nodes": [
                    {"id": v, "device": placement.assignment[v], "start": s, "end": e}
                    for v, (s, e) in enumerate(self.node_spans)
                ],
                "transfers": [
                    {"node": t.node, "src": t.src, "dst": t.dst, "start": t.start, "end": t.end}
                    for t in self.transfers
                ],
            },
            indent=2,
        )


def _check_inputs(graph: ComputationGraph, topology: DeviceTopology, placement: Placement):
    n = graph.num_nodes
    m = topology.num_devices
    if len(placement.assignment) != n:
        raise SimError(f"placement covers {len(placement.assignment)} of {n} nodes")
    for v, d in enumerate(placement.assignment):
        if not (0 <= d < m):
            raise SimError(f"node {v} placed on invalid device {d}")
    for g in graph.nodes:
        if len(g.compute_seconds) not in (1, m):
            raise SimError(
                f"node {g.id}: cost vector length {len(g.compute_seconds)} "
                f"incompatible with {m} devices"
            )


def _durations(graph, topology, placement):
    scale = [d.compute_scale for d in topology.devices]
    return [g.cost_on(d) * scale[d] for g, d in zip(graph.nodes, placement.assignment)]


def _transfer_pairs(graph, placement):
    """Cross-device (producer, dst device) pairs, deduplicated."""
    pairs = set()
    for v in range(graph.num_nodes):
        for c in graph.children[v]:
            if placement.assignment[c] != placement.assignment[v]:
                pairs.add((v, placement.assignment[c]))
    return pairs


def simulate(graph: ComputationGraph, topology: DeviceTopology, placement: Placement) -> SimulationResult:
    """Run the event simulation and profile memory. See module docstring."""
    _check_inputs(graph, topology, placement)
    n = graph.num_nodes
    m = topology.num_devices
    dev_of = placement.assignment
    children = graph.children
    dur = _durations(graph, topology, placement)
    size = [g.output_bytes for g in graph.nodes]
    bw = [[topology.bandwidth(s, d) for d in range(m)] for s in range(m)]
    deps = [len(p) for p in graph.parents]

    q_op = [[] for _ in range(m)]  # heaps of (time entered, node)
    q_tr = [[] for _ in range(m)]  # heaps of (time entered, producer, dst)
    dev_busy = [False] * m
    bus_busy = [False] * m
    node_start = [0.0] * n
    node_end = [0.0] * n
    done = []  # finished transfers as (start, producer, dst, end)
    events = []  # heap of (time, seq, node, dst or -1 for an op, start time)
    seq = 0

    # Sources enter their device queues at t=0 in id order (a sorted list is a heap).
    for v in range(n):
        if not deps[v]:
            q_op[dev_of[v]].append((0.0, v))

    zero_work = 0.0 in dur or 0.0 in size
    clock = 0.0
    while events or any(q_op) or any(q_tr):
        if events:
            clock = events[0][0]
        # Alternate completion drains and zero-duration dispatch passes until
        # neither has work at this timestamp; then one final pass dispatches
        # everything that can start.
        final = not zero_work
        while True:
            while events and events[0][0] == clock:
                _, _, v, dst, ts = heappop(events)
                if dst < 0:
                    d = dev_of[v]
                    node_end[v] = clock
                    dev_busy[d] = False
                    sent = 0  # bitmask of destinations this tensor was queued for
                    for c in children[v]:
                        dc = dev_of[c]
                        if dc != d:
                            if not sent >> dc & 1:
                                sent |= 1 << dc
                                heappush(q_tr[d], (clock, v, dc))
                        else:
                            deps[c] -= 1
                            if not deps[c]:
                                heappush(q_op[d], (clock, c))
                else:
                    bus_busy[dev_of[v]] = False
                    done.append((ts, v, dst, clock))
                    for c in children[v]:
                        if dev_of[c] == dst:
                            deps[c] -= 1
                            if not deps[c]:
                                heappush(q_op[dst], (clock, c))
            fired = False
            for d in range(m):
                q = q_op[d]
                if q and not dev_busy[d] and (final or dur[q[0][1]] == 0.0):
                    v = heappop(q)[1]
                    dev_busy[d] = True
                    node_start[v] = clock
                    heappush(events, (clock + dur[v], seq, v, -1, clock))
                    seq += 1
                    fired = True
                q = q_tr[d]
                if q and not bus_busy[d] and (final or size[q[0][1]] == 0.0):
                    _, v, dst = heappop(q)
                    bus_busy[d] = True
                    heappush(events, (clock + size[v] / bw[d][dst], seq, v, dst, clock))
                    seq += 1
                    fired = True
            if final:
                break
            final = not fired  # no dispatch, so no new event at this timestamp

    if any(deps):
        raise SimError("simulation ended with unexecuted ops")  # unreachable on valid DAGs

    makespan = max(node_end, default=0.0)
    done.sort()
    transfers = tuple([TransferRecord(v, dev_of[v], dst, ts, te) for ts, v, dst, te in done])
    spans = tuple(zip(node_start, node_end))
    peaks = memory_profile(spans, transfers, makespan, graph, topology, placement)
    return SimulationResult(
        makespan_seconds=makespan,
        peak_memory_bytes=peaks,
        node_spans=spans,
        transfers=transfers,
        event_count=2 * seq,  # every op and transfer is dispatched once and completes once
    )


def memory_profile(node_spans, transfers, makespan, graph, topology, placement):
    """Per-device peak bytes from the timeline.

    A tensor is allocated on its producer's device at the producer's start and
    on each destination at transfer start. It is freed on a device when the
    last reader there (consumer op end, or outbound transfer end on the
    producer side) completes; sink outputs stay live until the makespan.
    Allocations at an instant count before frees at the same instant.
    """
    m = topology.num_devices
    dev_of = placement.assignment
    # last_read[v * m + d]: when the last reader of v's tensor on device d ends.
    last_read = [0.0] * (graph.num_nodes * m)
    for c, parents in enumerate(graph.parents):
        i, e = dev_of[c], node_spans[c][1]
        for p in parents:
            if e > last_read[p * m + i]:
                last_read[p * m + i] = e
    points = [[] for _ in range(m)]  # (time, 0 alloc / 1 free, delta)
    for tr in transfers:
        src = tr.node * m + tr.src  # the transfer reads the tensor on its source
        if tr.end > last_read[src]:
            last_read[src] = tr.end
        size = graph.nodes[tr.node].output_bytes
        if size > 0:
            points[tr.dst] += ((tr.start, 0, size), (last_read[tr.node * m + tr.dst], 1, -size))
    for v, node in enumerate(graph.nodes):
        size = node.output_bytes
        if size > 0:
            d = dev_of[v]
            free_at = last_read[v * m + d] if graph.children[v] else makespan
            points[d] += ((node_spans[v][0], 0, size), (free_at, 1, -size))
    peaks = []
    for pts in points:
        pts.sort()
        live = peak = 0.0
        for _, _, delta in pts:
            live += delta
            if live > peak:
                peak = live
        peaks.append(peak)
    return tuple(peaks)


def oracle_simulate(graph: ComputationGraph, topology: DeviceTopology, placement: Placement) -> float:
    """Reference makespan by fixed-point timeline relaxation.

    Shares no scheduling code with simulate(): repeatedly recomputes every
    node's earliest start and every transfer's bus slot, serializing each
    device by (ready time, node id) and each bus by (enqueue time, producer,
    destination), until the timeline stops changing. Intended for small
    instances.
    """
    _check_inputs(graph, topology, placement)
    n = graph.num_nodes
    dur = _durations(graph, topology, placement)
    dev_of = placement.assignment
    pairs = sorted(_transfer_pairs(graph, placement))

    end = [0.0] * n
    arrival = {p: 0.0 for p in pairs}

    limit = 4 * (n + len(pairs)) + 16
    for _ in range(limit):
        # Bus schedules from current op end times.
        new_arrival = {}
        for src in range(topology.num_devices):
            queue = sorted(
                ((end[v], v, dst) for (v, dst) in pairs if dev_of[v] == src),
            )
            bus_free = 0.0
            for enq, v, dst in queue:
                start = max(enq, bus_free)
                bus_free = start + graph.nodes[v].output_bytes / topology.bandwidth(src, dst)
                new_arrival[(v, dst)] = bus_free

        # Ready times from parents and arrivals.
        ready = [0.0] * n
        for v in range(n):
            r = 0.0
            for p in graph.parents[v]:
                if dev_of[p] == dev_of[v]:
                    r = max(r, end[p])
                else:
                    r = max(r, new_arrival[(p, dev_of[v])])
            ready[v] = r

        # Device serialization in (ready, id) order.
        new_end = [0.0] * n
        for d in range(topology.num_devices):
            queue = sorted((ready[v], v) for v in range(n) if dev_of[v] == d)
            free = 0.0
            for r, v in queue:
                start = max(r, free)
                free = start + dur[v]
                new_end[v] = free

        if new_end == end and new_arrival == arrival:
            break
        end, arrival = new_end, new_arrival
    else:
        raise SimError("oracle relaxation did not converge")

    return max(end, default=0.0)
