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

One event loop, `_run`, serves two entries. `simulate` adds the transfer
records, the spans and the per-device memory peaks (`memory_profile`) to it,
for reports and timelines. `makespan` returns only the finish time, bit for
bit simulate's `makespan_seconds`; rewards and exhaustive search read it
through `placement_env.runtime_of`, which runs the full `simulate` only when
the memory penalty could be nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import NamedTuple

from .fileio import Table, check_object, clip, json_document, number, parse_json, refusal
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
    """Devices plus pairwise bandwidth (scalar = uniform). Devices may be
    given in any order of their ids, which must be 0..|D|-1; they are kept
    sorted by id. Errors name a device by its position as given. The tables
    the simulator and the baselines read are cached properties, built once
    per topology object."""

    devices: tuple[Device, ...]
    bandwidth_bytes_per_sec: object  # float or |D|x|D| nested tuples

    def __post_init__(self):
        m = len(self.devices)
        if not m:
            raise SimError(refusal("topology", "devices", [], "a non-empty list"))
        ids = set()
        for i, d in enumerate(self.devices):
            where = f"topology devices[{i}]"
            if not 0 <= d.id < m or d.id in ids:
                raise SimError(refusal(where, "id", d.id, f"an id in 0..{m - 1} that no other device has"))
            ids.add(d.id)
            for key, value in (("memory_bytes", d.memory_bytes), ("compute_scale", d.compute_scale)):
                if not value > 0:
                    raise SimError(refusal(where, key, value, "a positive number"))
        object.__setattr__(self, "devices", tuple(sorted(self.devices, key=lambda d: d.id)))
        bw = self.bandwidth_bytes_per_sec
        key = "bandwidth_bytes_per_sec"
        if isinstance(bw, (int, float)):
            if not bw > 0:
                raise SimError(refusal("topology", key, bw, "a positive number"))
        else:
            if len(bw) != m or any(len(row) != m for row in bw):
                raise SimError(refusal("topology", key, bw, f"a {m}x{m} matrix"))
            for i in range(m):
                for j in range(m):
                    if i != j and not bw[i][j] > 0:
                        raise SimError(refusal("topology", key, bw, f"positive at [{i}][{j}]"))

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def bandwidth(self, src: int, dst: int) -> float:
        bw = self.bandwidth_bytes_per_sec
        if isinstance(bw, (int, float)):
            return float(bw)
        return float(bw[src][dst])

    @cached_property
    def bandwidth_rows(self) -> tuple[tuple[float, ...], ...]:
        """bandwidth(src, dst) at [src][dst], for every pair of devices."""
        m = self.num_devices
        return tuple([tuple([self.bandwidth(s, d) for d in range(m)]) for s in range(m)])

    @cached_property
    def compute_scales(self) -> tuple[float, ...]:
        """Each device's compute_scale, in id order."""
        return tuple([d.compute_scale for d in self.devices])


_TOPOLOGY = {"devices": "list", "bandwidth_bytes_per_sec": "number|list"}
_DEVICE = {"id": "int", "memory_bytes": "number", "compute_scale": "number"}


def load_topology(text) -> DeviceTopology:
    """Parse the topology JSON document (text or bytes)."""
    doc = parse_json(text, "topology", SimError)
    check_object(doc, _TOPOLOGY, "topology", SimError, required=("devices", "bandwidth_bytes_per_sec"))
    devs = []
    for i, dd in enumerate(doc["devices"]):
        where = f"topology devices[{i}]"
        check_object(dd, _DEVICE, where, SimError, required=("memory_bytes",))
        if "id" not in dd:
            # A defaulted id is in range; it can only repeat an earlier entry's.
            holder = next((j for j, d in enumerate(devs) if d.id == i), None)
            if holder is not None:
                raise SimError(f"{where} has no key 'id', so its id is its position {i}, "
                               f"which topology devices[{holder}] already has")
        devs.append(Device(dd.get("id", i), float(dd["memory_bytes"]), float(dd.get("compute_scale", 1.0))))
    bw = doc["bandwidth_bytes_per_sec"]
    if type(bw) is list:
        key = "bandwidth_bytes_per_sec"
        for row in bw:
            if type(row) is not list:
                raise SimError(refusal("topology", key, row, "a list of finite numbers (a matrix row)"))
        bw = tuple([tuple([number(x, "topology", key, SimError) for x in row]) for row in bw])
    else:
        bw = float(bw)
    return DeviceTopology(devices=tuple(devs), bandwidth_bytes_per_sec=bw)


@dataclass(frozen=True)
class Placement:
    """Total node -> device assignment."""

    assignment: tuple[int, ...]

    def to_document(self, graph_name: str) -> str:
        return json_document({"graph": graph_name, "assignment": {str(i): d for i, d in enumerate(self.assignment)}})


_PLACEMENT = {"graph": "str", "assignment": "object"}


def load_placement(text, num_nodes: int) -> Placement:
    """Parse a placement JSON document (text or bytes) for a graph of
    num_nodes: each node id, in decimal, maps to an integer device, once."""
    doc = parse_json(text, "placement", SimError)
    check_object(doc, _PLACEMENT, "placement", SimError, required=("assignment",))
    out = [None] * num_nodes
    width = len(str(num_nodes))
    for k, v in doc["assignment"].items():
        # A key with more digits than num_nodes, leading zeros aside, is no
        # node id; it is refused before int() could refuse its length.
        digits = k.lstrip("0") or "0"
        node = int(digits) if k.isascii() and k.isdigit() and len(digits) <= width else -1
        if not 0 <= node < num_nodes:
            raise SimError(f"placement assignment key {clip(k)!r} is not a node id in 0..{num_nodes - 1}")
        if type(v) is not int:
            raise SimError(refusal("placement assignment", k, v, "an integer"))
        if out[node] is not None:
            raise SimError(f"placement names node {node} twice")
        out[node] = v
    missing = [i for i, d in enumerate(out) if d is None]
    if missing:
        raise SimError(f"placement missing nodes {missing}")
    return Placement(assignment=tuple(out))


class TransferRecord(NamedTuple):
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
        """Timeline export for external visualization. The node and transfer
        lists are written from their columns."""
        starts, ends = zip(*self.node_spans) if self.node_spans else ((), ())
        nodes = (list(range(len(starts))), placement.assignment, starts, ends)
        transfers = tuple(zip(*self.transfers)) or ((),) * len(TransferRecord._fields)
        return json_document(
            {
                "graph": graph.name,
                "makespan_seconds": self.makespan_seconds,
                "peak_memory_bytes": list(self.peak_memory_bytes),
                "event_count": self.event_count,
                "nodes": Table(("id", "device", "start", "end"), nodes),
                "transfers": Table(TransferRecord._fields, transfers),
            }
        )


def _check_inputs(graph: ComputationGraph, topology: DeviceTopology, placement: Placement):
    n = graph.num_nodes
    m = topology.num_devices
    if len(placement.assignment) != n:
        raise SimError(f"placement covers {len(placement.assignment)} of {n} nodes")
    a = placement.assignment
    if a and not (0 <= min(a) and max(a) < m):
        v, d = next((v, d) for v, d in enumerate(a) if not 0 <= d < m)
        raise SimError(f"node {v} placed on invalid device {d}")
    if not graph.cost_widths <= {1, m}:
        g = next(g for g in graph.nodes if len(g.compute_seconds) not in (1, m))
        raise SimError(f"node {g.id}: cost vector length {len(g.compute_seconds)} incompatible with {m} devices")


def _durations(graph, topology, placement):
    scale = topology.compute_scales
    if graph.cost_widths == {1}:
        return [c * scale[d] for c, d in zip(graph.base_costs, placement.assignment)]
    return [g.cost_on(d) * scale[d] for g, d in zip(graph.nodes, placement.assignment)]


def _transfer_pairs(graph, placement):
    """Cross-device (producer, dst device) pairs, deduplicated."""
    pairs = set()
    for v in range(graph.num_nodes):
        for c in graph.children[v]:
            if placement.assignment[c] != placement.assignment[v]:
                pairs.add((v, placement.assignment[c]))
    return pairs


def _run(graph: ComputationGraph, topology: DeviceTopology, placement: Placement):
    """The event loop. Returns (node_start, node_end, done, seq): per-node
    start and end times, the finished transfers as (start, producer, dst,
    end) in completion order, and the number of dispatches."""
    _check_inputs(graph, topology, placement)
    n = graph.num_nodes
    m = topology.num_devices
    dev_of = placement.assignment
    children = graph.children
    dur = _durations(graph, topology, placement)
    size = graph.output_sizes
    bw = topology.bandwidth_rows
    deps = list(graph.parent_counts)

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
    for v in graph.source_ids:
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

    return node_start, node_end, done, seq


def simulate(graph: ComputationGraph, topology: DeviceTopology, placement: Placement) -> SimulationResult:
    """Run the event simulation and profile memory. See module docstring."""
    node_start, node_end, done, seq = _run(graph, topology, placement)
    dev_of = placement.assignment
    finish = max(node_end, default=0.0)
    done.sort()
    transfers = tuple([TransferRecord(v, dev_of[v], dst, ts, te) for ts, v, dst, te in done])
    spans = tuple(zip(node_start, node_end))
    peaks = memory_profile(spans, transfers, finish, graph, topology, placement)
    return SimulationResult(
        makespan_seconds=finish,
        peak_memory_bytes=peaks,
        node_spans=spans,
        transfers=transfers,
        event_count=2 * seq,  # every op and transfer is dispatched once and completes once
    )


def makespan(graph: ComputationGraph, topology: DeviceTopology, placement: Placement) -> float:
    """simulate(...).makespan_seconds from the same event loop, without the
    transfer records, the spans or the memory profile."""
    return max(_run(graph, topology, placement)[1], default=0.0)


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
    sizes = graph.output_sizes
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
        size = sizes[tr.node]
        if size > 0:
            points[tr.dst] += ((tr.start, 0, size), (last_read[tr.node * m + tr.dst], 1, -size))
    for v, size in enumerate(sizes):
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
                bus_free = start + graph.output_sizes[v] / topology.bandwidth(src, dst)
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
