"""Seeded synthetic graph families with train/test splits.

Three families cover the structural range the learned policy is evaluated on:

* ``branch_blocks``: a chain of blocks, each an entry node fanning out to a
  few parallel branches that rejoin (inception-style vision blocks).
* ``encoder_decoder``: two stacks of L layers unrolled over T steps with
  chain edges along time and depth, plus per-step attention nodes bridging
  the encoder's top layer into the decoder (NMT-style). Node count is
  2*L*T cells + T attention nodes.
* ``layered_random``: random DAGs with edges only between consecutive layers.

Costs and tensor sizes are uniform draws from the configured ranges; the same
spec and seed always regenerate byte-identical documents.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .fileio import (FINITE, FINITE_AT_LEAST_0, at_least, check_object, check_values, json_document, one_of,
                     parse_json, read_text, refusal, rule, write_atomic)
from .graph_core import ComputationGraph, OpGroup, load_graph, save_graph

BRANCH_BLOCKS = "branch_blocks"
ENCODER_DECODER = "encoder_decoder"
LAYERED_RANDOM = "layered_random"
FAMILIES = (BRANCH_BLOCKS, ENCODER_DECODER, LAYERED_RANDOM)


# Upper bounds on nodes plus edges: of one graph, and of a whole dataset
# taken as count times its largest graph.
MAX_GRAPH_SIZE = 10**6
MAX_DATASET_SIZE = 10**7


class DatagenError(ValueError):
    pass


# Each count range starts at 1, since 0 yields empty or degenerate graphs.
_COUNT = at_least(1)


@dataclass(frozen=True)
class FamilySpec:
    family: str = field(metadata=one_of(*FAMILIES))
    count: int = field(default=32, metadata=at_least(2))
    train_fraction: float = field(default=0.5, metadata=rule(lambda v: 0 < v < 1, "a number > 0 and < 1"))
    blocks: int = field(default=2, metadata=at_least(1))
    branches_lo: int = field(default=2, metadata=_COUNT)
    branches_hi: int = field(default=3, metadata=_COUNT)
    branch_ops_lo: int = field(default=2, metadata=_COUNT)
    branch_ops_hi: int = field(default=4, metadata=_COUNT)
    layers_lo: int = field(default=2, metadata=_COUNT)
    layers_hi: int = field(default=3, metadata=_COUNT)
    unroll_lo: int = field(default=3, metadata=_COUNT)
    unroll_hi: int = field(default=6, metadata=_COUNT)
    # uniform() takes these bounds as floats, so each must have one.
    compute_lo: float = field(default=0.5, metadata=FINITE_AT_LEAST_0)
    compute_hi: float = field(default=4.0, metadata=FINITE)
    bytes_lo: float = field(default=1.0e6, metadata=FINITE_AT_LEAST_0)
    bytes_hi: float = field(default=8.0e6, metadata=FINITE)
    seed: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        check_values(vars(self), FamilySpec, "family", DatagenError)
        for what in ("branches", "branch_ops", "layers", "unroll", "compute", "bytes"):
            lo, hi = getattr(self, f"{what}_lo"), getattr(self, f"{what}_hi")
            if lo > hi:
                raise DatagenError(f"{what} range is empty ({lo} > {hi})")
        # Sizes are checked before anything is built. This also keeps each
        # bound the family draws by rng.integers(lo, hi + 1) within an int64.
        size, knobs = self._largest_graph()
        if size > MAX_GRAPH_SIZE:
            raise DatagenError(f"one {self.family} graph can have up to {size} nodes and edges, above the limit "
                               f"of {MAX_GRAPH_SIZE}; lower {knobs}")
        if self.count * size > MAX_DATASET_SIZE:
            raise DatagenError(f"count {self.count} graphs of up to {size} nodes and edges exceed the dataset limit "
                               f"of {MAX_DATASET_SIZE} in all; lower count")

    def _largest_graph(self) -> tuple[int, str]:
        """A bound on one graph's nodes plus edges, and the fields that set it."""
        width, layers, steps = self.branches_hi, self.layers_hi, self.unroll_hi
        if self.family == BRANCH_BLOCKS:  # per block: entry, branch ops, join, and an edge in from the last join
            block = (2 + width * self.branch_ops_hi) + (1 + width * self.branch_ops_hi + width)
            return self.blocks * block, "blocks, branches_hi or branch_ops_hi"
        if self.family == ENCODER_DECODER:  # each attention node takes every encoder step
            cells, chains = 2 * layers * steps + steps, 2 * (layers * (steps - 1) + (layers - 1) * steps)
            return cells + chains + steps * steps + steps, "layers_hi or unroll_hi"
        return layers * width + (layers - 1) * width * width, "layers_hi or branches_hi"


class _Draws:
    """One graph's draws from its generator: node ids handed out in order,
    each node's compute cost and output bytes, and the builder's own draws.

    A node's cost, then its bytes, is a uniform draw from the spec's range.
    The uniforms still owed are drawn in one rng.random call just before any
    other draw, and all other draws go through this object, so the stream
    is read in the order per-node Generator.uniform calls would read it.
    They are mapped as Generator.uniform maps them, lo + (hi - lo) * u with
    both bounds taken as floats first, so every value is the same too.
    """

    def __init__(self, rng, spec: FamilySpec):
        self.rng, self.spec = rng, spec
        self.count = 0  # nodes handed out
        self._drawn = 0  # nodes whose uniforms are drawn
        self._uniforms = []  # one array per run of nodes, cost and bytes interleaved

    def add(self, k: int = 1) -> range:
        """The ids of k new nodes."""
        self.count += k
        return range(self.count - k, self.count)

    def integers(self, *args) -> int:
        self._draw_owed()
        return int(self.rng.integers(*args))

    def random(self, k: int) -> np.ndarray:
        self._draw_owed()
        return self.rng.random(k)

    def _draw_owed(self) -> None:
        if self.count > self._drawn:
            self._uniforms.append(self.rng.random(2 * (self.count - self._drawn)))
            self._drawn = self.count

    def graph(self, name: str, edges: list) -> ComputationGraph:
        """The graph of the nodes handed out, built from their drawn columns
        as load_graph builds a node table."""
        self._draw_owed()
        u = np.concatenate(self._uniforms)
        spec = self.spec
        costs = _uniform_column(u[0::2], spec.compute_lo, spec.compute_hi)
        sizes = _uniform_column(u[1::2], spec.bytes_lo, spec.bytes_hi)
        # The spec's ranges keep every value finite and >= 0, as OpGroup
        # holds them; should one not be, OpGroup's own check names it.
        valid = all(0.0 <= col.min() and col.max() < math.inf for col in (costs, sizes))
        make = OpGroup._make if valid else lambda fields: OpGroup(*fields)
        fields = zip(range(self.count), zip(costs.tolist()), sizes.tolist(), repeat((), self.count))
        return ComputationGraph.build(name, tuple(map(make, fields)), edges)


def _uniform_column(u: np.ndarray, lo, hi) -> np.ndarray:
    """Generator.uniform(lo, hi)'s value for each draw in u."""
    lo = float(lo)
    return lo + (float(hi) - lo) * u


def _branch_blocks(draws: _Draws, spec: FamilySpec) -> list:
    edges = []
    prev_join = None
    for _ in range(spec.blocks):
        (entry,) = draws.add()
        if prev_join is not None:
            edges.append((prev_join, entry))
        k = draws.integers(spec.branches_lo, spec.branches_hi + 1)
        branch_tails = []
        for _ in range(k):
            prev = entry
            for v in draws.add(draws.integers(spec.branch_ops_lo, spec.branch_ops_hi + 1)):
                edges.append((prev, v))
                prev = v
            branch_tails.append(prev)
        (join,) = draws.add()
        for tail in branch_tails:
            edges.append((tail, join))
        prev_join = join
    return edges


def _encoder_decoder(draws: _Draws, spec: FamilySpec) -> list:
    layers = draws.integers(spec.layers_lo, spec.layers_hi + 1)
    unroll = draws.integers(spec.unroll_lo, spec.unroll_hi + 1)
    edges = []
    enc = [draws.add(unroll) for _ in range(layers)]
    dec = [draws.add(unroll) for _ in range(layers)]
    att = draws.add(unroll)
    for stack in (enc, dec):
        for l in range(layers):
            for t in range(unroll):
                if t + 1 < unroll:
                    edges.append((stack[l][t], stack[l][t + 1]))
                if l + 1 < layers:
                    edges.append((stack[l][t], stack[l + 1][t]))
    for t in range(unroll):
        for t_enc in range(unroll):
            edges.append((enc[layers - 1][t_enc], att[t]))
        edges.append((att[t], dec[0][t]))
    return edges


def _layered_random(draws: _Draws, spec: FamilySpec) -> list:
    n_layers = draws.integers(spec.layers_lo, spec.layers_hi + 1)
    widths = [draws.integers(spec.branches_lo, spec.branches_hi + 1) for _ in range(n_layers)]
    edges = []
    layer_ids = [draws.add(width) for width in widths]
    for below, layer in zip(layer_ids, layer_ids[1:]):
        for v in layer:
            # One coin flip per node of the layer below, then a pick if none came up.
            parents = [u for u, flip in zip(below, draws.random(len(below)).tolist()) if flip < 0.5]
            if not parents:
                parents = [below[draws.integers(len(below))]]
            for u in parents:
                edges.append((u, v))
    return edges


_BUILDERS = {
    BRANCH_BLOCKS: _branch_blocks,
    ENCODER_DECODER: _encoder_decoder,
    LAYERED_RANDOM: _layered_random,
}


def _generate(spec: FamilySpec, i: int) -> ComputationGraph:
    """Graph i of the family, from its own np.random.default_rng([seed, i])."""
    draws = _Draws(np.random.default_rng([spec.seed, i]), spec)
    edges = _BUILDERS[spec.family](draws, spec)
    return draws.graph(f"{spec.family}-{spec.seed}-{i:03d}", edges)


def generate_family(spec: FamilySpec) -> list[ComputationGraph]:
    """All graphs of the family, deterministically from the spec seed."""
    return [_generate(spec, i) for i in range(spec.count)]


def split(graphs, fraction: float, seed: int):
    """Seeded shuffle of a sequence; first ceil(fraction * N) items train,
    rest test."""
    if not (0.0 < fraction < 1.0):
        raise DatagenError("fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(graphs))
    n_train = math.ceil(fraction * len(graphs))
    train = [graphs[i] for i in order[:n_train]]
    test = [graphs[i] for i in order[n_train:]]
    return train, test


def write_dataset(directory: str, spec: FamilySpec) -> dict:
    """Emit graph documents plus a manifest; returns the manifest dict. The
    graphs are generated and written one at a time, so only one is held."""
    os.makedirs(directory, exist_ok=True)
    train = set(split(range(spec.count), spec.train_fraction, spec.seed)[0])
    members = []
    for i in range(spec.count):
        g = _generate(spec, i)
        fname = f"{g.name}.json"
        write_atomic(os.path.join(directory, fname), save_graph(g))
        members.append({"name": g.name, "file": fname, "split": "train" if i in train else "test"})
    manifest = {"spec": asdict(spec), "seed": spec.seed, "members": members}
    write_atomic(os.path.join(directory, "manifest.json"), json_document(manifest))
    return manifest


_MANIFEST = {"spec": "object", "seed": "int", "members": "list"}
_MEMBER = {"name": "str", "file": "str", "split": "str"}


def read_dataset(directory: str):
    """Returns (manifest, train graphs, test graphs). The manifest and its
    members must hold only the keys of _MANIFEST and _MEMBER, each member a
    string 'file' and a 'split' of "train" or "test"; otherwise, or if a file
    cannot be read, raises DatagenError."""
    text = read_text(os.path.join(directory, "manifest.json"), DatagenError)
    manifest = parse_json(text, f"dataset manifest in {directory}", DatagenError)
    check_object(manifest, _MANIFEST, "dataset manifest", DatagenError, required=("members",))
    train, test = [], []
    for i, entry in enumerate(manifest["members"]):
        where = f"dataset manifest members[{i}]"
        check_object(entry, _MEMBER, where, DatagenError, required=("file", "split"))
        if entry["split"] not in ("train", "test"):
            raise DatagenError(refusal(where, "split", entry["split"], '"train" or "test"'))
        g = load_graph(read_text(os.path.join(directory, entry["file"]), DatagenError))
        (train if entry["split"] == "train" else test).append(g)
    return manifest, train, test
