"""Graph-embedding placement policy.

The full architecture runs k synchronous message-passing rounds in two
directions (parents-to-children and children-to-parents, separate weights,
shared across rounds and nodes), each round updating a node's stream as
g(concat(own stream, sum of f(neighbor streams))). The two final streams are
concatenated, pooled over the current node's ancestor / descendant / parallel
sets through per-set l/h nets, and a two-layer head maps the concatenation to
device logits.

Two deliberately weaker variants are kept for ablations: ``simple_aggregator``
(one net over the sum of all raw node features) and ``simple_partitioner``
(per-set sums of raw features through three nets, no message passing).

Every pass works on a batch of states: their graphs form one disjoint union,
built for each pass from each graph's cached CSR arrays and reachability
bitsets (see ``ComputationGraph``), and messages and pooled sets are grouped
row sums over edge and id lists (``np.add.reduceat``), so no dense adjacency
is built. The forward keeps no features or activations: ``policy_backward``
takes the states themselves and re-runs batched forwards over them, each
featurized by one ``placement_env.featurize_batch`` call, and one batched
reverse pass per net, giving exact gradients of the loss
sum(-log pi(a|s) * A - beta * entropy) over any number of episodes' steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import placement_env
from .fileio import at_least, check_object, check_values, field_kinds, one_of, rule
from .graph_core import bitset_to_ids
from .neural_primitives import (
    DenseNet,
    dense_backward,
    dense_forward,
    make_dense,
    softmax,
)

FULL = "full"
SIMPLE_AGGREGATOR = "simple_aggregator"
SIMPLE_PARTITIONER = "simple_partitioner"
MODES = (FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER)

POOL_SETS = ("parents", "children", "parallel")


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class PolicyConfig:
    num_devices: int = field(metadata=at_least(1))
    message_rounds: int = field(default=8, metadata=at_least(0))
    mode: str = field(default=FULL, metadata=one_of(*MODES))
    head_hidden: int | None = field(  # None: the head's input dimension
        default=None, metadata=rule(lambda v: v is None or v >= 1, "an integer >= 1 or null"))

    def __post_init__(self):
        # Named as the run config's policy section, where these values come from.
        check_values(vars(self), PolicyConfig, "policy", PolicyError)

    @property
    def feature_dim(self) -> int:
        return placement_env.feature_dim(self.num_devices)

    def to_header(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_header(doc) -> "PolicyConfig":
        """The config of a checkpoint's policy header, which holds every
        field, each of its kind and value, and nothing else."""
        schema = field_kinds(PolicyConfig)
        check_object(doc, schema, _HEADER, PolicyError, required=tuple(schema))
        check_values(doc, PolicyConfig, _HEADER, PolicyError)
        return PolicyConfig(**doc)


_HEADER = "checkpoint policy header"


def _net_names(mode: str) -> list[str]:
    if mode == FULL:
        names = ["f_down", "g_down", "f_up", "g_up"]
        names += [f"l_{s}" for s in POOL_SETS] + [f"h_{s}" for s in POOL_SETS]
    elif mode == SIMPLE_AGGREGATOR:
        names = ["agg"]
    else:
        names = [f"agg_{s}" for s in POOL_SETS]
    return names + ["head"]


@dataclass
class PolicyParameters:
    config: PolicyConfig
    nets: dict[str, DenseNet]

    def flat_params(self) -> list[np.ndarray]:
        out = []
        for name in _net_names(self.config.mode):
            out.extend(self.nets[name].params())
        return out

    def net_offsets(self) -> dict[str, int]:
        off, pos = {}, 0
        for name in _net_names(self.config.mode):
            off[name] = pos
            pos += 2 * len(self.nets[name].weights)
        return off


def _layout(cfg: PolicyConfig) -> dict[str, list[int]]:
    """Each net's widths [in, ..., out], in the order init_policy draws them."""
    f = cfg.feature_dim
    e = 2 * f  # concatenated two-direction embedding
    dims = {}
    if cfg.mode == FULL:
        for d in ("down", "up"):
            dims[f"f_{d}"] = [f, f]
            dims[f"g_{d}"] = [2 * f, f]
        for s in POOL_SETS:
            dims[f"l_{s}"] = [e, e]
            dims[f"h_{s}"] = [e, e]
        head_in = 4 * e  # own embedding + three pooled contexts
    elif cfg.mode == SIMPLE_AGGREGATOR:
        dims["agg"] = [f, f]
        head_in = f
    else:
        for s in POOL_SETS:
            dims[f"agg_{s}"] = [f, f]
        head_in = 4 * f  # raw own features + three pooled raw contexts
    dims["head"] = [head_in, cfg.head_hidden or head_in, cfg.num_devices]
    return dims


def _activations(name: str) -> list[str]:
    return ["relu", "identity"] if name == "head" else ["relu"]


def init_policy(cfg: PolicyConfig, seed: int = 0) -> PolicyParameters:
    rng = np.random.default_rng(seed)
    nets = {name: make_dense(rng, dims, _activations(name)) for name, dims in _layout(cfg).items()}
    return PolicyParameters(config=cfg, nets=nets)


def policy_from_params(cfg: PolicyConfig, flat: list[np.ndarray]) -> PolicyParameters:
    """The policy whose flat_params() are flat. Each array's shape is checked
    against cfg's before any net is built, so cfg allocates nothing."""
    layout = _layout(cfg)
    dims = [layout[name] for name in _net_names(cfg.mode)]
    shapes = [s for d in dims for n_in, n_out in zip(d, d[1:]) for s in ((n_out, n_in), (n_out,))]
    if len(flat) != len(shapes):
        raise PolicyError(f"checkpoint holds {len(flat)} parameter arrays, its policy header implies {len(shapes)}")
    for i, (p, shape) in enumerate(zip(flat, shapes)):
        if p.shape != shape:
            raise PolicyError(f"checkpoint parameter {i} has shape {p.shape}, its policy header implies {shape}")
    nets, pos = {}, 0
    for name in _net_names(cfg.mode):
        acts = _activations(name)
        layers = flat[pos : pos + 2 * len(acts)]
        nets[name] = DenseNet(weights=layers[0::2], biases=layers[1::2], activations=acts)
        pos += 2 * len(acts)
    return PolicyParameters(config=cfg, nets=nets)


def _grouping(counts, sources) -> tuple:
    """Grouping (targets, starts, sources) that sums rows: row targets[i] of
    the result is the sum of the input rows sources[starts[i]:starts[i + 1]],
    in that order, and every other row is zero; target t sums counts[t] rows."""
    targets = counts.nonzero()[0]
    return targets, _offsets(counts[targets]), sources


def _offsets(counts) -> np.ndarray:
    """Exclusive prefix sums: where each of a run of parts starts."""
    out = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _group_sum(rows: np.ndarray, targets, starts, size: int) -> np.ndarray:
    """(size, width) group sums of rows already gathered in source order."""
    if len(starts) == size:  # every target has a group
        return np.add.reduceat(rows, starts, axis=0)
    out = np.zeros((size, rows.shape[1]))
    if len(starts):
        out[targets] = np.add.reduceat(rows, starts, axis=0)
    return out


def _union_csr(csrs, shifts) -> tuple:
    """Grouping of the union of graphs' CSR arrays; shifts: each id's graph's first row."""
    counts, ids = zip(*csrs)
    return _grouping(np.concatenate(counts), np.concatenate(ids) + shifts)


def _set_grouping(bits: int, bounds) -> tuple:
    """Grouping by state of the (ascending) union rows in a bitset, split at bounds."""
    sources = bitset_to_ids(bits)
    first = np.searchsorted(sources, bounds)  # each state's first source
    targets = (first[:-1] < first[1:]).nonzero()[0]
    return targets, first[targets], sources


class _Batch(NamedTuple):
    """Disjoint union of B states' graphs, as in PyG's mini-batching: rows
    stacked in state order, each state's edges and sets shifted by its first
    row. No dense adjacency is built."""

    down: tuple  # each row's parents: the down stream's messages
    up: tuple  # each row's children: the up stream's messages
    pool: tuple  # per POOL_SETS entry, that set's rows grouped by state
    current: np.ndarray  # each state's current row
    starts: np.ndarray  # each state's first row
    rows: int


def _batch(graphs, nodes) -> _Batch:
    """The batch of the states at nodes of graphs: each pooled set is one
    bitset over the union rows, ORed from the states' shifted bitsets."""
    bounds = np.array([0, *accumulate(g.num_nodes for g in graphs)], dtype=np.intp)  # first rows, then all
    starts, rows = bounds[:-1], int(bounds[-1])
    current = starts + np.array(nodes, dtype=np.intp)
    ancestors = descendants = own = 0
    for g, first, row in zip(graphs, starts.tolist(), current.tolist()):
        index = g.reachability_index
        ancestors |= index.ancestors[row - first] << first
        descendants |= index.descendants[row - first] << first
        own |= 1 << row
    parallel = ((1 << rows) - 1) & ~(ancestors | descendants | own)
    shifts = np.repeat(starts, [len(g.edges) for g in graphs])  # each edge's graph's first row
    return _Batch(
        down=_union_csr([g.parent_csr for g in graphs], shifts),
        up=_union_csr([g.child_csr for g in graphs], shifts),
        pool=tuple(_set_grouping(bits, bounds) for bits in (ancestors, descendants, parallel)),
        current=current,
        starts=starts,
        rows=rows,
    )


def embed(features: np.ndarray, links, params: PolicyParameters):
    """k rounds of two-direction message passing over the down and up
    groupings of links, a batch's disjoint union (see _Batch). Returns
    (emb (rows, 2F), tape)."""
    cfg = params.config
    rows = features.shape[0]
    streams = {"down": features, "up": features}
    rounds = []
    for _ in range(cfg.message_rounds):
        record = {}
        for d, (targets, starts, sources) in (("down", links.down), ("up", links.up)):
            x = streams[d]
            fout, ftape = dense_forward(params.nets[f"f_{d}"], x)
            msg = _group_sum(fout[sources], targets, starts, rows)
            gin = np.concatenate([x, msg], axis=1)
            xnew, gtape = dense_forward(params.nets[f"g_{d}"], gin)
            record[d] = (ftape, gtape)
            streams[d] = xnew
        rounds.append(record)
    emb = np.concatenate([streams["down"], streams["up"]], axis=1)
    return emb, {"rounds": rounds, "links": links, "emb": emb}


def embed_backward(tape, demb, params, grads, offsets):
    """Accumulate f/g gradients; feature gradients are not needed upstream.
    A message into v from u flows back from v to u, so each stream's reverse
    pass sums over the other direction's grouping."""
    f = params.config.feature_dim
    links = tape["links"]
    rows = demb.shape[0]
    d_streams = {"down": demb[:, :f], "up": demb[:, f:]}
    for record in reversed(tape["rounds"]):
        for d, (targets, starts, sources) in (("down", links.up), ("up", links.down)):
            ftape, gtape = record[d]
            g_grads, dgin = dense_backward(params.nets[f"g_{d}"], gtape, d_streams[d])
            _acc(grads, offsets[f"g_{d}"], g_grads)
            dfout = _group_sum(dgin[sources, f:], targets, starts, rows)
            f_grads, dx_f = dense_backward(params.nets[f"f_{d}"], ftape, dfout)
            _acc(grads, offsets[f"f_{d}"], f_grads)
            d_streams[d] = dgin[:, :f] + dx_f


def _acc(grads, offset, net_grads):
    for i, (dw, db) in enumerate(net_grads):
        grads[offset + 2 * i] += dw
        grads[offset + 2 * i + 1] += db


def pool_and_decide(emb, sets, current, params: PolicyParameters):
    """Three-set pooling around each state's current row, then the head.

    sets[k] groups the rows of POOL_SETS[k] by state (see _Batch) and current
    holds each state's current row; returns (logits (B, D), tape).
    """
    pieces = [emb[current]]
    pool_tapes = []
    for name, (targets, starts, sources) in zip(POOL_SETS, sets):
        lout, ltape = dense_forward(params.nets[f"l_{name}"], emb[sources])
        ctx, htape = dense_forward(params.nets[f"h_{name}"], _group_sum(lout, targets, starts, len(current)))
        pool_tapes.append((ltape, htape, (targets, starts, sources)))
        pieces.append(ctx)
    logits, head_tape = dense_forward(params.nets["head"], np.concatenate(pieces, axis=1))
    tape = {"pool": pool_tapes, "head": head_tape, "current": current, "rows": emb.shape[0]}
    return logits, tape


def pool_backward(tape, dlogits, params, grads, offsets):
    """Returns gradient w.r.t. the embedding matrix."""
    e = params.nets["head"].in_dim // 4
    head_grads, dhead_in = dense_backward(params.nets["head"], tape["head"], dlogits)
    _acc(grads, offsets["head"], head_grads)
    demb = np.zeros((tape["rows"], e))
    demb[tape["current"]] = dhead_in[:, :e]
    for k, name in enumerate(POOL_SETS):
        ltape, htape, (targets, starts, sources) = tape["pool"][k]
        h_grads, ds = dense_backward(params.nets[f"h_{name}"], htape, dhead_in[:, (k + 1) * e : (k + 2) * e])
        _acc(grads, offsets[f"h_{name}"], h_grads)
        counts = np.diff(starts, append=len(sources))
        l_grads, dsources = dense_backward(params.nets[f"l_{name}"], ltape, ds[np.repeat(targets, counts)])
        _acc(grads, offsets[f"l_{name}"], l_grads)
        demb[sources] += dsources  # a state's current row and its three sets are disjoint
    return demb


@np.errstate(over="ignore", invalid="ignore")
def _forward(states, params: PolicyParameters):
    """One batched pass over B states. Returns (probs (B, D), tape). Finite
    but huge parameters can overflow on the way; the logits are checked
    instead, so an error is one message, not a run of numpy warnings."""
    cfg = params.config
    batch = _batch([s.graph for s in states], [s.current_node for s in states])
    feats = placement_env.featurize_batch(states, cfg.num_devices)
    tape = {}
    if cfg.mode == FULL:
        emb, tape["embed"] = embed(feats, batch, params)
        logits, tape["pool"] = pool_and_decide(emb, batch.pool, batch.current, params)
    elif cfg.mode == SIMPLE_AGGREGATOR:
        z, tape["agg"] = dense_forward(params.nets["agg"], np.add.reduceat(feats, batch.starts, axis=0))
        logits, tape["head"] = dense_forward(params.nets["head"], z)
    else:
        pieces = [feats[batch.current]]
        tape["agg"] = []
        for name, (targets, starts, sources) in zip(POOL_SETS, batch.pool):
            pooled = _group_sum(feats[sources], targets, starts, len(states))
            ctx, atape = dense_forward(params.nets[f"agg_{name}"], pooled)
            tape["agg"].append(atape)
            pieces.append(ctx)
        logits, tape["head"] = dense_forward(params.nets["head"], np.concatenate(pieces, axis=1))
    if not np.isfinite(logits).all():
        raise PolicyError("non-finite logits")
    return softmax(logits), tape


def _backward(tape, dlogits, params: PolicyParameters, grads, offsets):
    cfg = params.config
    if cfg.mode == FULL:
        demb = pool_backward(tape["pool"], dlogits, params, grads, offsets)
        embed_backward(tape["embed"], demb, params, grads, offsets)
        return
    head_grads, dhead_in = dense_backward(params.nets["head"], tape["head"], dlogits)
    _acc(grads, offsets["head"], head_grads)
    if cfg.mode == SIMPLE_AGGREGATOR:
        a_grads, _ = dense_backward(params.nets["agg"], tape["agg"], dhead_in)
        _acc(grads, offsets["agg"], a_grads)
        return
    f = cfg.feature_dim
    for k, name in enumerate(POOL_SETS):
        dpooled = dhead_in[:, (k + 1) * f : (k + 2) * f]
        a_grads, _ = dense_backward(params.nets[f"agg_{name}"], tape["agg"][k], dpooled)
        _acc(grads, offsets[f"agg_{name}"], a_grads)


MAX_BATCH_ROWS = 1 << 10  # union rows per batched pass; bounds the memory of a forward or backward


def _chunks(states):
    """(lo, hi) runs of states whose graphs hold at most MAX_BATCH_ROWS rows
    together (a larger graph runs alone)."""
    lo, rows = 0, 0
    for i, s in enumerate(states):
        n = s.graph.num_nodes
        if rows and rows + n > MAX_BATCH_ROWS:
            yield lo, i
            lo, rows = i, 0
        rows += n
    if lo < len(states):
        yield lo, len(states)


def policy_forward(states, topology, params: PolicyParameters):
    """Distribution over devices for the current node of each state in a
    sequence, in batched passes over their graphs of at most MAX_BATCH_ROWS
    union rows each (see _chunks). A state passed twice costs two rows, so
    trainer.rollout passes each distinct state once.

    Returns the (B, D) probabilities; no features or activations are kept.
    """
    if topology.num_devices != params.config.num_devices:
        raise PolicyError(f"policy is for {params.config.num_devices} devices, topology has {topology.num_devices}")
    states = list(states)
    return np.concatenate([_forward(states[lo:hi], params)[0] for lo, hi in _chunks(states)])


def _loss_and_dlogits(probs, actions, advantages, beta):
    """Per-row loss -log pi(a) A - beta H and its logit gradient, (B, D) probs."""
    rows = np.arange(len(actions))
    with np.errstate(divide="ignore"):
        logp = np.where(probs > 0.0, np.log(probs), 0.0)
    h = -(probs * logp).sum(axis=1)
    loss = -np.log(probs[rows, actions]) * advantages - beta * h
    one_hot = np.zeros_like(probs)
    one_hot[rows, actions] = 1.0
    dlogits = advantages[:, None] * (probs - one_hot) + beta * probs * (logp + h[:, None])
    return loss, dlogits


def policy_backward(states, actions, advantages, beta, params: PolicyParameters):
    """Gradients of sum_i [-log pi(a_i|s_i) A_i - beta H_i] over states.

    The states may come from any number of episodes, such as a whole epoch's
    in worker order. Keeps no tapes from the rollout: the states are split
    into runs of at most MAX_BATCH_ROWS union rows (see _chunks; a run may
    end inside an episode), and each run is featurized by one featurize_batch
    call, re-run as one batched forward over the disjoint union of its
    graphs, and reversed by one batched pass per net. Batching changes only
    the order in which the gradient's terms are summed. Returns (total loss,
    flat gradient list aligned with params.flat_params()).
    """
    if not (len(states) == len(actions) == len(advantages)):
        raise PolicyError("states/actions/advantages length mismatch")
    offsets = params.net_offsets()
    grads = [np.zeros_like(p) for p in params.flat_params()]
    actions = np.asarray(actions, dtype=np.intp)
    advantages = np.asarray(advantages, dtype=np.float64)
    total = 0.0
    for lo, hi in _chunks(states):
        probs, tape = _forward(states[lo:hi], params)
        loss, dlogits = _loss_and_dlogits(probs, actions[lo:hi], advantages[lo:hi], beta)
        total += float(loss.sum())
        _backward(tape, dlogits, params, grads, offsets)
    return total, grads
