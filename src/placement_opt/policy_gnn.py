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

All forward passes record tapes; ``policy_backward`` accumulates exact
gradients of the episode loss sum(-log pi(a|s) * A - beta * entropy).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import placement_env
from .graph_core import ComputationGraph, reachability, relation_sets
from .neural_primitives import (
    DenseNet,
    dense_backward,
    dense_forward,
    entropy,
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
    num_devices: int
    message_rounds: int = 8
    mode: str = FULL
    head_hidden: int | None = None  # default: the head's input dimension

    def __post_init__(self):
        if self.mode not in MODES:
            raise PolicyError(f"unknown mode {self.mode!r}")
        if self.message_rounds < 0:
            raise PolicyError("message_rounds must be >= 0")
        if self.num_devices < 1:
            raise PolicyError("need at least one device")

    @property
    def feature_dim(self) -> int:
        return placement_env.feature_dim(self.num_devices)

    def head_input_dim(self) -> int:
        f = self.feature_dim
        if self.mode == FULL:
            return 4 * (2 * f)  # own embedding + three pooled contexts
        if self.mode == SIMPLE_AGGREGATOR:
            return f
        return 4 * f  # raw own features + three pooled raw contexts

    def to_header(self) -> dict:
        return {
            "num_devices": self.num_devices,
            "message_rounds": self.message_rounds,
            "mode": self.mode,
            "head_hidden": self.head_hidden,
        }

    @staticmethod
    def from_header(doc) -> "PolicyConfig":
        return PolicyConfig(
            num_devices=int(doc["num_devices"]),
            message_rounds=int(doc["message_rounds"]),
            mode=doc["mode"],
            head_hidden=doc.get("head_hidden"),
        )


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


def init_policy(cfg: PolicyConfig, seed: int = 0) -> PolicyParameters:
    rng = np.random.default_rng(seed)
    f = cfg.feature_dim
    e = 2 * f  # concatenated two-direction embedding
    head_in = cfg.head_input_dim()
    hidden = cfg.head_hidden or head_in
    nets = {}
    if cfg.mode == FULL:
        for d in ("down", "up"):
            nets[f"f_{d}"] = make_dense(rng, [f, f], ["relu"])
            nets[f"g_{d}"] = make_dense(rng, [2 * f, f], ["relu"])
        for s in POOL_SETS:
            nets[f"l_{s}"] = make_dense(rng, [e, e], ["relu"])
            nets[f"h_{s}"] = make_dense(rng, [e, e], ["relu"])
    elif cfg.mode == SIMPLE_AGGREGATOR:
        nets["agg"] = make_dense(rng, [f, f], ["relu"])
    else:
        for s in POOL_SETS:
            nets[f"agg_{s}"] = make_dense(rng, [f, f], ["relu"])
    nets["head"] = make_dense(rng, [head_in, hidden, cfg.num_devices], ["relu", "identity"])
    return PolicyParameters(config=cfg, nets=nets)


@lru_cache(maxsize=128)
def _graph_index(graph: ComputationGraph):
    """Adjacency matrices and per-node relation id lists, cached per graph."""
    n = graph.num_nodes
    a_down = np.zeros((n, n))  # a_down[v, u] = 1 iff u is a direct parent of v
    a_up = np.zeros((n, n))
    for v in range(n):
        for p in graph.parents[v]:
            a_down[v, p] = 1.0
        for c in graph.children[v]:
            a_up[v, c] = 1.0
    idx = reachability(graph)
    sets = [relation_sets(idx, v) for v in range(n)]
    return a_down, a_up, sets


def embed(features: np.ndarray, graph: ComputationGraph, params: PolicyParameters):
    """k rounds of two-direction message passing. Returns (emb (n, 2F), tape)."""
    cfg = params.config
    a_down, a_up, _ = _graph_index(graph)
    streams = {"down": features, "up": features}
    adj = {"down": a_down, "up": a_up}
    rounds = []
    for _ in range(cfg.message_rounds):
        record = {}
        for d in ("down", "up"):
            x = streams[d]
            fout, ftape = dense_forward(params.nets[f"f_{d}"], x)
            msg = adj[d] @ fout
            gin = np.concatenate([x, msg], axis=1)
            xnew, gtape = dense_forward(params.nets[f"g_{d}"], gin)
            record[d] = (ftape, gtape)
            streams[d] = xnew
        rounds.append(record)
    emb = np.concatenate([streams["down"], streams["up"]], axis=1)
    return emb, {"rounds": rounds, "adj": adj, "emb": emb}


def embed_backward(tape, demb, graph, params, grads, offsets):
    """Accumulate f/g gradients; feature gradients are not needed upstream."""
    cfg = params.config
    f = cfg.feature_dim
    d_streams = {"down": demb[:, :f].copy(), "up": demb[:, f:].copy()}
    for record in reversed(tape["rounds"]):
        for d in ("down", "up"):
            ftape, gtape = record[d]
            g_grads, dgin = dense_backward(params.nets[f"g_{d}"], gtape, d_streams[d])
            _acc(grads, offsets[f"g_{d}"], g_grads)
            dx = dgin[:, :f]
            dmsg = dgin[:, f:]
            dfout = tape["adj"][d].T @ dmsg
            f_grads, dx_f = dense_backward(params.nets[f"f_{d}"], ftape, dfout)
            _acc(grads, offsets[f"f_{d}"], f_grads)
            d_streams[d] = dx + dx_f


def _acc(grads, offset, net_grads):
    for i, (dw, db) in enumerate(net_grads):
        grads[offset + 2 * i] += dw
        grads[offset + 2 * i + 1] += db


def pool_and_decide(emb, sets_v, v, params: PolicyParameters):
    """Three-set pooling around node v plus the head. Returns (logits, tape)."""
    pieces = [emb[v]]
    pool_tapes = {}
    for name, ids in zip(POOL_SETS, sets_v):
        lout, ltape = dense_forward(params.nets[f"l_{name}"], emb)
        s = lout[ids].sum(axis=0) if ids else np.zeros(lout.shape[1])
        ctx, htape = dense_forward(params.nets[f"h_{name}"], s)
        pool_tapes[name] = (ltape, htape, ids)
        pieces.append(ctx)
    head_in = np.concatenate(pieces)
    logits, head_tape = dense_forward(params.nets["head"], head_in)
    return logits, {"pool": pool_tapes, "head": head_tape, "v": v, "n": emb.shape[0]}


def pool_backward(tape, dlogits, params, grads, offsets):
    """Returns gradient w.r.t. the embedding matrix."""
    e = params.nets["head"].in_dim // 4
    head_grads, dhead_in = dense_backward(params.nets["head"], tape["head"], dlogits)
    _acc(grads, offsets["head"], head_grads)
    demb = np.zeros((tape["n"], e))
    demb[tape["v"]] += dhead_in[:e]
    for k, name in enumerate(POOL_SETS):
        ltape, htape, ids = tape["pool"][name]
        h_grads, ds = dense_backward(params.nets[f"h_{name}"], htape, dhead_in[(k + 1) * e : (k + 2) * e])
        _acc(grads, offsets[f"h_{name}"], h_grads)
        dlout = np.zeros((tape["n"], e))
        if ids:
            dlout[ids] = ds
        l_grads, demb_l = dense_backward(params.nets[f"l_{name}"], ltape, dlout)
        _acc(grads, offsets[f"l_{name}"], l_grads)
        demb += demb_l
    return demb


def policy_forward(state, topology, params: PolicyParameters):
    """Distribution over devices for the state's current node.

    Returns (probabilities, tape); the tape carries everything backward needs.
    """
    cfg = params.config
    feats = placement_env.featurize(state, topology)
    graph = state.graph
    v = state.current_node
    tape = {"mode": cfg.mode, "graph": graph, "features": feats, "v": v}

    if cfg.mode == FULL:
        emb, etape = embed(feats, graph, params)
        _, _, sets = _graph_index(graph)
        logits, ptape = pool_and_decide(emb, sets[v], v, params)
        tape["embed"] = etape
        tape["pool"] = ptape
    elif cfg.mode == SIMPLE_AGGREGATOR:
        total = feats.sum(axis=0)
        z, atape = dense_forward(params.nets["agg"], total)
        logits, head_tape = dense_forward(params.nets["head"], z)
        tape["agg"] = atape
        tape["head"] = head_tape
    else:
        _, _, sets = _graph_index(graph)
        pieces = [feats[v]]
        agg_tapes = {}
        for name, ids in zip(POOL_SETS, sets[v]):
            s = feats[ids].sum(axis=0) if ids else np.zeros(feats.shape[1])
            ctx, atape = dense_forward(params.nets[f"agg_{name}"], s)
            agg_tapes[name] = (atape, ids)
            pieces.append(ctx)
        logits, head_tape = dense_forward(params.nets["head"], np.concatenate(pieces))
        tape["agg"] = agg_tapes
        tape["head"] = head_tape

    if not np.isfinite(logits).all():
        raise PolicyError("non-finite logits")
    probs = softmax(logits)
    tape["probs"] = probs
    return probs, tape


def step_loss_and_dlogits(tape, action, advantage, beta):
    """Loss contribution and its logit gradient for one recorded step."""
    probs = tape["probs"]
    h = entropy(probs)
    loss = -np.log(probs[action]) * advantage - beta * h
    one_hot = np.zeros_like(probs)
    one_hot[action] = 1.0
    with np.errstate(divide="ignore"):
        logp = np.where(probs > 0.0, np.log(probs), 0.0)
    dlogits = advantage * (probs - one_hot) + beta * probs * (logp + h)
    return loss, dlogits


def policy_backward(tapes, actions, advantages, beta, params: PolicyParameters):
    """Gradients of sum_i [-log pi(a_i|s_i) A_i - beta H_i] over an episode.

    Returns (total loss, flat gradient list aligned with params.flat_params()).
    """
    if not (len(tapes) == len(actions) == len(advantages)):
        raise PolicyError("tapes/actions/advantages length mismatch")
    cfg = params.config
    offsets = params.net_offsets()
    grads = [np.zeros_like(p) for p in params.flat_params()]
    total = 0.0
    for tape, action, adv in zip(tapes, actions, advantages):
        loss, dlogits = step_loss_and_dlogits(tape, action, adv, beta)
        total += loss
        if cfg.mode == FULL:
            demb = pool_backward(tape["pool"], dlogits, params, grads, offsets)
            embed_backward(tape["embed"], demb, tape["graph"], params, grads, offsets)
        elif cfg.mode == SIMPLE_AGGREGATOR:
            head_grads, dz = dense_backward(params.nets["head"], tape["head"], dlogits)
            _acc(grads, offsets["head"], head_grads)
            a_grads, _ = dense_backward(params.nets["agg"], tape["agg"], dz)
            _acc(grads, offsets["agg"], a_grads)
        else:
            f = cfg.feature_dim
            head_grads, dhead_in = dense_backward(params.nets["head"], tape["head"], dlogits)
            _acc(grads, offsets["head"], head_grads)
            for k, name in enumerate(POOL_SETS):
                atape, _ids = tape["agg"][name]
                a_grads, _ = dense_backward(
                    params.nets[f"agg_{name}"], atape, dhead_in[(k + 1) * f : (k + 2) * f]
                )
                _acc(grads, offsets[f"agg_{name}"], a_grads)
    return total, grads

