"""Small differentiable building blocks: dense nets, softmax sampling, Adam.

Everything is float64 numpy with hand-written backward passes; gradients are
checked against central finite differences in the test suite. Dense nets
run on batches of row vectors, one (batch, width) array per layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fileio import check_object, finite_numbers, number, parse_json, read_text, refusal, write_atomic

RELU = "relu"
IDENTITY = "identity"


class ShapeError(ValueError):
    pass


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


@dataclass
class DenseNet:
    """Stack of affine layers with relu or identity activations.

    weights[i] has shape (out_i, in_i); biases[i] shape (out_i,).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("layer lists must have equal length")
        for i, (w, b, a) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight rows {w.shape[0]} != bias size {b.shape[0]}")
            if i and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ShapeError(f"layer {i}: input dim {w.shape[1]} mismatches previous output")
            if a not in (RELU, IDENTITY):
                raise ShapeError(f"unknown activation {a!r}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ShapeError(f"layer {i}: non-finite parameters")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def make_dense(rng: np.random.Generator, dims: list[int], activations: list[str]) -> DenseNet:
    """dims = [in, h1, ..., out]; scaled-uniform weights, zero biases."""
    ws, bs = [], []
    for i in range(len(dims) - 1):
        ws.append(glorot_uniform(rng, dims[i + 1], dims[i]))
        bs.append(np.zeros(dims[i + 1]))
    return DenseNet(weights=ws, biases=bs, activations=list(activations))


def dense_forward(net: DenseNet, x: np.ndarray):
    """Returns (output, tape). x is (batch, in).

    tape is [x, h_1, ..., h_L]: each layer's input and the last output; no
    pre-activation is kept."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.in_dim:
        raise ShapeError(f"input dim {x.shape[-1]} != {net.in_dim}")
    tape = [x]
    h = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        h = h @ w.T + b
        if act == RELU:
            np.maximum(h, 0.0, out=h)
        tape.append(h)
    return h, tape


def dense_backward(net: DenseNet, tape: list, grad_out: np.ndarray):
    """Exact reverse pass. Returns ([(dW, db), ...], grad_input).

    grad_out must be (batch, out), the forward output's shape; parameter
    gradients are summed over the batch. relu' (0) is taken as 0, so a relu
    layer's mask is h > 0, which equals z > 0 for h = max(z, 0).
    """
    grad = np.asarray(grad_out, dtype=np.float64)
    if grad.ndim != 2 or grad.shape != tape[-1].shape:
        raise ShapeError(f"grad shape {grad.shape} must be (batch, out) and equal the output shape {tape[-1].shape}")
    param_grads = [None] * len(net.weights)
    for i in range(len(net.weights) - 1, -1, -1):
        h_in = tape[i]
        if net.activations[i] == RELU:
            grad = grad * (tape[i + 1] > 0.0)
        param_grads[i] = (grad.T @ h_in, grad.sum(axis=0))
        grad = grad @ net.weights[i]
    return param_grads, grad


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one vector or a batch of rows."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def entropy(probs: np.ndarray) -> float:
    p = probs[probs > 0.0]
    return float(-(p * np.log(p)).sum())


def entropies(probs: np.ndarray) -> list[float]:
    """entropy(p) of each row p of a (rows, |D|) array, bit for bit. Rows
    whose every entry is positive go through one vectorized expression,
    which takes the same products and sums each row as entropy sums the
    same vector; a row holding a zero is left to entropy itself."""
    positive = (probs > 0.0).all(axis=1)
    p = probs[positive]
    out = np.empty(len(probs))
    out[positive] = -(p * np.log(p)).sum(axis=1)
    for r in np.flatnonzero(~positive):
        out[r] = entropy(probs[r])
    return out.tolist()


def sample_actions(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws, one action per row of probs (..., |D|) with its
    uniform in u (...) from [0, 1): the number of the row's cumulative sums
    below u, which is searchsorted(cumsum(p), u), since a cumulative sum of
    non-negative numbers never decreases. A u above a rounded-down last sum
    picks the last action."""
    below = (np.cumsum(probs, axis=-1) < np.asarray(u)[..., None]).sum(axis=-1)
    return np.minimum(below, probs.shape[-1] - 1)


def sample_action(probs: np.ndarray, u: float) -> int:
    """sample_actions for one row probs and one uniform u."""
    return int(sample_actions(probs, u))


@dataclass
class AdamState:
    """Bias-corrected Adam over a flat list of parameter arrays."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    timestep: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @staticmethod
    def for_params(params: list[np.ndarray], lr: float = 1e-3) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            lr=lr,
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr_scale: float = 1.0):
    """In-place Adam update; lr_scale carries a decay schedule multiplier."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError("params/grads/state length mismatch")
    state.timestep += 1
    t = state.timestep
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"param shape {p.shape} != grad shape {g.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= (state.lr * lr_scale) * (m / c1) / (np.sqrt(v / c2) + state.eps)


def params_to_doc(params: list[np.ndarray]):
    return [{"shape": list(p.shape), "data": p.ravel().tolist()} for p in params]


_PARAM = {"shape": "list", "data": "list"}


def params_from_doc(doc) -> list[np.ndarray]:
    """Parameter arrays from the list [{"shape": [...], "data": [...]}, ...];
    raises ValueError unless each entry holds prod(shape) finite numbers."""
    out = []
    for i, e in enumerate(doc):
        where = f"checkpoint params[{i}]"
        check_object(e, _PARAM, where, ValueError, required=("shape", "data"))
        shape, data = e["shape"], e["data"]
        for d in shape:
            if type(d) is not int or d < 0:
                raise ValueError(refusal(where, "shape", d, "a size (an integer >= 0)"))
        if len(data) != math.prod(shape):
            raise ValueError(f"{where}: {len(data)} values for shape {shape}")
        if not finite_numbers(data):
            for x in data:  # name the first value at fault
                number(x, where, "data", ValueError)
        out.append(np.array(data, dtype=np.float64).reshape(shape))
    return out


CHECKPOINT_FORMAT = "placement-opt-checkpoint-v1"


def save_checkpoint(path, params, extra=None):
    """Write parameters and a header dict as versioned JSON."""
    doc = {"format": CHECKPOINT_FORMAT, "params": params_to_doc(params), "extra": extra or {}}
    write_atomic(path, json.dumps(doc))


_CHECKPOINT = {"format": "str", "params": "list", "extra": "object"}


def load_checkpoint(path):
    """Returns (params, extra dict). Older checkpoints also hold adam and
    rng_state, which are dropped unread."""
    doc = parse_json(read_text(path, ValueError), "checkpoint", ValueError)
    if type(doc) is dict:
        doc = {k: v for k, v in doc.items() if k not in ("adam", "rng_state")}
        if doc.get("format", CHECKPOINT_FORMAT) != CHECKPOINT_FORMAT:
            raise ValueError(refusal("checkpoint", "format", doc["format"], json.dumps(CHECKPOINT_FORMAT)))
    check_object(doc, _CHECKPOINT, "checkpoint", ValueError, required=("format", "params"))
    return params_from_doc(doc["params"]), doc.get("extra", {})
