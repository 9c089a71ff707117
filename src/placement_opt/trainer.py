"""REINFORCE training loop with a per-(graph, step) moving-average baseline.

Each epoch, W logical workers draw a graph from a seeded per-epoch shuffle
and run one episode against the shared parameter snapshot. The episodes
advance in lockstep, one batched policy forward per step over the unfinished
ones, and each worker samples from its own [seed, epoch, w] stream. Episodes
in the same state share one reset, one forward row and one env step; reset
and step are pure, so this is exact, and an episode that acts differently
splits off (see rollout). Prediction's greedy and sampled episodes share
while they agree; training's share only when workers outnumber graphs. An
episode keeps its action and the state each step was taken in: one placement
tuple and a cursor into the shared visit order. The epoch's gradient is one
policy_backward call over every episode's states in worker order, which
rematerializes them in batched passes of at most
policy_gnn.MAX_BATCH_ROWS union rows; a single Adam step applies it.
Learning rate and entropy weight decay linearly across epochs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import placement_env
from .fileio import at_least, check_object, check_values, one_of, rule, write_csv
from .neural_primitives import AdamState, adam_step, entropies, load_checkpoint, sample_actions, save_checkpoint
from .placement_env import RewardConfig
from .policy_gnn import PolicyConfig, PolicyParameters, init_policy, policy_backward, policy_forward, policy_from_params
from .sim_engine import DeviceTopology, Placement


class TrainerError(ValueError):
    pass


@dataclass
class TrainerConfig:
    episodes: int = field(default=200, metadata=at_least(0))  # epochs; each epoch runs `workers` episodes
    workers: int = field(default=8, metadata=at_least(1))
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    entropy_start: float = 1e-2
    entropy_end: float = 1e-3
    baseline_window: int = field(default=10, metadata=at_least(1))
    init_mode: str = field(default=placement_env.ALL_DEVICE_0, metadata=one_of(*placement_env.INIT_MODES))
    randomize_visit_order: bool = False
    seed: int = field(default=0, metadata=at_least(0))
    # The field stays so existing run configs load.
    threads: int = field(default=1, metadata=rule(lambda v: v == 1, "1 (training runs in one thread)"))

    def __post_init__(self):
        check_values(vars(self), TrainerConfig, "trainer", TrainerError)
        if not (self.lr_start >= self.lr_end >= 0):
            raise TrainerError("need lr_start >= lr_end >= 0")
        if not (self.entropy_start >= self.entropy_end >= 0):
            raise TrainerError("need entropy_start >= entropy_end >= 0")

    def lr_at(self, epoch: int) -> float:
        return _linear(self.lr_start, self.lr_end, epoch, self.episodes)

    def entropy_at(self, epoch: int) -> float:
        return _linear(self.entropy_start, self.entropy_end, epoch, self.episodes)


def _linear(start, end, i, total):
    if total <= 1:
        return start
    frac = min(i, total - 1) / (total - 1)
    return start + (end - start) * frac


class BaselineTable:
    """Per (graph, step) ring buffer of the last w cumulative rewards."""

    def __init__(self, window: int):
        self.window = window
        self._buf: dict[tuple[str, int], deque] = {}

    def value(self, graph_name: str, t: int) -> float:
        buf = self._buf.get((graph_name, t))
        if not buf:
            return 0.0
        return sum(buf) / len(buf)

    def push(self, graph_name: str, cumulative: np.ndarray):
        for t, g in enumerate(cumulative):
            self._buf.setdefault((graph_name, t), deque(maxlen=self.window)).append(float(g))


@dataclass
class EpisodeTrace:
    graph_name: str
    states: list  # per step: the EpisodeState the step was taken in (empty unless the rollout keeps states)
    actions: list[int]
    rewards: list[float]
    entropies: list[float]
    final_placement: tuple[int, ...]
    final_runtime: float  # penalized seconds


def rollout(
    params: PolicyParameters,
    graphs: list,
    topology: DeviceTopology,
    reward_cfg: RewardConfig,
    rngs: list,
    init_mode: str = placement_env.ALL_DEVICE_0,
    randomize_order: bool = False,
    keep_states: bool = True,
) -> list[EpisodeTrace]:
    """Episodes on graphs[i] drawing from rngs[i], advanced in lockstep: each
    step runs one batched policy forward over the unfinished episodes' states.

    An episode draws all its randomness at reset, in this order: its
    visit-order and initial-placement seeds when asked for, then one uniform
    per step. An episode whose rng is None is greedy: it draws nothing and
    takes argmax (smallest device id on exact ties). Episodes sharing one rng
    therefore draw exactly what they would one after another, and no
    episode's actions depend on the others.

    Episodes in the same state share its work. reset and step are pure, so
    resets of one graph object with the same seeds (every reset, when none
    are drawn) return one state object; each step's forward takes each
    distinct state object once, in order of first appearance, and each
    distinct (state, action) pair is stepped once. Episodes that act alike
    hold the same objects, and one that acts differently splits off.

    Each trace keeps the state of every step for policy_backward to replay;
    with keep_states false its states list stays empty, so a finished step's
    state is freed."""
    resets, states, traces, uniforms = {}, [], [], []
    for graph, rng in zip(graphs, rngs):
        if rng is None and (randomize_order or init_mode == placement_env.RANDOM_INIT):
            raise TrainerError("a greedy episode has no rng to draw a visit order or initial placement from")
        order_seed = int(rng.integers(2**31)) if randomize_order else None
        init_seed = int(rng.integers(2**31)) if init_mode == placement_env.RANDOM_INIT else None
        key = (id(graph), order_seed, init_seed)  # graphs outlive the call, so ids stay unique
        if key not in resets:
            resets[key] = placement_env.reset(
                graph, topology, reward_cfg, init_mode=init_mode, init_seed=init_seed, order_seed=order_seed
            )
        state = resets[key]
        uniforms.append(None if rng is None else rng.random(len(state.visit_order)))
        states.append(state)
        traces.append(EpisodeTrace(graph.name, [], [], [], [], state.placement, 0.0))
    active = [i for i, state in enumerate(states) if not state.done]
    while active:
        rows = {}  # id -> (row, state): holding each state keeps its id unique
        for i in active:
            rows.setdefault(id(states[i]), (len(rows), states[i]))
        probs = policy_forward([s for _, s in rows.values()], topology, params)
        row_entropies = entropies(probs)
        picks = [rows[id(states[i])][0] for i in active]
        u = [None if uniforms[i] is None else uniforms[i][states[i].step_index] for i in active]
        stepped = {}  # (row, action) -> step's result
        for i, r, a in zip(active, picks, _step_actions(probs, picks, u)):
            state, tr = states[i], traces[i]
            if (r, a) not in stepped:
                stepped[r, a] = placement_env.step(state, a, topology, reward_cfg)
            states[i], reward, _ = stepped[r, a]
            if keep_states:
                tr.states.append(state)
            tr.actions.append(a)
            tr.rewards.append(reward)
            tr.entropies.append(row_entropies[r])
        active = [i for i in active if not states[i].done]
    for tr, state in zip(traces, states):
        tr.final_placement = state.placement
        tr.final_runtime = placement_env.final_runtime(state, topology, reward_cfg)
    return traces


def _step_actions(probs: np.ndarray, picks: list[int], u: list) -> list[int]:
    """One step's actions: episode k reads row picks[k] of probs and is
    greedy when u[k] is None (argmax, smallest device id on exact ties),
    else draws with the uniform u[k]. One argmax and one sample_actions call
    choose them all."""
    actions = np.argmax(probs, axis=1)[picks]
    drawn = [k for k, x in enumerate(u) if x is not None]
    if drawn:
        actions[drawn] = sample_actions(probs[[picks[k] for k in drawn]], np.array([u[k] for k in drawn]))
    return actions.tolist()


def cumulative_rewards(trace: EpisodeTrace) -> np.ndarray:
    return np.cumsum(np.asarray(trace.rewards, dtype=np.float64)[::-1])[::-1]


def compute_advantages(trace: EpisodeTrace, table: BaselineTable) -> np.ndarray:
    """A_t = (cumulative reward from t) - baseline; reads the table and
    leaves it unchanged."""
    cum = cumulative_rewards(trace)
    return np.array([cum[t] - table.value(trace.graph_name, t) for t in range(len(cum))])


@dataclass
class EpochStats:
    epoch: int
    lr: float
    entropy_weight: float
    grad_norm: float
    per_graph_runtime: dict[str, float]  # mean final penalized runtime
    mean_entropy: float


def train_epoch(
    params: PolicyParameters,
    graphs: list,
    topology: DeviceTopology,
    cfg: TrainerConfig,
    reward_cfg: RewardConfig,
    epoch: int,
    table: BaselineTable,
    adam: AdamState,
) -> tuple[EpochStats, list[EpisodeTrace]]:
    """One synchronous epoch: W rollouts, one backward over all their steps,
    one Adam step."""
    if not graphs:
        raise TrainerError("empty training set")
    named = {}
    for g in graphs:  # baselines, curves and best placements are kept by name
        if named.setdefault(g.name, g) is not g:
            raise TrainerError(f"two training graphs are named {g.name!r}; each needs a name of its own")
    shuffle_rng = np.random.default_rng([cfg.seed, epoch, 0xD15])
    order = shuffle_rng.permutation(len(graphs))
    picks = [graphs[order[w % len(graphs)]] for w in range(cfg.workers)]

    rngs = [np.random.default_rng([cfg.seed, epoch, w]) for w in range(cfg.workers)]
    traces = rollout(
        params,
        picks,
        topology,
        reward_cfg,
        rngs,
        init_mode=cfg.init_mode,
        randomize_order=cfg.randomize_visit_order,
    )

    # Workers are synchronous: all advantages use the pre-epoch baselines,
    # then episodes enter the table in worker order.
    advantages = [compute_advantages(tr, table) for tr in traces]
    for tr in traces:
        table.push(tr.graph_name, cumulative_rewards(tr))

    beta = cfg.entropy_at(epoch)
    _, grads = policy_backward(
        [s for tr in traces for s in tr.states],  # fixed worker-index order
        [a for tr in traces for a in tr.actions],
        np.concatenate(advantages),
        beta,
        params,
    )
    lr = cfg.lr_at(epoch)
    adam_step(params.flat_params(), grads, adam, lr_scale=lr)

    per_graph = {}
    for tr in traces:
        per_graph.setdefault(tr.graph_name, []).append(tr.final_runtime)
    stats = EpochStats(
        epoch=epoch,
        lr=lr,
        entropy_weight=beta,
        grad_norm=float(np.sqrt(sum(float((g * g).sum()) for g in grads))),
        per_graph_runtime={k: float(np.mean(v)) for k, v in per_graph.items()},
        mean_entropy=float(np.mean([e for tr in traces for e in tr.entropies])),
    )
    return stats, traces


CURVE_COLUMNS = ["epoch", "graph", "mean_runtime_s", "best_runtime_s", "mean_entropy", "grad_norm", "lr", "entropy_w"]


@dataclass
class TrainResult:
    params: PolicyParameters
    curve: list[dict]
    best_placements: dict[str, tuple[tuple[int, ...], float]]  # graph -> (placement, runtime)


def train(
    policy_cfg: PolicyConfig,
    cfg: TrainerConfig,
    graphs: list,
    topology: DeviceTopology,
    reward_cfg: RewardConfig | None = None,
) -> TrainResult:
    """Run cfg.episodes epochs and track the best placement per graph."""
    reward_cfg = reward_cfg or RewardConfig()
    params = init_policy(policy_cfg, seed=cfg.seed)
    adam = AdamState.for_params(params.flat_params(), lr=1.0)
    table = BaselineTable(cfg.baseline_window)
    curve = []
    best: dict[str, tuple[tuple[int, ...], float]] = {}
    for epoch in range(cfg.episodes):
        stats, traces = train_epoch(params, graphs, topology, cfg, reward_cfg, epoch, table, adam)
        for tr in traces:
            cur = best.get(tr.graph_name)
            if cur is None or tr.final_runtime < cur[1]:
                best[tr.graph_name] = (tr.final_placement, tr.final_runtime)
        for gname in sorted(stats.per_graph_runtime):
            curve.append(
                {
                    "epoch": epoch,
                    "graph": gname,
                    "mean_runtime_s": stats.per_graph_runtime[gname],
                    "best_runtime_s": best[gname][1],
                    "mean_entropy": stats.mean_entropy,
                    "grad_norm": stats.grad_norm,
                    "lr": stats.lr,
                    "entropy_w": stats.entropy_weight,
                }
            )
    return TrainResult(params=params, curve=curve, best_placements=best)


def write_curve(path, curve):
    write_csv(path, CURVE_COLUMNS, curve)


def save_policy_checkpoint(path, params: PolicyParameters):
    save_checkpoint(path, params.flat_params(), extra={"policy": params.config.to_header()})


def load_policy_checkpoint(path):
    """Returns (PolicyParameters, extra). The nets are the file's arrays, so
    the policy header cannot make this allocate more than the file holds."""
    flat, extra = load_checkpoint(path)
    check_object(extra, {"policy": "object"}, "checkpoint extra", TrainerError, required=("policy",))
    return policy_from_params(PolicyConfig.from_header(extra["policy"]), flat), extra


@dataclass
class Prediction:
    placement: Placement
    runtime_seconds: float  # penalized: the chosen episode's final_runtime


def predict_placement(
    params: PolicyParameters,
    graphs: list,
    topology: DeviceTopology,
    reward_cfg: RewardConfig | None = None,
    n_samples: int = 0,
    seed: int = 0,
) -> list[Prediction]:
    """One Prediction per graph: the best of one greedy episode and n_samples
    sampled ones on the graph's own np.random.default_rng(seed) stream, by
    penalized runtime, then the smallest placement. Every graph's episodes
    run in one lockstep rollout; a graph's episodes start from one shared
    state and share each forward row and step until their actions differ."""
    if params.config.num_devices != topology.num_devices:
        raise TrainerError(
            f"checkpoint is for {params.config.num_devices} devices, topology has {topology.num_devices}"
        )
    reward_cfg = reward_cfg or placement_env.EVALUATION_REWARD
    per_graph = 1 + n_samples
    rngs = []
    for _ in graphs:
        rngs += [None] + [np.random.default_rng(seed)] * n_samples
    traces = rollout(
        params, [g for g in graphs for _ in range(per_graph)], topology, reward_cfg, rngs, keep_states=False
    )
    predictions = []
    for k in range(len(graphs)):
        episodes = traces[k * per_graph : (k + 1) * per_graph]
        best = min(episodes, key=lambda tr: (tr.final_runtime, tr.final_placement))
        predictions.append(Prediction(Placement(best.final_placement), best.final_runtime))
    return predictions
