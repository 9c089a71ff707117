import copy
import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from placement_opt import datagen, placement_env, policy_gnn
from placement_opt.baselines import exhaustive_search
from placement_opt.neural_primitives import AdamState, adam_step, entropy, sample_action
from placement_opt.placement_env import RewardConfig
from placement_opt.policy_gnn import PolicyConfig, init_policy, policy_backward
from placement_opt.sim_engine import Placement, simulate
from placement_opt.trainer import (
    BaselineTable,
    EpisodeTrace,
    TrainerConfig,
    TrainerError,
    compute_advantages,
    cumulative_rewards,
    predict_placement,
    rollout,
    save_policy_checkpoint,
    load_policy_checkpoint,
    train,
    train_epoch,
    write_curve,
    CURVE_COLUMNS,
)

from conftest import forward_one, make_graph, make_topology, random_dag

PCFG = PolicyConfig(num_devices=2, message_rounds=2)
TERMINAL = RewardConfig(mode="terminal", reward_scale=1.0)


def one_rollout(params, graph, topology, reward_cfg, rng, **kw):
    """The trace of a rollout of one episode."""
    return rollout(params, [graph], topology, reward_cfg, [rng], **kw)[0]


def _record_forwards(monkeypatch):
    """Patch trainer.policy_forward to also append each call's (states, probs)
    to the list it returns."""
    import placement_opt.trainer as trainer

    calls, original = [], trainer.policy_forward

    def recording_forward(states, topology, params):
        calls.append((list(states), original(states, topology, params)))
        return calls[-1][1]

    monkeypatch.setattr(trainer, "policy_forward", recording_forward)
    return calls


def _used_probs(trace, forwards):
    """The probabilities each step of trace was taken with, from the calls
    _record_forwards recorded."""
    rows = {id(s): p for states, probs in forwards for s, p in zip(states, probs)}
    return [rows[id(s)] for s in trace.states]


def expensive_chain():
    # two nodes, huge tensor: colocation is clearly optimal
    return make_graph("chain", [1.0, 1.0], [50e6, 0.0], {(0, 1)})


class TestRollout:
    def test_single_node_trace(self, two_device):
        g = make_graph("one", [2.0], [0.0], set())
        params = init_policy(PCFG, seed=0)
        tr = one_rollout(params, g, two_device, TERMINAL, np.random.default_rng(0))
        assert len(tr.actions) == 1
        assert tr.rewards[0] == -tr.final_runtime
        assert tr.final_runtime == 2.0

    def test_deterministic_given_seed(self, diamond, two_device):
        params = init_policy(PCFG, seed=1)
        a = one_rollout(params, diamond, two_device, TERMINAL, np.random.default_rng(42))
        b = one_rollout(params, diamond, two_device, TERMINAL, np.random.default_rng(42))
        assert a.actions == b.actions
        assert a.rewards == b.rewards
        assert a.final_placement == b.final_placement

    def test_forced_actions_match_simulator(self, diamond, two_device, monkeypatch):
        # Visit order on the diamond is 0,1,2,3, so forcing (0,0,1,0)
        # reproduces the hand-traced cross-device placement.
        import placement_opt.trainer as trainer

        params = init_policy(PCFG, seed=2)
        forced = iter([0, 0, 1, 0])
        monkeypatch.setattr(trainer, "sample_actions", lambda probs, u: np.array([next(forced) for _ in u]))
        tr = one_rollout(params, diamond, two_device, TERMINAL, np.random.default_rng(0))
        assert tr.actions == [0, 0, 1, 0]
        assert tr.final_placement == (0, 0, 1, 0)
        res = simulate(diamond, two_device, Placement((0, 0, 1, 0)))
        assert tr.final_runtime == res.makespan_seconds == 8.0

    def test_greedy_is_deterministic(self, diamond, two_device, monkeypatch):
        # An episode without a stream is greedy: it takes each step's argmax.
        params = init_policy(PCFG, seed=3)
        forwards = _record_forwards(monkeypatch)
        a = one_rollout(params, diamond, two_device, TERMINAL, None)
        b = one_rollout(params, diamond, two_device, TERMINAL, None)
        assert a.final_placement == b.final_placement
        assert a.actions == [int(np.argmax(p)) for p in _used_probs(a, forwards)]

    def test_keep_states_false_keeps_the_rest_of_the_trace(self, diamond, two_device):
        params = init_policy(PCFG, seed=4)
        graphs = [diamond, make_graph("one", [2.0], [0.0], set()), diamond]

        def traces(keep_states):
            rngs = [None, np.random.default_rng(5), np.random.default_rng(6)]
            return rollout(params, graphs, two_device, RewardConfig(mode="intermediate"), rngs,
                           keep_states=keep_states)

        kept, dropped = traces(True), traces(False)
        assert [len(tr.states) for tr in kept] == [4, 1, 4]
        for a, b in zip(kept, dropped):
            assert b.states == []
            assert dataclasses.replace(a, states=[]) == b

    @pytest.mark.parametrize("kw", [{"randomize_order": True}, {"init_mode": "random"}])
    def test_greedy_episode_draws_no_order_or_init(self, diamond, two_device, kw):
        params = init_policy(PCFG, seed=3)
        with pytest.raises(TrainerError, match="greedy"):
            one_rollout(params, diamond, two_device, TERMINAL, None, **kw)


class TestAdvantages:
    def test_empty_table_gives_cumulative(self, two_device):
        table = BaselineTable(window=10)
        tr_stub = type("T", (), {})()
        tr_stub.graph_name = "g"
        tr_stub.rewards = [0.0, 0.0, -4.0]
        adv = compute_advantages(tr_stub, table)
        assert adv.tolist() == [-4.0, -4.0, -4.0]

    def test_window_one_identical_episodes_zero_advantage(self):
        table = BaselineTable(window=1)
        tr = type("T", (), {})()
        tr.graph_name = "g"
        tr.rewards = [1.0, 2.0, 3.0]
        table.push("g", cumulative_rewards(tr))
        adv = compute_advantages(tr, table)
        assert np.allclose(adv, 0.0)

    def test_reference_arithmetic(self):
        table = BaselineTable(window=5)
        for t, b in enumerate([-2.0, -2.0, -2.0]):
            table._buf[("g", t)] = __import__("collections").deque([b], maxlen=5)
        tr = type("T", (), {})()
        tr.graph_name = "g"
        tr.rewards = [0.0, 0.0, -4.0]
        adv = compute_advantages(tr, table)
        assert adv.tolist() == [-2.0, -2.0, -2.0]
        assert [list(table._buf[("g", t)]) for t in range(3)] == [[-2.0]] * 3  # read, not pushed

    def test_constant_rewards_converge_to_zero_within_window(self):
        table = BaselineTable(window=6)
        tr = type("T", (), {})()
        tr.graph_name = "g"
        tr.rewards = [0.5, -1.0, 0.25]
        last = None
        for _ in range(6):
            last = compute_advantages(tr, table)
            table.push("g", cumulative_rewards(tr))
        assert np.allclose(last, 0.0)

    def test_per_graph_tables(self):
        table = BaselineTable(window=4)
        a = type("T", (), {})()
        a.graph_name = "a"
        a.rewards = [1.0]
        b = type("T", (), {})()
        b.graph_name = "b"
        b.rewards = [100.0]
        table.push("a", cumulative_rewards(a))
        adv_b = compute_advantages(b, table)
        assert adv_b.tolist() == [100.0]  # b's table untouched by a


class TestTrainEpoch:
    @pytest.mark.parametrize("beta", [1e-2, 0.0])
    def test_single_worker_matches_handrolled_reference(self, two_device, beta):
        # W=1 is plain REINFORCE: one epoch's parameter delta equals Adam
        # applied to the analytic gradient of Eq-style advantage-weighted
        # log-probs (with and without the entropy term).
        g = expensive_chain()
        reward_cfg = RewardConfig(mode="intermediate")
        cfg = TrainerConfig(episodes=3, workers=1, seed=9, lr_start=1e-3, lr_end=1e-3,
                            entropy_start=beta, entropy_end=beta, baseline_window=5)

        params = init_policy(PCFG, seed=cfg.seed)
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        table = BaselineTable(cfg.baseline_window)
        for epoch in range(3):
            train_epoch(params, [g], two_device, cfg, reward_cfg, epoch, table, adam)

        # independent single-threaded reference with the same derived seeds
        ref = init_policy(PCFG, seed=cfg.seed)
        ref_adam = AdamState.for_params(ref.flat_params(), lr=1.0)
        ref_table = BaselineTable(cfg.baseline_window)
        for epoch in range(3):
            rng = np.random.default_rng([cfg.seed, epoch, 0])
            tr = one_rollout(ref, g, two_device, reward_cfg, rng)
            adv = compute_advantages(tr, ref_table)
            ref_table.push(tr.graph_name, cumulative_rewards(tr))
            _, grads = policy_backward(tr.states, tr.actions, adv, cfg.entropy_at(epoch), ref)
            adam_step(ref.flat_params(), grads, ref_adam, lr_scale=cfg.lr_at(epoch))

        for p, q in zip(params.flat_params(), ref.flat_params()):
            assert np.array_equal(p, q)

    def test_identical_seeds_identical_trajectories(self, two_device):
        g = expensive_chain()
        reward_cfg = RewardConfig(mode="intermediate")

        def run():
            cfg = TrainerConfig(episodes=4, workers=4, seed=123)
            params = init_policy(PCFG, seed=cfg.seed)
            adam = AdamState.for_params(params.flat_params(), lr=1.0)
            table = BaselineTable(cfg.baseline_window)
            for epoch in range(4):
                train_epoch(params, [g], two_device, cfg, reward_cfg, epoch, table, adam)
            return params.flat_params()

        for p, q in zip(run(), run()):
            assert np.array_equal(p, q)

    def test_empty_dataset_rejected(self, two_device):
        cfg = TrainerConfig()
        params = init_policy(PCFG, seed=0)
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        with pytest.raises(TrainerError):
            train_epoch(params, [], two_device, cfg, TERMINAL, 0, BaselineTable(5), adam)

    def test_distinct_graphs_sharing_a_name_rejected(self, two_device):
        # Baselines, curve rows and best placements are kept by name; one graph
        # object passed twice is still one graph.
        a = make_graph("g", [1.0, 2.0], [1e6, 0.0], {(0, 1)})
        b = make_graph("g", [1.0], [0.0], set())
        params = init_policy(PCFG, seed=0)
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        train_epoch(params, [a, a], two_device, TrainerConfig(workers=2), TERMINAL, 0, BaselineTable(5), adam)
        with pytest.raises(TrainerError, match="two training graphs are named 'g'"):
            train_epoch(params, [a, b], two_device, TrainerConfig(workers=2), TERMINAL, 0, BaselineTable(5), adam)

    def test_one_backward_per_epoch_matches_the_per_episode_sum(self, monkeypatch):
        # train_epoch makes one policy_backward call over all its episodes'
        # steps; a small row budget ends its passes inside episodes. Its
        # gradient stays within 1e-12 per tensor of one backward per episode
        # on the pre-epoch parameters and baselines, summed in worker order.
        import placement_opt.trainer as trainer

        rng = np.random.default_rng(77)
        graphs = [make_graph("one", [2.0], [1e6], set())]
        graphs += [random_dag(rng, max_nodes=24, bytes_range=(0.1, 4e6), name=f"random{k}") for k in range(4)]
        topo = make_topology(3, bandwidth=4e6)
        reward_cfg = RewardConfig(mode="intermediate")
        params = init_policy(PolicyConfig(num_devices=3, message_rounds=2), seed=10)
        cfg = TrainerConfig(episodes=3, workers=6, seed=11, init_mode="random", randomize_visit_order=True)
        calls, passes = [], []
        original_backward, original_forward = trainer.policy_backward, policy_gnn._forward

        def recording_backward(*args):
            passes.clear()
            loss, grads = original_backward(*args)
            calls.append((list(passes), [g.copy() for g in grads]))
            return loss, grads

        monkeypatch.setattr(policy_gnn, "MAX_BATCH_ROWS", 40)
        monkeypatch.setattr(policy_gnn, "_forward", lambda s, p: passes.append(len(s)) or original_forward(s, p))
        monkeypatch.setattr(trainer, "policy_backward", recording_backward)
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        table = BaselineTable(cfg.baseline_window)
        for epoch in range(cfg.episodes):
            before, table_before = copy.deepcopy(params), copy.deepcopy(table)
            _, traces = train_epoch(params, graphs, topo, cfg, reward_cfg, epoch, table, adam)
            assert len(calls) == epoch + 1  # one backward per epoch
            chunk_sizes, grads = calls[-1]
            episode_ends = set(np.cumsum([len(tr.states) for tr in traces]).tolist())
            assert len(chunk_sizes) > 1 and set(np.cumsum(chunk_sizes).tolist()) - episode_ends
            expected = [np.zeros_like(p) for p in before.flat_params()]
            with pytest.MonkeyPatch.context() as m:
                m.setattr(policy_gnn, "MAX_BATCH_ROWS", 1 << 20)
                for tr in traces:
                    adv = compute_advantages(tr, table_before)
                    for acc, g in zip(expected, original_backward(tr.states, tr.actions, adv, cfg.entropy_at(epoch),
                                                                  before)[1]):
                        acc += g
            for g, r in zip(grads, expected):
                assert np.max(np.abs(g - r)) <= 1e-12 * max(np.max(np.abs(r)), 1e-300)


def _sequential_rollout(params, graph, topology, reward_cfg, rng):
    """The unbatched reference: one episode, one single-state policy forward
    per step, random init and visit order drawn from rng first."""
    order_seed = int(rng.integers(2**31))
    init_seed = int(rng.integers(2**31))
    state = placement_env.reset(graph, topology, reward_cfg, init_mode="random", init_seed=init_seed,
                                order_seed=order_seed)
    actions, rewards, probs = [], [], []
    while not state.done:
        p, _ = forward_one(state, topology, params)
        a = sample_action(p, rng.random())
        state, r, _ = placement_env.step(state, a, topology, reward_cfg)
        actions.append(a)
        rewards.append(r)
        probs.append(p)
    return actions, rewards, probs, state.placement, placement_env.final_runtime(state, topology, reward_cfg)


class TestLockstep:
    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_epoch_matches_independent_rollouts(self, workers, monkeypatch):
        # Workers on graphs of 1 to ~20 nodes finish at different steps; each
        # must act exactly as it would alone on its own [seed, epoch, w] stream.
        topo = make_topology(3, bandwidth=4e6)
        graphs = [
            make_graph("one", [2.0], [1e6], set()),
            expensive_chain(),
            random_dag(np.random.default_rng(31), max_nodes=9, bytes_range=(0.1, 4e6), name="random31"),
            datagen.generate_family(datagen.FamilySpec(family="branch_blocks", count=2, blocks=2, seed=6))[0],
            random_dag(np.random.default_rng(32), max_nodes=6, bytes_range=(0.1, 4e6), name="random32"),
        ]
        reward_cfg = RewardConfig(mode="intermediate")
        cfg = TrainerConfig(episodes=4, workers=workers, seed=17, init_mode="random", randomize_visit_order=True)
        params = init_policy(PolicyConfig(num_devices=3, message_rounds=2), seed=5)
        epoch = 2
        order = np.random.default_rng([cfg.seed, epoch, 0xD15]).permutation(len(graphs))
        picks = [graphs[order[w % len(graphs)]] for w in range(workers)]
        assert workers == 1 or len({g.num_nodes for g in picks}) > 1
        expected = [
            _sequential_rollout(params, g, topo, reward_cfg, np.random.default_rng([cfg.seed, epoch, w]))
            for w, g in enumerate(picks)
        ]
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        forwards = _record_forwards(monkeypatch)
        _, traces = train_epoch(params, graphs, topo, cfg, reward_cfg, epoch, BaselineTable(5), adam)
        assert [tr.graph_name for tr in traces] == [g.name for g in picks]
        for tr, (actions, rewards, probs, placement, runtime) in zip(traces, expected):
            assert tr.actions == actions
            assert tr.rewards == rewards
            assert tr.final_placement == placement
            assert tr.final_runtime == runtime
            assert len(tr.states) == len(probs)
            for used, p in zip(_used_probs(tr, forwards), probs):
                assert np.max(np.abs(used - p)) <= 1e-12


class TestTrain:
    def test_zero_episodes_returns_initial(self, two_device):
        g = expensive_chain()
        cfg = TrainerConfig(episodes=0, workers=2, seed=0)
        result = train(PCFG, cfg, [g], two_device, RewardConfig(mode="terminal"))
        fresh = init_policy(PCFG, seed=0)
        for p, q in zip(result.params.flat_params(), fresh.flat_params()):
            assert np.array_equal(p, q)
        assert result.curve == []
        assert result.best_placements == {}

    def test_chain_learns_to_colocate(self, two_device):
        g = expensive_chain()
        opt_pl, opt = exhaustive_search(g, two_device, RewardConfig(mode="terminal"))
        assert opt == 2.0
        cfg = TrainerConfig(episodes=60, workers=4, seed=1, lr_start=1e-2, lr_end=1e-3,
                            entropy_start=5e-3, entropy_end=1e-4)
        result = train(PCFG, cfg, [g], two_device, RewardConfig(mode="intermediate"))
        best_pl, best_r = result.best_placements[g.name]
        assert best_r == opt
        assert best_pl[0] == best_pl[1]
        # the converged policy's greedy rollout also colocates
        (pred,) = predict_placement(result.params, [g], two_device)
        assert pred.placement.assignment[0] == pred.placement.assignment[1]
        assert pred.runtime_seconds == 2.0

    def test_best_runtime_non_increasing(self, two_device):
        g = expensive_chain()
        cfg = TrainerConfig(episodes=30, workers=2, seed=5)
        result = train(PCFG, cfg, [g], two_device, RewardConfig(mode="intermediate"))
        series = [row["best_runtime_s"] for row in result.curve]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    def test_curve_csv(self, tmp_path, two_device):
        g = expensive_chain()
        cfg = TrainerConfig(episodes=3, workers=2, seed=5)
        result = train(PCFG, cfg, [g], two_device, RewardConfig(mode="intermediate"))
        path = tmp_path / "curve.csv"
        write_curve(path, result.curve)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == CURVE_COLUMNS
        assert len(rows) == 3

    def test_config_validation(self):
        with pytest.raises(TrainerError, match="trainer key 'workers' must be an integer >= 1, not 0"):
            TrainerConfig(workers=0)
        with pytest.raises(TrainerError, match="need lr_start >= lr_end >= 0"):
            TrainerConfig(lr_start=1e-4, lr_end=1e-3)
        with pytest.raises(TrainerError, match="trainer key 'baseline_window' must be an integer >= 1, not 0"):
            TrainerConfig(baseline_window=0)
        with pytest.raises(TrainerError, match='trainer key \'init_mode\' must be one of "all_device_0", "random", '
                                               'not "bogus"'):
            TrainerConfig(init_mode="bogus")

    def test_negative_episodes_rejected(self):
        assert TrainerConfig(episodes=0).episodes == 0
        with pytest.raises(TrainerError, match="trainer key 'episodes' must be an integer >= 0, not -1"):
            TrainerConfig(episodes=-1)

    @pytest.mark.parametrize("threads", [0, 2, 4])
    def test_threads_other_than_one_rejected(self, threads):
        # Training is serial; the field only lets configs that say 1 load.
        assert TrainerConfig(threads=1).threads == 1
        with pytest.raises(TrainerError, match=rf"trainer key 'threads' must be 1 \(training runs in one thread\), "
                                                rf"not {threads}"):
            TrainerConfig(threads=threads)


class TestPredict:
    def test_zero_samples_is_pure_greedy(self, diamond, two_device):
        params = init_policy(PCFG, seed=4)
        (a,) = predict_placement(params, [diamond], two_device, n_samples=0, seed=1)
        (b,) = predict_placement(params, [diamond], two_device, n_samples=0, seed=2)
        assert a.placement == b.placement

    def test_sampling_only_improves(self, diamond, two_device):
        # Best-of-(greedy + n) is never worse than greedy alone.
        params = init_policy(PCFG, seed=4)
        (greedy,) = predict_placement(params, [diamond], two_device, n_samples=0)
        (sampled,) = predict_placement(params, [diamond], two_device, n_samples=16, seed=0)
        assert sampled.runtime_seconds <= greedy.runtime_seconds

    def test_untrained_best_of_many_beats_single_random_on_average(self, two_device):
        # Order statistics: expected best of 16 samples <= expected single
        # sample; check the sample means across seeds.
        g = expensive_chain()
        params = init_policy(PCFG, seed=6)
        singles, bests = [], []
        for seed in range(30):
            single = one_rollout(params, g, two_device, RewardConfig(mode="terminal"),
                                 np.random.default_rng([seed, 1]))
            singles.append(single.final_runtime)
            (best,) = predict_placement(params, [g], two_device, n_samples=16, seed=seed)
            bests.append(best.runtime_seconds)
        assert np.mean(bests) <= np.mean(singles)

    def test_device_count_mismatch(self, diamond):
        params = init_policy(PCFG, seed=0)
        topo4 = make_topology(4)
        with pytest.raises(TrainerError, match="devices"):
            predict_placement(params, [diamond], topo4)


def _reference_episodes(params, graph, topology, reward_cfg, n_samples, seed):
    """predict_placement's episodes run one after another: the greedy one, then
    n sampled ones on the same stream, one single-state forward per step."""
    rng = np.random.default_rng(seed)
    episodes = []
    for k in range(1 + n_samples):
        state = placement_env.reset(graph, topology, reward_cfg)
        actions = []
        while not state.done:
            p, _ = forward_one(state, topology, params)
            a = int(np.argmax(p)) if k == 0 else sample_action(p, rng.random())
            state, _, _ = placement_env.step(state, a, topology, reward_cfg)
            actions.append(a)
        episodes.append((actions, state.placement, placement_env.final_runtime(state, topology, reward_cfg)))
    return episodes


class TestOneStream:
    """Episodes that share one stream draw at reset exactly what they would
    draw one after another."""

    @pytest.mark.parametrize("seed", [0, 1, 7919, 2**40, [1, 2], [17, 3, 0xD15], [0, 0, 0]])
    def test_vector_draw_equals_scalar_draws(self, seed):
        for k in (0, 1, 5, 64):
            scalar = np.random.default_rng(seed)
            vector = np.random.default_rng(seed)
            drawn = [scalar.random() for _ in range(k)]
            assert vector.random(k).tolist() == drawn
            assert vector.random() == scalar.random()  # both streams are at the same point

    @pytest.mark.parametrize("devices", [2, 3])
    @pytest.mark.parametrize("n_samples", [0, 1, 4, 16])
    def test_predict_matches_sequential_reference(self, monkeypatch, devices, n_samples):
        import placement_opt.trainer as trainer

        topo = make_topology(devices, bandwidth=4e6)
        graph = random_dag(np.random.default_rng(40 + devices), max_nodes=9, bytes_range=(0.1, 4e6))
        params = init_policy(PolicyConfig(num_devices=devices, message_rounds=2), seed=devices)
        reward_cfg = RewardConfig(mode="terminal")
        traces, original = [], trainer.rollout

        def recording_rollout(*args, **kwargs):
            out = original(*args, **kwargs)
            traces.extend(out)
            return out

        monkeypatch.setattr(trainer, "rollout", recording_rollout)
        (pred,) = predict_placement(params, [graph], topo, reward_cfg, n_samples=n_samples, seed=11)
        expected = _reference_episodes(params, graph, topo, reward_cfg, n_samples, seed=11)
        assert len(traces) == 1 + n_samples
        for tr, (actions, placement, runtime) in zip(traces, expected):
            assert tr.actions == actions
            assert tr.final_placement == placement
            assert tr.final_runtime == runtime
            assert tr.states == []  # a prediction never replays its steps
        _, best_placement, best_runtime = min(expected, key=lambda e: (e[2], e[1]))
        assert pred.placement.assignment == best_placement
        assert pred.runtime_seconds == best_runtime
        if n_samples == 16:
            assert len({tuple(a) for a, _, _ in expected}) > 2  # the samples explore


def _mixed_graphs():
    """Graphs of 0 to ~20 nodes, each of a different size."""
    return [
        random_dag(np.random.default_rng(41), max_nodes=9, bytes_range=(0.1, 4e6), name="random41"),
        make_graph("empty", [], [], set()),
        make_graph("one", [2.0], [1e6], set()),
        datagen.generate_family(datagen.FamilySpec(family="branch_blocks", count=2, blocks=2, seed=6))[0],
        expensive_chain(),
        random_dag(np.random.default_rng(43), max_nodes=6, bytes_range=(0.1, 4e6), name="random43"),
    ]


def _record_rollouts(monkeypatch):
    """Patch trainer.rollout to also append each call's traces to the list it
    returns. Every trace keeps its states, so that _used_probs can look up
    each step's probabilities even in a prediction."""
    import placement_opt.trainer as trainer

    calls, original = [], trainer.rollout

    def recording_rollout(*args, **kwargs):
        calls.append(original(*args, **{**kwargs, "keep_states": True}))
        return calls[-1]

    monkeypatch.setattr(trainer, "rollout", recording_rollout)
    return calls


class TestCrossGraphPredict:
    """predict_placement runs every graph's episodes in one lockstep rollout;
    each graph acts exactly as it would alone on its own stream."""

    @pytest.mark.parametrize("devices", [2, 3])
    @pytest.mark.parametrize("n_samples", [0, 1, 4])
    def test_matches_per_graph_sequential_reference(self, monkeypatch, devices, n_samples):
        topo = make_topology(devices, bandwidth=4e6)
        graphs = _mixed_graphs()
        assert len({g.num_nodes for g in graphs}) == len(graphs)
        params = init_policy(PolicyConfig(num_devices=devices, message_rounds=2), seed=devices)
        reward_cfg = RewardConfig(mode="terminal")
        calls = _record_rollouts(monkeypatch)
        preds = predict_placement(params, graphs, topo, reward_cfg, n_samples=n_samples, seed=11)
        assert len(calls) == 1 and len(preds) == len(graphs)
        per_graph = 1 + n_samples
        assert len(calls[0]) == len(graphs) * per_graph
        for k, (graph, pred) in enumerate(zip(graphs, preds)):
            expected = _reference_episodes(params, graph, topo, reward_cfg, n_samples, seed=11)
            for tr, (actions, placement, runtime) in zip(calls[0][k * per_graph : (k + 1) * per_graph], expected):
                assert tr.graph_name == graph.name
                assert tr.actions == actions
                assert tr.final_placement == placement
                assert tr.final_runtime == runtime
            _, best_placement, best_runtime = min(expected, key=lambda e: (e[2], e[1]))
            assert pred.placement.assignment == best_placement
            assert pred.runtime_seconds == best_runtime

    def test_no_graphs(self, two_device):
        assert predict_placement(init_policy(PCFG, seed=0), [], two_device, n_samples=4) == []

    def test_row_budget_splits_the_forward(self, monkeypatch):
        # A budget of 12 rows splits most steps' forwards into several
        # passes; every episode still acts as in the unsplit run.
        topo = make_topology(3, bandwidth=4e6)
        graphs = _mixed_graphs()
        params = init_policy(PolicyConfig(num_devices=3, message_rounds=2), seed=8)
        reward_cfg = RewardConfig(mode="terminal")
        calls, forwards = _record_rollouts(monkeypatch), _record_forwards(monkeypatch)
        whole = predict_placement(params, graphs, topo, reward_cfg, n_samples=4, seed=5)
        passes, original = [], policy_gnn._forward

        def recording_forward(states, p):
            passes.append([s.graph.num_nodes for s in states])
            return original(states, p)

        monkeypatch.setattr(policy_gnn, "MAX_BATCH_ROWS", 12)
        monkeypatch.setattr(policy_gnn, "_forward", recording_forward)
        split = predict_placement(params, graphs, topo, reward_cfg, n_samples=4, seed=5)
        assert all(sum(rows) <= 12 or len(rows) == 1 for rows in passes)
        assert max(len(rows) for rows in passes) > 1 and max(sum(rows) for rows in passes) > 12  # one ran alone
        assert len(passes) > max(len(tr.actions) for tr in calls[0])  # steps were split
        assert split == whole
        for a, b in zip(calls[0], calls[1]):
            assert a.actions == b.actions
            assert a.final_placement == b.final_placement
            assert a.final_runtime == b.final_runtime
            for pa, pb in zip(_used_probs(a, forwards), _used_probs(b, forwards)):
                assert np.max(np.abs(pa - pb)) <= 1e-12

    def test_reachability_runs_once_per_graph(self, monkeypatch):
        # A graph's reachability index is cached on the graph object: a prediction
        # on five graphs, then a training epoch on them, sweeps each graph's
        # reachability once.
        from placement_opt import graph_core

        topo = make_topology(2, bandwidth=4e6)
        graphs = [g for g in _mixed_graphs() if g.num_nodes > 0]
        assert len(graphs) == 5
        params = init_policy(PolicyConfig(num_devices=2, message_rounds=2), seed=4)
        swept, original = [], graph_core.reachability
        monkeypatch.setattr(graph_core, "reachability", lambda g: swept.append(g) or original(g))
        predict_placement(params, graphs, topo, n_samples=3, seed=2)
        assert sorted(map(id, swept)) == sorted(map(id, graphs))
        cfg = TrainerConfig(episodes=1, workers=2 * len(graphs), seed=2)
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        train_epoch(params, graphs, topo, cfg, RewardConfig(mode="intermediate"), 0, BaselineTable(5), adam)
        assert sorted(map(id, swept)) == sorted(map(id, graphs))

    def test_prediction_keeps_states_not_features(self):
        # A prediction keeps no step's state, since it never replays them.
        # Four graphs of 144-151 nodes with 4 samples each peaked at 30 MB
        # with feature matrices in the step records, at 9.6 MB with a visited
        # tuple next to each state's placement, at 3.2 MB with one kept state
        # per step, and at 2.4 MB with none (numpy 2.4, Python 3.11).
        spec = datagen.FamilySpec(family="branch_blocks", count=12, blocks=16, seed=1)
        graphs = [g for g in datagen.generate_family(spec) if 144 <= g.num_nodes <= 151][:4]
        params = init_policy(PolicyConfig(num_devices=2, message_rounds=3), seed=0)
        tracemalloc.start()
        try:
            predict_placement(params, graphs, make_topology(2), n_samples=4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75e6, f"peak {peak / 1e6:.2f} MB"


def _unshared_rollout(params, graphs, topology, reward_cfg, rngs, init_mode="all_device_0", randomize_order=False):
    """trainer.rollout without shared work: every episode resets on its own,
    and each step runs one forward row and one env step per unfinished
    episode. Returns the traces and each episode's probability rows."""
    states, traces, uniforms = [], [], []
    for graph, rng in zip(graphs, rngs):
        order_seed = int(rng.integers(2**31)) if randomize_order else None
        init_seed = int(rng.integers(2**31)) if init_mode == "random" else None
        state = placement_env.reset(
            graph, topology, reward_cfg, init_mode=init_mode, init_seed=init_seed, order_seed=order_seed
        )
        uniforms.append(None if rng is None else rng.random(len(state.visit_order)))
        states.append(state)
        traces.append(EpisodeTrace(graph.name, [], [], [], [], state.placement, 0.0))
    used = [[] for _ in graphs]
    active = [i for i, state in enumerate(states) if not state.done]
    while active:
        probs = policy_gnn.policy_forward([states[i] for i in active], topology, params)
        for i, p in zip(active, probs):
            state, tr = states[i], traces[i]
            a = int(np.argmax(p)) if uniforms[i] is None else sample_action(p, uniforms[i][state.step_index])
            states[i], reward, _ = placement_env.step(state, a, topology, reward_cfg)
            tr.states.append(state)
            tr.actions.append(a)
            tr.rewards.append(reward)
            tr.entropies.append(entropy(p))
            used[i].append(p)
        active = [i for i in active if not states[i].done]
    for tr, state in zip(traces, states):
        tr.final_placement = state.placement
        tr.final_runtime = placement_env.final_runtime(state, topology, reward_cfg)
    return traces, used


def _check_sharing(monkeypatch):
    """Patch trainer.rollout so that every call is also replayed by
    _unshared_rollout on copies of its rngs and must agree with it, state by
    state: every call keeps its states. Returns a list that gets each call's
    (traces, work), where work counts the call's resets, env steps and
    forward union rows."""
    import placement_opt.trainer as trainer

    work = {"reset": 0, "step": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in work:
        monkeypatch.setattr(placement_env, name, counted(name, getattr(placement_env, name)))
    forwards = _record_forwards(monkeypatch)
    calls, original = [], trainer.rollout

    def checked_rollout(params, graphs, topology, reward_cfg, rngs, **kw):
        replay_rngs = copy.deepcopy(rngs)  # keeps episodes that share a stream sharing it
        before, first = dict(work), len(forwards)
        kw.pop("keep_states", None)
        traces = original(params, graphs, topology, reward_cfg, rngs, keep_states=True, **kw)
        used = {k: work[k] - before[k] for k in work}
        used["rows"] = sum(s.graph.num_nodes for states, _ in forwards[first:] for s in states)
        expected, expected_probs = _unshared_rollout(params, graphs, topology, reward_cfg, replay_rngs, **kw)
        assert len(traces) == len(expected)
        for tr, ref, ref_probs in zip(traces, expected, expected_probs):
            assert tr.graph_name == ref.graph_name
            assert tr.actions == ref.actions
            assert tr.rewards == ref.rewards
            assert tr.final_placement == ref.final_placement
            assert tr.final_runtime == ref.final_runtime
            assert list(map(_state_key, tr.states)) == list(map(_state_key, ref.states))
            # A row's last bits depend on the batch it runs in, and sharing
            # changes the batches.
            for p, q in zip(_used_probs(tr, forwards[first:]), ref_probs, strict=True):
                assert np.max(np.abs(p - q)) <= 1e-12
            assert np.max(np.abs(np.subtract(tr.entropies, ref.entropies)), initial=0.0) <= 1e-12
        calls.append((traces, used))
        return traces

    monkeypatch.setattr(trainer, "rollout", checked_rollout)
    return calls


def _state_key(state):
    """An EpisodeState's value, with its graph compared by identity."""
    s = state
    return id(s.graph), s.placement, s.step_index, s.visit_order, s.reward_scale, s.cached_runtime


def _distinct_work(traces):
    """The union rows and env steps of the lockstep steps when each distinct
    state, compared by value, runs one forward row and each distinct (state,
    action) pair one step."""
    rows = steps = 0
    for t in range(max((len(tr.states) for tr in traces), default=0)):
        taken = [(tr.states[t], tr.actions[t]) for tr in traces if len(tr.states) > t]
        rows += sum({_state_key(s): s.graph.num_nodes for s, _ in taken}.values())
        steps += len({(_state_key(s), a) for s, a in taken})
    return rows, steps


def _unshared_work(traces):
    """The union rows and env steps when every episode runs its own."""
    rows = sum(s.graph.num_nodes for tr in traces for s in tr.states)
    return rows, sum(len(tr.actions) for tr in traces)


class TestSharedWork:
    """Episodes in the same state share one reset, one forward row and one env
    step, and each still acts exactly as it would on its own."""

    def test_prediction_shares_greedy_and_sampled_episodes(self, monkeypatch):
        topo = make_topology(3, bandwidth=4e6)
        graphs = _mixed_graphs()
        params = init_policy(PolicyConfig(num_devices=3, message_rounds=2), seed=9)
        calls = _check_sharing(monkeypatch)
        predict_placement(params, graphs, topo, n_samples=4, seed=3)
        ((traces, used),) = calls
        assert used["reset"] == len(graphs)  # a reset that draws nothing runs once per graph
        assert (used["rows"], used["step"]) == _distinct_work(traces)
        unshared_rows, unshared_steps = _unshared_work(traces)
        assert used["rows"] < unshared_rows and used["step"] < unshared_steps
        assert len({(tr.graph_name, tr.final_placement) for tr in traces}) > len(graphs)  # episodes split off

    def test_epoch_with_more_workers_than_graphs(self, monkeypatch):
        topo = make_topology(3, bandwidth=4e6)
        graphs = [g for g in _mixed_graphs() if g.num_nodes > 1][:3]
        params = init_policy(PolicyConfig(num_devices=3, message_rounds=2), seed=5)
        cfg = TrainerConfig(episodes=4, workers=8, seed=17)
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        calls = _check_sharing(monkeypatch)
        train_epoch(params, graphs, topo, cfg, RewardConfig(mode="intermediate"), 1, BaselineTable(5), adam)
        ((traces, used),) = calls
        assert used["reset"] == len(graphs)
        assert (used["rows"], used["step"]) == _distinct_work(traces)
        assert used["rows"] < _unshared_work(traces)[0]

    def test_drawn_visit_orders_share_no_reset(self, monkeypatch):
        topo = make_topology(3, bandwidth=4e6)
        graphs = [g for g in _mixed_graphs() if g.num_nodes > 1][:3]
        params = init_policy(PolicyConfig(num_devices=3, message_rounds=2), seed=5)
        cfg = TrainerConfig(episodes=4, workers=8, seed=17, randomize_visit_order=True)
        adam = AdamState.for_params(params.flat_params(), lr=1.0)
        calls = _check_sharing(monkeypatch)
        train_epoch(params, graphs, topo, cfg, RewardConfig(mode="intermediate"), 1, BaselineTable(5), adam)
        ((traces, used),) = calls
        assert used["reset"] == cfg.workers
        assert (used["rows"], used["step"]) == _unshared_work(traces)


class TestCheckpointHeader:
    def test_round_trip(self, tmp_path, two_device):
        g = expensive_chain()
        cfg = TrainerConfig(episodes=2, workers=2, seed=3)
        result = train(PCFG, cfg, [g], two_device, RewardConfig(mode="intermediate"))
        path = tmp_path / "ckpt.json"
        save_policy_checkpoint(path, result.params)
        params, extra = load_policy_checkpoint(path)
        assert params.config == PCFG
        assert extra == {"policy": PCFG.to_header()}
        for p, q in zip(params.flat_params(), result.params.flat_params()):
            assert np.array_equal(p, q)
        # the reloaded policy predicts identically
        (a,) = predict_placement(result.params, [g], two_device)
        (b,) = predict_placement(params, [g], two_device)
        assert a.placement == b.placement
