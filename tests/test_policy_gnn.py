import numpy as np
import pytest

from placement_opt import placement_env
from placement_opt.graph_core import ComputationGraph, OpGroup
from placement_opt.neural_primitives import finite_difference_check
from placement_opt.placement_env import RewardConfig, featurize, reset, step
from placement_opt.policy_gnn import (
    FULL,
    SIMPLE_AGGREGATOR,
    SIMPLE_PARTITIONER,
    PolicyConfig,
    PolicyError,
    embed,
    init_policy,
    policy_backward,
    policy_forward,
    step_loss_and_dlogits,
)

from conftest import make_graph, make_topology, random_dag


def nudge(params, seed=99, lo=0.01, hi=0.05):
    # keep every relu pre-activation away from exactly zero
    rng = np.random.default_rng(seed)
    for p in params.flat_params():
        p += rng.uniform(lo, hi, size=p.shape)
    return params


def episode_replay(graph, topology, params, actions, env_cfg):
    def run():
        tapes = []
        st = reset(graph, topology, env_cfg)
        for a in actions:
            _, tape = policy_forward(st, topology, params)
            tapes.append(tape)
            st, _, _ = step(st, a, topology, env_cfg)
        return tapes

    return run


class TestEmbed:
    def test_zero_rounds_is_concatenated_raw(self, diamond, two_device):
        cfg = PolicyConfig(num_devices=2, message_rounds=0)
        params = init_policy(cfg, seed=0)
        st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        feats = featurize(st, two_device)
        emb, _ = embed(feats, diamond, params)
        assert np.array_equal(emb, np.concatenate([feats, feats], axis=1))

    def test_isolated_node_stream_recurrence(self, two_device):
        # With no neighbors both streams evolve as g(concat(x, 0)) each round.
        g = make_graph("one", [2.0], [1e6], set())
        cfg = PolicyConfig(num_devices=2, message_rounds=3)
        params = init_policy(cfg, seed=1)
        st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        feats = featurize(st, two_device)
        emb, _ = embed(feats, g, params)
        from placement_opt.neural_primitives import dense_forward

        for direction, half in (("down", emb[0, :6]), ("up", emb[0, 6:])):
            x = feats[0]
            for _ in range(3):
                fin = np.concatenate([x, np.zeros(6)])
                x, _ = dense_forward(params.nets[f"g_{direction}"], fin)
            assert np.allclose(half, x, atol=1e-12)

    def test_permutation_equivariance(self, two_device):
        rng = np.random.default_rng(3)
        cfg = PolicyConfig(num_devices=2, message_rounds=3)
        params = init_policy(cfg, seed=2)
        for _ in range(10):
            g = random_dag(rng, max_nodes=12, bytes_range=(0.1, 4e6))
            n = g.num_nodes
            feats = rng.uniform(size=(n, 6))
            emb, _ = embed(feats, g, params)
            perm = rng.permutation(n)
            pg = ComputationGraph.build(
                "p",
                [
                    OpGroup(
                        id=int(perm[v]),
                        compute_seconds=g.nodes[v].compute_seconds,
                        output_bytes=g.nodes[v].output_bytes,
                    )
                    for v in range(n)
                ],
                {(int(perm[u]), int(perm[v])) for u, v in g.edges},
            )
            pfeats = np.empty_like(feats)
            pfeats[perm] = feats
            pemb, _ = embed(pfeats, pg, params)
            assert np.max(np.abs(pemb[perm] - emb)) <= 1e-9


class TestPoolAndDecide:
    def test_single_node_contexts_are_h_of_zero(self, two_device):
        g = make_graph("one", [1.0], [1e6], set())
        cfg = PolicyConfig(num_devices=2, message_rounds=1)
        params = init_policy(cfg, seed=4)
        st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        probs, tape = policy_forward(st, two_device, params)
        from placement_opt.neural_primitives import dense_forward
        from placement_opt.policy_gnn import pool_and_decide

        emb = tape["embed"]["emb"]
        logits, _ = pool_and_decide(emb, ([], [], []), 0, params)
        # independent assembly of the same head input
        pieces = [emb[0]]
        for s in ("parents", "children", "parallel"):
            z, _ = dense_forward(params.nets[f"l_{s}"], np.zeros(12))  # unused when set empty
            ctx, _ = dense_forward(params.nets[f"h_{s}"], np.zeros(12))
            pieces.append(ctx)
        expected, _ = dense_forward(params.nets["head"], np.concatenate(pieces))
        assert np.allclose(logits, expected, atol=1e-12)

    def test_set_membership_order_irrelevant(self, two_device):
        # Summation makes the pooled context independent of member order.
        rng = np.random.default_rng(5)
        g = random_dag(rng, max_nodes=10)
        cfg = PolicyConfig(num_devices=2, message_rounds=1)
        params = init_policy(cfg, seed=6)
        emb = rng.uniform(size=(g.num_nodes, 12))
        from placement_opt.policy_gnn import pool_and_decide

        ids = list(range(g.num_nodes - 1))
        l1, _ = pool_and_decide(emb, (ids, [], []), g.num_nodes - 1, params)
        l2, _ = pool_and_decide(emb, (ids[::-1], [], []), g.num_nodes - 1, params)
        assert np.max(np.abs(l1 - l2)) <= 1e-12

    def test_swapping_parallel_and_child_changes_logits(self, two_device):
        # With structure-aware pooling, moving features between a parallel
        # node and a child changes the decision in general.
        g = make_graph("d", [1, 2, 3, 4], [1e6, 2e6, 3e6, 4e6], {(0, 1), (0, 2), (1, 3), (2, 3)})
        cfg = PolicyConfig(num_devices=2, message_rounds=0)
        params = nudge(init_policy(cfg, seed=0))
        rng = np.random.default_rng(7)
        emb = rng.uniform(size=(4, 12))
        from placement_opt.policy_gnn import pool_and_decide

        # current node v=1: parents {0}, children {3}, parallel {2}
        base, _ = pool_and_decide(emb, ([0], [3], [2]), 1, params)
        swapped_emb = emb.copy()
        swapped_emb[[2, 3]] = emb[[3, 2]]
        swapped, _ = pool_and_decide(swapped_emb, ([0], [3], [2]), 1, params)
        assert np.max(np.abs(base - swapped)) > 1e-6


class TestPolicyForward:
    def test_probabilities_sum_to_one(self, diamond, two_device):
        for mode in (FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER):
            cfg = PolicyConfig(num_devices=2, message_rounds=2, mode=mode)
            params = init_policy(cfg, seed=8)
            st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
            probs, _ = policy_forward(st, two_device, params)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_fresh_params_near_uniform(self, diamond, two_device):
        # Small-scale init keeps early logits near zero on a symmetric
        # two-device problem; statistical bound across seeds.
        offsets = []
        st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        for seed in range(20):
            params = init_policy(PolicyConfig(num_devices=2, message_rounds=2), seed=seed)
            probs, _ = policy_forward(st, two_device, params)
            offsets.append(abs(probs[0] - 0.5))
        assert np.mean(offsets) < 0.1
        assert np.mean([o < 0.2 for o in offsets]) >= 0.9

    def test_simple_aggregator_sees_only_the_sum(self, two_device):
        # Two states whose feature sums agree give identical distributions,
        # no matter which node is current.
        g = make_graph("c3", [1.0, 1.0, 1.0], [1e6, 1e6, 1e6], {(0, 1), (1, 2)})
        cfg = PolicyConfig(num_devices=2, mode=SIMPLE_AGGREGATOR)
        params = init_policy(cfg, seed=9)
        env_cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        st0 = reset(g, two_device, env_cfg)  # current node 0
        st1, _, _ = step(st0, 0, two_device, env_cfg)  # current node 1, node 0 visited
        # build a state with the same flags but different current node by
        # permuting which identical-featured node carries the flags
        probs0, _ = policy_forward(st0, two_device, params)
        # identical features everywhere: moving the current flag between
        # identical nodes keeps the sum, hence the distribution
        import dataclasses

        st0b = dataclasses.replace(st0, current_node=2)
        probs0b, _ = policy_forward(st0b, two_device, params)
        assert np.allclose(probs0, probs0b, atol=1e-12)
        # but visiting changes the sum, so st1 may differ
        probs1, _ = policy_forward(st1, two_device, params)
        assert not np.allclose(probs0, probs1, atol=1e-9)

    def test_full_mode_k0_uses_only_partition_structure(self, two_device):
        # With k=0 the embeddings are raw features, so two graphs with equal
        # features and equal relation-set partitions give equal logits even
        # with different edge sets (the transitive-closure edge is invisible).
        env_cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        chain = make_graph("chain", [1.0, 2.0, 3.0], [1e6, 2e6, 3e6], {(0, 1), (1, 2)})
        closed = make_graph("closed", [1.0, 2.0, 3.0], [1e6, 2e6, 3e6], {(0, 1), (1, 2), (0, 2)})
        cfg = PolicyConfig(num_devices=2, message_rounds=0)
        params = init_policy(cfg, seed=10)
        pa, _ = policy_forward(reset(chain, two_device, env_cfg), two_device, params)
        pb, _ = policy_forward(reset(closed, two_device, env_cfg), two_device, params)
        assert np.allclose(pa, pb, atol=1e-12)
        # while with k=1 message passing the extra edge is visible
        cfg1 = PolicyConfig(num_devices=2, message_rounds=1)
        params1 = nudge(init_policy(cfg1, seed=10))
        pa1, _ = policy_forward(reset(chain, two_device, env_cfg), two_device, params1)
        pb1, _ = policy_forward(reset(closed, two_device, env_cfg), two_device, params1)
        assert not np.allclose(pa1, pb1, atol=1e-9)

    def test_logits_finite_for_extreme_inputs(self, two_device):
        g = make_graph("big", [1e6, 1.0], [1e12, 1.0], {(0, 1)})
        for mode in (FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER):
            cfg = PolicyConfig(num_devices=2, message_rounds=4, mode=mode)
            params = init_policy(cfg, seed=11)
            st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
            probs, _ = policy_forward(st, two_device, params)
            assert np.isfinite(probs).all()

    def test_nan_logits_rejected(self, diamond, two_device):
        params = init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0)
        params.nets["head"].biases[-1][0] = np.nan  # set after the constructor's finiteness check
        st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        with pytest.raises(PolicyError, match="non-finite"):
            policy_forward(st, two_device, params)


class TestPolicyBackward:
    def test_zero_advantages_zero_entropy_give_zero_gradient(self, diamond, two_device):
        cfg = PolicyConfig(num_devices=2, message_rounds=2)
        params = init_policy(cfg, seed=12)
        env_cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        actions = [0, 1, 0, 1]
        tapes = episode_replay(diamond, two_device, params, actions, env_cfg)()
        loss, grads = policy_backward(tapes, actions, [0.0] * 4, 0.0, params)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_positive_advantage_pushes_sampled_action_up(self, two_device):
        # One step, uniform policy, advantage +1 on action 0: the gradient on
        # the head's output bias must point toward raising logit 0 (for
        # minimization the bias gradient of the sampled action is negative).
        g = make_graph("one", [1.0], [1e6], set())
        cfg = PolicyConfig(num_devices=2, message_rounds=0)
        params = init_policy(cfg, seed=13)
        env_cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        st = reset(g, two_device, env_cfg)
        probs, tape = policy_forward(st, two_device, params)
        _, grads = policy_backward([tape], [0], [1.0], 0.0, params)
        out_bias_grad = grads[-1]
        assert out_bias_grad[0] < 0 < out_bias_grad[1]

    @pytest.mark.parametrize("mode", [FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER])
    def test_gradient_matches_finite_differences(self, diamond, two_device, mode):
        cfg = PolicyConfig(num_devices=2, message_rounds=2, mode=mode)
        params = nudge(init_policy(cfg, seed=3))
        env_cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        actions = [1, 0, 1, 0]
        advantages = [0.5, -1.0, 2.0, 0.3]
        beta = 0.01
        replay = episode_replay(diamond, two_device, params, actions, env_cfg)
        tapes = replay()
        _, grads = policy_backward(tapes, actions, advantages, beta, params)

        def loss_fn(_):
            total = 0.0
            for tape, a, adv in zip(replay(), actions, advantages):
                l, _ = step_loss_and_dlogits(tape, a, adv, beta)
                total += l
            return total

        err = finite_difference_check(
            loss_fn, params.flat_params(), grads, h=1e-5, max_coords=300, rng=np.random.default_rng(0)
        )
        assert err <= 1e-4

    def test_length_mismatch(self, diamond, two_device):
        cfg = PolicyConfig(num_devices=2)
        params = init_policy(cfg, seed=0)
        with pytest.raises(PolicyError):
            policy_backward([], [0], [1.0], 0.0, params)


class TestConfig:
    def test_validation(self):
        with pytest.raises(PolicyError):
            PolicyConfig(num_devices=2, mode="bogus")
        with pytest.raises(PolicyError):
            PolicyConfig(num_devices=2, message_rounds=-1)
        with pytest.raises(PolicyError):
            PolicyConfig(num_devices=0)

    def test_header_round_trip(self):
        cfg = PolicyConfig(num_devices=3, message_rounds=5, mode=SIMPLE_PARTITIONER, head_hidden=32)
        assert PolicyConfig.from_header(cfg.to_header()) == cfg
