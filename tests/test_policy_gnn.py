import tracemalloc

import numpy as np
import pytest

from placement_opt import datagen, policy_gnn
from placement_opt.graph_core import ComputationGraph, OpGroup, reachability, relation_id_arrays
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
    policy_from_params,
    pool_and_decide,
)

from conftest import (
    episode_states,
    finite_difference_check,
    forward_one,
    make_graph,
    make_topology,
    random_dag,
    step_loss,
)


def nudge(params, seed=99, lo=0.01, hi=0.05):
    # keep every relu pre-activation away from exactly zero
    rng = np.random.default_rng(seed)
    for p in params.flat_params():
        p += rng.uniform(lo, hi, size=p.shape)
    return params


def embed_one(features, graph, params):
    """embed over one graph: the disjoint union of a batch of one."""
    return embed(features, policy_gnn._batch([graph], [0]), params)


def pool_one(emb, sets, v, params):
    """pool_and_decide for one state given as three id lists and its current
    row; returns logits (D,)."""
    groupings = [policy_gnn._grouping(np.array([len(ids)]), np.array(ids, dtype=np.intp)) for ids in sets]
    logits, _ = pool_and_decide(emb, groupings, np.array([v]), params)
    return logits[0]


class TestEmbed:
    def test_zero_rounds_is_concatenated_raw(self, diamond, two_device):
        cfg = PolicyConfig(num_devices=2, message_rounds=0)
        params = init_policy(cfg, seed=0)
        st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        feats = featurize(st, two_device)
        emb, _ = embed_one(feats, diamond, params)
        assert np.array_equal(emb, np.concatenate([feats, feats], axis=1))

    def test_isolated_node_stream_recurrence(self, two_device):
        # With no neighbors both streams evolve as g(concat(x, 0)) each round.
        g = make_graph("one", [2.0], [1e6], set())
        cfg = PolicyConfig(num_devices=2, message_rounds=3)
        params = init_policy(cfg, seed=1)
        st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        feats = featurize(st, two_device)
        emb, _ = embed_one(feats, g, params)
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
            emb, _ = embed_one(feats, g, params)
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
            pemb, _ = embed_one(pfeats, pg, params)
            assert np.max(np.abs(pemb[perm] - emb)) <= 1e-9


def _offsets(counts):
    out = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _grouping(parts, shifts):
    """The grouping that sums, into row b, the rows parts[b] + shifts[b]."""
    counts = np.array([len(p) for p in parts], dtype=np.intp)
    targets = np.flatnonzero(counts)
    sources = np.concatenate(parts).astype(np.intp, copy=False) + np.repeat(shifts, counts)
    return targets, _offsets(counts[targets]), sources


def _per_graph_union(graphs):
    """The (down, up) edge unions built the earlier way: one grouping per
    graph from its parents and children tuples, then each grouping's
    targets, starts and sources shifted into the disjoint union."""

    def union(groupings, target_shifts, source_shifts):
        if len(groupings) == 1:
            return groupings[0]
        targets, starts, sources = zip(*groupings)
        groups = np.array([len(t) for t in targets], dtype=np.intp)
        edges = np.array([len(s) for s in sources], dtype=np.intp)
        return (
            np.concatenate(targets) + np.repeat(target_shifts, groups),
            np.concatenate(starts) + np.repeat(_offsets(edges), groups),
            np.concatenate(sources) + np.repeat(source_shifts, edges),
        )

    starts = _offsets(np.array([g.num_nodes for g in graphs], dtype=np.intp))
    return tuple(
        union([_grouping(lists(g), np.zeros(g.num_nodes, dtype=np.intp)) for g in graphs], starts, starts)
        for lists in (lambda g: g.parents, lambda g: g.children)
    )


class TestBatch:
    def test_groupings_equal_the_per_graph_references(self):
        # The edge unions equal the per-graph groupings shifted; each pooled
        # set equals the states' relation_id_arrays shifted and concatenated.
        rng = np.random.default_rng(14)
        one = make_graph("one", [1.0], [1e6], set())
        edgeless = make_graph("edgeless", [1.0, 2.0, 3.0], [1e6, 0.0, 2e6], set())
        diamond = make_graph("diamond", [1, 2, 2, 1], [2e6, 0, 2e6, 0], {(0, 1), (0, 2), (1, 3), (2, 3)})
        blocks = datagen.generate_family(datagen.FamilySpec(family="branch_blocks", count=2, blocks=2, seed=4))[0]
        dags = [random_dag(rng, max_nodes=12, edge_prob=0.3) for _ in range(4)]
        batches = [[one], [edgeless], [diamond], [one, edgeless], [edgeless, one, edgeless],
                   [diamond, one, blocks, edgeless, *dags], [blocks, blocks, one, *dags[::-1]]]
        picks = [lambda g: 0, lambda g: g.num_nodes // 2, lambda g: g.num_nodes - 1,
                 lambda g: int(rng.integers(g.num_nodes))]
        for batch in batches:
            starts = _offsets(np.array([g.num_nodes for g in batch], dtype=np.intp))
            edge_unions = _per_graph_union(batch)
            for pick in picks:
                nodes = [pick(g) for g in batch]
                got = policy_gnn._batch(batch, nodes)
                relations = [relation_id_arrays(reachability(g), v) for g, v in zip(batch, nodes)]
                want_pool = [_grouping([r[k] for r in relations], starts) for k in range(3)]
                for got_grouping, want in zip((got.down, got.up, *got.pool), (*edge_unions, *want_pool)):
                    assert len(got_grouping) == len(want) == 3
                    for a, b in zip(got_grouping, want):
                        assert a.dtype == np.intp and np.array_equal(a, b)
                assert np.array_equal(got.current, starts + nodes) and np.array_equal(got.starts, starts)
                assert got.rows == sum(g.num_nodes for g in batch)

    def test_first_forward_on_a_large_graph_stays_small(self):
        # A graph caches its reachability bitsets, about n² bits, and the pooled
        # sets are unpacked per pass. The first forward over a cold 1,387-node
        # graph peaked at 2.9 MB traced; with n(n-1) relation ids cached per
        # graph it peaked at 18.9 MB (numpy 2.4, Python 3.11).
        spec = datagen.FamilySpec(family="branch_blocks", count=2, blocks=128, branches_lo=2, branches_hi=4,
                                  branch_ops_lo=2, branch_ops_hi=4, seed=1000)
        graph = datagen.generate_family(spec)[0]
        assert graph.num_nodes == 1387
        topo = make_topology(2)
        params = init_policy(PolicyConfig(num_devices=2, message_rounds=3), seed=0)
        state = reset(graph, topo, RewardConfig(mode="terminal"))
        tracemalloc.start()
        try:
            policy_forward([state], topo, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, f"peak {peak / 1e6:.2f} MB"


class TestPoolAndDecide:
    def test_single_node_contexts_are_h_of_zero(self, two_device):
        g = make_graph("one", [1.0], [1e6], set())
        cfg = PolicyConfig(num_devices=2, message_rounds=1)
        params = init_policy(cfg, seed=4)
        st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        policy_forward([st], two_device, params)
        from placement_opt.neural_primitives import dense_forward
        from placement_opt.policy_gnn import _forward

        emb = _forward([st], params)[1]["embed"]["emb"]
        logits = pool_one(emb, ([], [], []), 0, params)
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
        ids = list(range(g.num_nodes - 1))
        l1 = pool_one(emb, (ids, [], []), g.num_nodes - 1, params)
        l2 = pool_one(emb, (ids[::-1], [], []), g.num_nodes - 1, params)
        assert np.max(np.abs(l1 - l2)) <= 1e-12

    def test_swapping_parallel_and_child_changes_logits(self, two_device):
        # With structure-aware pooling, moving features between a parallel
        # node and a child changes the decision in general.
        g = make_graph("d", [1, 2, 3, 4], [1e6, 2e6, 3e6, 4e6], {(0, 1), (0, 2), (1, 3), (2, 3)})
        cfg = PolicyConfig(num_devices=2, message_rounds=0)
        params = nudge(init_policy(cfg, seed=0))
        rng = np.random.default_rng(7)
        emb = rng.uniform(size=(4, 12))
        # current node v=1: parents {0}, children {3}, parallel {2}
        base = pool_one(emb, ([0], [3], [2]), 1, params)
        swapped_emb = emb.copy()
        swapped_emb[[2, 3]] = emb[[3, 2]]
        swapped = pool_one(swapped_emb, ([0], [3], [2]), 1, params)
        assert np.max(np.abs(base - swapped)) > 1e-6


class TestPolicyForward:
    def test_probabilities_sum_to_one(self, diamond, two_device):
        for mode in (FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER):
            cfg = PolicyConfig(num_devices=2, message_rounds=2, mode=mode)
            params = init_policy(cfg, seed=8)
            st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
            probs, _ = forward_one(st, two_device, params)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_fresh_params_near_uniform(self, diamond, two_device):
        # Small-scale init keeps early logits near zero on a symmetric
        # two-device problem; statistical bound across seeds.
        offsets = []
        st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        for seed in range(20):
            params = init_policy(PolicyConfig(num_devices=2, message_rounds=2), seed=seed)
            probs, _ = forward_one(st, two_device, params)
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
        probs0, _ = forward_one(st0, two_device, params)
        # identical features everywhere: moving the current flag between
        # identical nodes keeps the sum, hence the distribution
        import dataclasses

        st0b = dataclasses.replace(st0, visit_order=(2, 0, 1))  # current node 2
        probs0b, _ = forward_one(st0b, two_device, params)
        assert np.allclose(probs0, probs0b, atol=1e-12)
        # but visiting changes the sum, so st1 may differ
        probs1, _ = forward_one(st1, two_device, params)
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
        pa, _ = forward_one(reset(chain, two_device, env_cfg), two_device, params)
        pb, _ = forward_one(reset(closed, two_device, env_cfg), two_device, params)
        assert np.allclose(pa, pb, atol=1e-12)
        # while with k=1 message passing the extra edge is visible
        cfg1 = PolicyConfig(num_devices=2, message_rounds=1)
        params1 = nudge(init_policy(cfg1, seed=10))
        pa1, _ = forward_one(reset(chain, two_device, env_cfg), two_device, params1)
        pb1, _ = forward_one(reset(closed, two_device, env_cfg), two_device, params1)
        assert not np.allclose(pa1, pb1, atol=1e-9)

    def test_logits_finite_for_extreme_inputs(self, two_device):
        g = make_graph("big", [1e6, 1.0], [1e12, 1.0], {(0, 1)})
        for mode in (FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER):
            cfg = PolicyConfig(num_devices=2, message_rounds=4, mode=mode)
            params = init_policy(cfg, seed=11)
            st = reset(g, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
            probs, _ = forward_one(st, two_device, params)
            assert np.isfinite(probs).all()

    def test_nan_logits_rejected(self, diamond, two_device):
        params = init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0)
        params.nets["head"].biases[-1][0] = np.nan  # set after the constructor's finiteness check
        st = reset(diamond, two_device, RewardConfig(mode="terminal", reward_scale=1.0))
        with pytest.raises(PolicyError, match="non-finite"):
            policy_forward([st], two_device, params)


    def test_topology_must_match_the_policy(self, diamond, two_device):
        # States are featurized for the policy's device count, so a topology
        # of another size is refused before any device id reaches a feature.
        params = init_policy(PolicyConfig(num_devices=2, message_rounds=1), seed=0)
        three = make_topology(3)
        st = reset(diamond, three, RewardConfig(mode="terminal", reward_scale=1.0), init_mode="random", init_seed=4)
        with pytest.raises(PolicyError, match="2 devices, topology has 3"):
            policy_forward([st], three, params)


class TestPolicyBackward:
    def test_zero_advantages_zero_entropy_give_zero_gradient(self, diamond, two_device):
        cfg = PolicyConfig(num_devices=2, message_rounds=2)
        params = init_policy(cfg, seed=12)
        env_cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        actions = [0, 1, 0, 1]
        states = episode_states(diamond, two_device, actions, env_cfg)
        loss, grads = policy_backward(states, actions, [0.0] * 4, 0.0, params)
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
        _, state = forward_one(st, two_device, params)
        _, grads = policy_backward([state], [0], [1.0], 0.0, params)
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
        states = episode_states(diamond, two_device, actions, env_cfg)
        _, grads = policy_backward(states, actions, advantages, beta, params)

        def loss_fn(_):
            probs = policy_forward(states, two_device, params)
            return sum(step_loss(p, a, adv, beta) for p, a, adv in zip(probs, actions, advantages))

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
        for width in (0, -3):
            with pytest.raises(PolicyError, match="'head_hidden'"):
                PolicyConfig(num_devices=2, head_hidden=width)
        # A value JSON cannot hold is shown by its repr.
        with pytest.raises(PolicyError, match="policy key 'num_devices' must be an integer >= 1, not "):
            PolicyConfig(num_devices=np.int64(0))
        assert PolicyConfig(num_devices=2, head_hidden=1).head_hidden == 1

    def test_header_round_trip(self):
        cfg = PolicyConfig(num_devices=3, message_rounds=5, mode=SIMPLE_PARTITIONER, head_hidden=32)
        assert PolicyConfig.from_header(cfg.to_header()) == cfg

    @pytest.mark.parametrize("mode", [FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER])
    @pytest.mark.parametrize("head_hidden", [None, 7])
    def test_policy_from_params_rebuilds_the_nets(self, mode, head_hidden):
        cfg = PolicyConfig(num_devices=3, message_rounds=2, mode=mode, head_hidden=head_hidden)
        params = init_policy(cfg, seed=4)
        rebuilt = policy_from_params(cfg, [p.copy() for p in params.flat_params()])
        assert rebuilt.nets.keys() == params.nets.keys()
        for name, net in params.nets.items():
            assert rebuilt.nets[name].activations == net.activations
        for a, b in zip(rebuilt.flat_params(), params.flat_params(), strict=True):
            assert np.array_equal(a, b)

    def test_policy_from_params_checks_every_shape(self):
        cfg = PolicyConfig(num_devices=2, message_rounds=1)
        flat = init_policy(cfg).flat_params()
        with pytest.raises(PolicyError, match="holds 3 parameter arrays"):
            policy_from_params(cfg, flat[:3])
        with pytest.raises(PolicyError, match=r"parameter 4 has shape \(6,\), its policy header implies \(6, 6\)"):
            policy_from_params(cfg, flat[:4] + [flat[5]] + flat[5:])
        with pytest.raises(PolicyError, match="parameter 0"):
            policy_from_params(PolicyConfig(num_devices=3, message_rounds=1), flat)


def _reference_step_grads(st, action, advantage, beta, params):
    """The unbatched reference: one step's forward with its own tapes over a
    dense adjacency, then the per-step reverse pass. Returns the step's
    probabilities and its gradient list aligned with params.flat_params()."""
    from placement_opt.graph_core import relation_sets
    from placement_opt.neural_primitives import dense_backward, dense_forward, softmax

    cfg = params.config
    nets = params.nets
    offsets = params.net_offsets()
    grads = [np.zeros_like(p) for p in params.flat_params()]

    def acc(name, net_grads):
        for i, (dw, db) in enumerate(net_grads):
            grads[offsets[name] + 2 * i] += dw
            grads[offsets[name] + 2 * i + 1] += db

    graph, feats, v = st.graph, featurize(st, make_topology(cfg.num_devices)), st.current_node
    n, f = feats.shape
    sets = relation_sets(reachability(graph), v)
    adj = {"down": np.zeros((n, n)), "up": np.zeros((n, n))}
    for u, w in graph.edges:
        adj["down"][w, u] = 1.0
        adj["up"][u, w] = 1.0
    if cfg.mode == "full":
        streams, rounds = {"down": feats, "up": feats}, []
        for _ in range(cfg.message_rounds):
            record_round = {}
            for d in ("down", "up"):
                fout, ftape = dense_forward(nets[f"f_{d}"], streams[d])
                streams[d], gtape = dense_forward(nets[f"g_{d}"], np.concatenate([streams[d], adj[d] @ fout], axis=1))
                record_round[d] = (ftape, gtape)
            rounds.append(record_round)
        emb = np.concatenate([streams["down"], streams["up"]], axis=1)
        pieces, pool = [emb[v : v + 1]], []
        for name, ids in zip(("parents", "children", "parallel"), sets):
            lout, ltape = dense_forward(nets[f"l_{name}"], emb)
            pooled = lout[ids].sum(axis=0, keepdims=True) if ids else np.zeros((1, 2 * f))
            ctx, htape = dense_forward(nets[f"h_{name}"], pooled)
            pool.append((name, ids, ltape, htape))
            pieces.append(ctx)
    elif cfg.mode == "simple_aggregator":
        z, atape = dense_forward(nets["agg"], feats.sum(axis=0, keepdims=True))
        pieces = None
    else:
        pieces, agg = [feats[v : v + 1]], []
        for name, ids in zip(("parents", "children", "parallel"), sets):
            pooled = feats[ids].sum(axis=0, keepdims=True) if ids else np.zeros((1, f))
            ctx, atape = dense_forward(nets[f"agg_{name}"], pooled)
            agg.append((name, atape))
            pieces.append(ctx)
    logits, head_tape = dense_forward(nets["head"], np.concatenate(pieces, axis=1) if pieces is not None else z)
    probs = softmax(logits[0])
    logp = np.log(np.where(probs > 0.0, probs, 1.0))
    dlogits = advantage * (probs - np.eye(len(probs))[action]) + beta * probs * (logp - (probs * logp).sum())
    head_grads, dhead = dense_backward(nets["head"], head_tape, dlogits[None])
    acc("head", head_grads)
    if cfg.mode == "simple_aggregator":
        acc("agg", dense_backward(nets["agg"], atape, dhead)[0])
    elif cfg.mode == "simple_partitioner":
        for k, (name, atape) in enumerate(agg):
            acc(f"agg_{name}", dense_backward(nets[f"agg_{name}"], atape, dhead[:, (k + 1) * f : (k + 2) * f])[0])
    else:
        e = 2 * f
        demb = np.zeros((n, e))
        demb[v] += dhead[0, :e]
        for k, (name, ids, ltape, htape) in enumerate(pool):
            h_grads, ds = dense_backward(nets[f"h_{name}"], htape, dhead[:, (k + 1) * e : (k + 2) * e])
            acc(f"h_{name}", h_grads)
            dlout = np.zeros((n, e))
            if ids:
                dlout[ids] = ds
            l_grads, demb_l = dense_backward(nets[f"l_{name}"], ltape, dlout)
            acc(f"l_{name}", l_grads)
            demb += demb_l
        d_streams = {"down": demb[:, :f], "up": demb[:, f:]}
        for record_round in reversed(rounds):
            for d in ("down", "up"):
                ftape, gtape = record_round[d]
                g_grads, dgin = dense_backward(nets[f"g_{d}"], gtape, d_streams[d])
                acc(f"g_{d}", g_grads)
                f_grads, dx = dense_backward(nets[f"f_{d}"], ftape, adj[d].T @ dgin[:, f:])
                acc(f"f_{d}", f_grads)
                d_streams[d] = dgin[:, :f] + dx
    return probs, grads


def _episode_records(graph, topology, params, seed):
    """States, actions and the probabilities the rollout used, of one sampled
    episode from a random initial placement."""
    import placement_opt.trainer as trainer

    env_cfg = RewardConfig(mode="intermediate")
    used, original = [], trainer.policy_forward
    with pytest.MonkeyPatch.context() as m:
        m.setattr(trainer, "policy_forward", lambda *args: used.append(original(*args)) or used[-1])
        (trace,) = trainer.rollout(params, [graph], topology, env_cfg, [np.random.default_rng(seed)],
                                   init_mode="random", randomize_order=True)
    return trace.states, trace.actions, np.concatenate(used)


def _assert_close_per_tensor(grads, expected, tol=1e-12):
    for g, r in zip(grads, expected):
        scale = max(np.max(np.abs(r)), 1e-300)
        assert np.max(np.abs(g - r)) <= tol * scale


class TestBatchedExactness:
    """The batched passes against per-state references, within 1e-12."""

    GRAPHS = {
        "diamond": lambda: make_graph("diamond", [1, 2, 2, 1], [2e6, 0, 2e6, 0], {(0, 1), (0, 2), (1, 3), (2, 3)}),
        "one": lambda: make_graph("one", [1.0], [1e6], set()),
        "random9": lambda: random_dag(np.random.default_rng(9), max_nodes=9, bytes_range=(0.1, 4e6)),
        "branch_blocks": lambda: datagen.generate_family(
            datagen.FamilySpec(family="branch_blocks", count=2, blocks=2, branches_lo=2, branches_hi=3, seed=4)
        )[0],
    }

    @pytest.mark.parametrize("mode", [FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_backward_matches_per_step_reference(self, two_device, mode, graph):
        g = self.GRAPHS[graph]()
        params = nudge(init_policy(PolicyConfig(num_devices=2, message_rounds=3, mode=mode), seed=21), lo=-0.05)
        steps, actions, used = _episode_records(g, two_device, params, seed=5)
        rng = np.random.default_rng(6)
        advantages = rng.normal(size=len(steps))
        beta = 0.01
        _, grads = policy_backward(steps, actions, advantages, beta, params)
        expected = [np.zeros_like(p) for p in params.flat_params()]
        for st, a, adv, p in zip(steps, actions, advantages, used):
            probs, step_grads = _reference_step_grads(st, a, adv, beta, params)
            assert np.max(np.abs(probs - p)) <= 1e-12
            for acc, gi in zip(expected, step_grads):
                acc += gi
        _assert_close_per_tensor(grads, expected)

    @pytest.mark.parametrize("mode", [FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER])
    def test_steps_of_several_graphs_in_one_call(self, two_device, mode):
        # One backward over the steps of four episodes on different graphs
        # equals the sum of the four per-episode backwards.
        params = nudge(init_policy(PolicyConfig(num_devices=2, message_rounds=2, mode=mode), seed=22), lo=-0.05)
        episodes = [_episode_records(self.GRAPHS[name](), two_device, params, seed=k)[:2]
                    for k, name in enumerate(sorted(self.GRAPHS))]
        rng = np.random.default_rng(7)
        advantages = [rng.normal(size=len(steps)) for steps, _ in episodes]
        expected = [np.zeros_like(p) for p in params.flat_params()]
        for (steps, actions), adv in zip(episodes, advantages):
            for acc, gi in zip(expected, policy_backward(steps, actions, adv, 0.02, params)[1]):
                acc += gi
        all_steps = [s for steps, _ in episodes for s in steps]
        all_actions = [a for _, actions in episodes for a in actions]
        _, grads = policy_backward(all_steps, all_actions, np.concatenate(advantages), 0.02, params)
        _assert_close_per_tensor(grads, expected)

    def test_row_budget_splits_the_rematerialized_batch(self, two_device, monkeypatch):
        import placement_opt.policy_gnn as policy_gnn

        g = self.GRAPHS["branch_blocks"]()
        params = nudge(init_policy(PolicyConfig(num_devices=2, message_rounds=3), seed=23), lo=-0.05)
        steps, actions, _ = _episode_records(g, two_device, params, seed=8)
        advantages = np.random.default_rng(9).normal(size=len(steps))
        loss, whole = policy_backward(steps, actions, advantages, 0.01, params)
        chunks = []
        monkeypatch.setattr(policy_gnn, "MAX_BATCH_ROWS", 3 * g.num_nodes)
        original = policy_gnn._forward
        monkeypatch.setattr(policy_gnn, "_forward", lambda s, p: chunks.append(len(s)) or original(s, p))
        chunked_loss, chunked = policy_backward(steps, actions, advantages, 0.01, params)
        assert chunks == [3] * (len(steps) // 3) + ([len(steps) % 3] if len(steps) % 3 else [])
        assert abs(chunked_loss - loss) <= 1e-12 * abs(loss)
        _assert_close_per_tensor(chunked, whole)

    @pytest.mark.parametrize("mode", [FULL, SIMPLE_AGGREGATOR, SIMPLE_PARTITIONER])
    def test_forward_over_a_sequence_matches_single_states(self, two_device, mode):
        params = nudge(init_policy(PolicyConfig(num_devices=2, message_rounds=3, mode=mode), seed=24), lo=-0.05)
        env_cfg = RewardConfig(mode="terminal", reward_scale=1.0)
        rng = np.random.default_rng(10)
        states = []
        for name in sorted(self.GRAPHS) * 2:
            st = reset(self.GRAPHS[name](), two_device, env_cfg, init_mode="random", init_seed=len(states))
            for _ in range(int(rng.integers(st.graph.num_nodes))):
                st, _, _ = step(st, int(rng.integers(2)), two_device, env_cfg)
            states.append(st)
        probs = policy_forward(states, two_device, params)
        assert probs.shape == (len(states), 2)
        for st, row in zip(states, probs):
            single, _ = forward_one(st, two_device, params)
            assert np.max(np.abs(row - single)) <= 1e-12
