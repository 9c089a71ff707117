import json

import numpy as np
import pytest

from placement_opt.neural_primitives import (
    AdamState,
    DenseNet,
    ShapeError,
    adam_step,
    dense_backward,
    dense_forward,
    entropies,
    entropy,
    load_checkpoint,
    make_dense,
    params_from_doc,
    sample_action,
    sample_actions,
    save_checkpoint,
    softmax,
)
from placement_opt.fileio import refusal
from placement_opt.trainer import _step_actions

from conftest import finite_difference_check


class TestDenseForward:
    def test_identity_layer(self):
        net = DenseNet(weights=[np.eye(3)], biases=[np.zeros(3)], activations=["identity"])
        y, _ = dense_forward(net, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(y, [1.0, -2.0, 0.5])

    def test_relu(self):
        net = DenseNet(weights=[np.eye(2)], biases=[np.zeros(2)], activations=["relu"])
        y, _ = dense_forward(net, np.array([-1.0, 2.0]))
        assert np.array_equal(y, [0.0, 2.0])

    def test_two_layer_matches_manual_matrix_math(self):
        net = make_dense(np.random.default_rng(0), [3, 4, 2], ["relu", "identity"])
        x = np.ones(3)
        y, _ = dense_forward(net, x)
        # independent recomputation with plain matrix expressions
        h = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
        expected = net.weights[1] @ h + net.biases[1]
        assert np.allclose(y, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        net = make_dense(np.random.default_rng(0), [3, 2], ["relu"])
        with pytest.raises(ShapeError):
            dense_forward(net, np.ones(4))

    def test_batched(self):
        net = make_dense(np.random.default_rng(1), [3, 2], ["identity"])
        xs = np.random.default_rng(2).normal(size=(5, 3))
        ys, _ = dense_forward(net, xs)
        for i in range(5):
            yi, _ = dense_forward(net, xs[i])
            assert np.allclose(ys[i], yi)


class TestDenseBackward:
    def test_linear_weight_gradient_is_outer_product(self):
        net = DenseNet(weights=[np.random.default_rng(0).normal(size=(2, 3))], biases=[np.zeros(2)], activations=["identity"])
        x = np.array([[1.0, 2.0, 3.0]])
        _, tape = dense_forward(net, x)
        gy = np.array([[0.5, -1.5]])
        (dw, db), gx = dense_backward(net, tape, gy)[0][0], dense_backward(net, tape, gy)[1]
        assert np.allclose(dw, np.outer(gy, x))
        assert np.allclose(db, gy[0])
        assert np.allclose(gx, gy @ net.weights[0])

    def test_relu_blocks_negative_preactivation(self):
        net = DenseNet(weights=[np.eye(2)], biases=[np.zeros(2)], activations=["relu"])
        _, tape = dense_forward(net, np.array([[-1.0, 1.0]]))
        grads, gx = dense_backward(net, tape, np.ones((1, 2)))
        assert gx[0, 0] == 0.0 and gx[0, 1] == 1.0

    def test_vector_grad_refused(self):
        net = DenseNet(weights=[np.eye(2)], biases=[np.zeros(2)], activations=["identity"])
        _, tape = dense_forward(net, np.array([-1.0, 1.0]))
        with pytest.raises(ShapeError, match="batch"):
            dense_backward(net, tape, np.ones(2))

    def test_three_layer_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        net = make_dense(rng, [4, 5, 5, 3], ["relu", "relu", "identity"])
        for p in net.params():
            p += rng.uniform(0.01, 0.05, size=p.shape)  # keep off relu kinks
        x = rng.normal(size=(1, 4))
        target = rng.normal(size=(1, 3))

        def loss_fn(params):
            y, _ = dense_forward(net, x)
            return 0.5 * float(((y - target) ** 2).sum())

        y, tape = dense_forward(net, x)
        param_grads, _ = dense_backward(net, tape, y - target)
        flat = [g for pair in param_grads for g in pair]
        err = finite_difference_check(loss_fn, net.params(), flat, h=1e-5)
        assert err <= 1e-4


def full_tape_forward(net, x, forced=()):
    """dense_forward as it was when its tape kept every pre-activation:
    [x, z_1, h_1, ..., z_L, h_L]. forced holds (layer, index, value) triples
    that overwrite pre-activations before their activation."""
    tape = [np.asarray(x, dtype=np.float64)]
    h = tape[0]
    for i, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        z = h @ w.T + b
        for layer, index, value in forced:
            if layer == i:
                z[index] = value
        tape.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else z
        tape.append(h)
    return h, tape


def full_tape_backward(net, tape, grad_out):
    """dense_backward as it was, masking relu layers with z > 0."""
    grad = np.asarray(grad_out, dtype=np.float64)
    param_grads = [None] * len(net.weights)
    for i in range(len(net.weights) - 1, -1, -1):
        z, h_in = tape[1 + 2 * i], tape[2 * i]
        if net.activations[i] == "relu":
            grad = grad * (z > 0.0)
        param_grads[i] = (grad.T @ h_in, grad.sum(axis=0))
        grad = grad @ net.weights[i]
    return param_grads, grad


class TestSlimTape:
    """The tape keeps each layer's input and the output, and relu layers are
    masked by h > 0: the reverse pass equals the full-tape one bit for bit."""

    @staticmethod
    def zeroed_net(rng, x):
        # Biases cancel some units' products exactly, so their pre-activation
        # is exactly 0.0 on the first input row.
        net = make_dense(rng, [5, 6, 6, 3], ["relu", "relu", "identity"])
        h = x
        for w, b in zip(net.weights[:2], net.biases[:2]):
            products = h @ w.T
            b[:3] = -products[0, :3]
            h = np.maximum(products + b, 0.0)
        return net

    @staticmethod
    def assert_same(a, b):
        (grads_a, gx_a), (grads_b, gx_b) = a, b
        assert np.array_equal(gx_a, gx_b)
        for (dw_a, db_a), (dw_b, db_b) in zip(grads_a, grads_b):
            assert np.array_equal(dw_a, dw_b) and np.array_equal(db_a, db_b)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_exact_zero_preactivations(self, rows):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(rows, 5))
        net = self.zeroed_net(rng, x)
        y, tape = dense_forward(net, x)
        y_full, full = full_tape_forward(net, x)
        assert (full[1][0, :3] == 0.0).all() and (full[3][0, :3] == 0.0).all()
        assert np.array_equal(y, y_full)
        assert len(tape) == 4 and all(np.array_equal(a, b) for a, b in zip(tape, [full[0]] + full[2::2]))
        grad_out = rng.normal(size=y.shape)
        self.assert_same(dense_backward(net, tape, grad_out), full_tape_backward(net, full, grad_out))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_signed_zero_preactivations(self, rows):
        # A matmul plus bias does not produce -0.0 here, so both tapes are
        # built with pre-activations forced to 0.0, -0.0 and tiny values.
        rng = np.random.default_rng(32)
        x = rng.normal(size=(rows, 5))
        net = make_dense(rng, [5, 6, 6, 3], ["relu", "relu", "identity"])
        forced = [(0, (0, 0), -0.0), (0, (0, 1), 0.0), (1, (0, 2), -0.0), (1, (0, 3), 5e-324), (1, (0, 4), -5e-324)]
        _, full = full_tape_forward(net, x, forced)
        assert np.signbit(full[1]).any() and (full[1] == 0.0).sum() >= 2
        slim = [full[0]] + full[2::2]
        grad_out = rng.normal(size=full[-1].shape)
        self.assert_same(dense_backward(net, slim, grad_out), full_tape_backward(net, full, grad_out))


class TestSoftmaxSample:
    def test_symmetric_logits(self):
        rng = np.random.default_rng(0)
        probs = softmax(np.zeros(2))
        a = sample_action(probs, rng.random())
        assert np.allclose(probs, [0.5, 0.5])
        assert np.log(probs[a]) == pytest.approx(np.log(0.5))
        assert entropy(probs) == pytest.approx(np.log(2))

    def test_batch_rows_are_independent(self):
        # Each row is shifted by its own max: rows far apart in scale stay finite.
        logits = np.array([[1000.0, 999.0], [0.0, 1.0], [-800.0, -801.0]])
        probs = softmax(logits)
        for row, p in zip(logits, probs):
            assert np.array_equal(p, softmax(row))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_extreme_logits_stable(self):
        rng = np.random.default_rng(0)
        probs = softmax(np.array([1000.0, 0.0]))
        a = sample_action(probs, rng.random())
        assert a == 0
        assert probs[0] == pytest.approx(1.0)
        assert np.isfinite(np.log(probs[a]))

    def test_empirical_frequencies(self):
        # Monte-Carlo check: sampled frequencies within 3 sigma of the pmf.
        rng = np.random.default_rng(42)
        probs = softmax(np.array([0.3, -0.5, 1.2, 0.0]))
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[sample_action(probs, rng.random())] += 1
        for i in range(4):
            sigma = np.sqrt(n * probs[i] * (1 - probs[i]))
            assert abs(counts[i] - n * probs[i]) <= 3 * sigma

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            logits = rng.normal(scale=10, size=int(rng.integers(2, 8)))
            probs = softmax(logits)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert entropy(probs) >= 0.0
            assert 0 <= sample_action(probs, rng.random()) < len(probs)

    def test_draw_beyond_rounded_cdf_clamps_to_last_action(self):
        # Rounding can leave cumsum(probs)[-1] just below 1; a uniform draw
        # above it must still pick the last action, not index len(probs).
        probs = np.array([0.5, 0.4999])
        assert np.cumsum(probs)[-1] < 0.99995
        assert sample_action(probs, 0.99995) == 1


def _step_rows(rng, m):
    """Seeded probability rows on m devices: softmax rows, rows with exact
    zeros, rows whose maximum is tied, and a row whose cumulative sum
    rounds down below 1 when m allows one."""
    rows = [softmax(rng.normal(scale=3.0, size=m)) for _ in range(4)]
    zeros = softmax(rng.normal(size=m))
    zeros[rng.permutation(m)[: max(1, m // 2)]] = 0.0
    rows.append(zeros)
    tied = np.full(m, 1.0 / m)
    rows.append(tied)
    if m >= 2:
        top = softmax(rng.normal(size=m))
        i, j = rng.permutation(m)[:2]
        top[i] = top[j] = top.max()
        rows.append(top)
        rows.append(np.array([0.5, 0.4999] + [0.0] * (m - 2)))
    return np.array(rows)


def _uniforms(p):
    """0, each cumulative sum, the floats just below and above each, and
    the float above the last sum (which may be rounded down below 1)."""
    c = np.cumsum(p)
    u = [0.0, *c, *np.nextafter(c, 0.0), *np.nextafter(c, 2.0)]
    return [x for x in u if 0.0 <= x < 1.0]


@pytest.mark.parametrize("m", [*range(1, 11), 16, 130])  # 130: past numpy's pairwise-sum block
def test_whole_step_choice_matches_the_one_row_functions_bit_for_bit(m):
    rng = np.random.default_rng(m)
    probs = _step_rows(rng, m)
    got = entropies(probs)
    assert all(type(e) is float for e in got)
    assert np.array(got).tobytes() == np.array([entropy(p) for p in probs]).tobytes()
    for r, p in enumerate(probs):
        us = _uniforms(p)
        # The old one-row draw: the first cumulative sum at or above u.
        want = [min(int(np.searchsorted(np.cumsum(p), u)), m - 1) for u in us]
        assert [sample_action(p, u) for u in us] == want
        many = np.repeat(probs[r : r + 1], len(us), axis=0)
        assert sample_actions(many, np.array(us)).tolist() == want
        # _step_actions mixes greedy (None) and sampled episodes on shared rows.
        picks = [r] * len(us) + list(range(len(probs)))
        u = us + [None] * len(probs)
        assert _step_actions(probs, picks, u) == want + [int(np.argmax(q)) for q in probs]


def test_a_draw_above_every_sum_takes_the_last_action():
    probs = np.array([[0.5, 0.4999], [0.4999, 0.5]])
    assert sample_actions(probs, np.array([0.99995, 0.99999])).tolist() == [1, 1]


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = [np.array([1.0, 2.0]), np.array([[3.0]])]
        state = AdamState.for_params(params, lr=0.1)
        adam_step(params, [np.zeros(2), np.zeros((1, 1))], state)
        assert np.array_equal(params[0], [1.0, 2.0])
        assert state.timestep == 1

    def test_first_step_magnitude_near_lr(self):
        # With bias correction the first update is -lr * g / (|g| + eps).
        params = [np.array([0.0])]
        state = AdamState.for_params(params, lr=0.01)
        adam_step(params, [np.array([3.7])], state)
        assert params[0][0] == pytest.approx(-0.01, rel=1e-6)

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            params = [rng.normal(size=(3, 3))]
            state = AdamState.for_params(params, lr=0.05)
            for _ in range(25):
                adam_step(params, [rng.normal(size=(3, 3))], state)
            return params[0]

        assert np.array_equal(run(), run())

    def test_lr_scale(self):
        params = [np.array([0.0])]
        state = AdamState.for_params(params, lr=0.01)
        adam_step(params, [np.array([1.0])], state, lr_scale=0.5)
        assert params[0][0] == pytest.approx(-0.005, rel=1e-6)

    def test_shape_mismatch(self):
        params = [np.zeros(2)]
        state = AdamState.for_params(params)
        with pytest.raises(ShapeError):
            adam_step(params, [np.zeros(3)], state)


class TestFiniteDifferenceCheck:
    def test_quadratic_loss_tight(self):
        params = [np.array([1.0, -2.0, 0.5]), np.array([[3.0, -1.0]])]

        def loss_fn(ps):
            return 0.5 * sum(float((p**2).sum()) for p in ps)

        grads = [p.copy() for p in params]
        assert finite_difference_check(loss_fn, params, grads, h=1e-5) <= 1e-9

    def test_relu_kink_exclusion(self):
        # A unit sitting exactly at zero pre-activation has one-sided
        # derivatives; the convention grad=0 disagrees with central FD, so
        # the caller excludes that coordinate.
        w = np.array([[1.0]])
        b = np.array([0.0])
        net = DenseNet(weights=[w], biases=[b], activations=["relu"])
        x = np.array([[0.0]])  # pre-activation exactly 0

        def loss_fn(ps):
            y, _ = dense_forward(net, x)
            return float(y.sum())

        _, tape = dense_forward(net, x)
        grads, _ = dense_backward(net, tape, np.ones((1, 1)))
        flat = [grads[0][0], grads[0][1]]
        # bias coordinate straddles the kink: exclude it, weight coord is fine
        exclude = [np.zeros((1, 1), dtype=bool), np.ones(1, dtype=bool)]
        err = finite_difference_check(loss_fn, net.params(), flat, h=1e-5, exclude=exclude)
        assert err <= 1e-9
        # and including it indeed trips the check
        err_all = finite_difference_check(loss_fn, net.params(), flat, h=1e-5)
        assert err_all > 0.1

    def test_sampled_subset(self):
        rng = np.random.default_rng(3)
        params = [rng.normal(size=(20, 20))]
        grads = [params[0].copy()]

        def loss_fn(ps):
            return 0.5 * float((ps[0] ** 2).sum())

        err = finite_difference_check(loss_fn, params, grads, h=1e-5, max_coords=40, rng=rng)
        assert err <= 1e-6


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        params = [rng.normal(size=(3, 4)), rng.normal(size=5)]
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, extra={"note": "x"})
        p2, extra = load_checkpoint(path)
        assert all(np.array_equal(a, b) for a, b in zip(params, p2))
        assert extra["note"] == "x"

    def test_writes_only_format_params_and_extra(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, [np.ones(2)])
        assert set(json.loads(path.read_text())) == {"format", "params", "extra"}

    def test_file_with_optimizer_and_rng_fields_still_loads(self, tmp_path):
        # Checkpoints written before those fields were dropped carry them.
        path = tmp_path / "old.json"
        doc = {
            "format": "placement-opt-checkpoint-v1",
            "params": [{"shape": [2], "data": [1.5, -2.0]}],
            "adam": {"m": [{"shape": [2], "data": [0.0, 0.0]}], "v": [{"shape": [2], "data": [0.0, 0.0]}],
                     "timestep": 3, "lr": 1.0, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
            "rng_state": np.random.default_rng(0).bit_generator.state,
            "extra": {"note": "old"},
        }
        path.write_text(json.dumps(doc))
        params, extra = load_checkpoint(path)
        assert len(params) == 1 and np.array_equal(params[0], [1.5, -2.0])
        assert extra == {"note": "old"}

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), True, "1", None])
    def test_a_data_value_at_fault_is_named(self, value):
        doc = [{"shape": [2], "data": [1.5, -2]}, {"shape": [3], "data": [0.0, value, float("nan")]}]
        with pytest.raises(ValueError) as e:
            params_from_doc(doc)
        assert str(e.value) == refusal("checkpoint params[1]", "data", value, "a finite number")

    def test_data_values_load_as_the_floats_they_name(self):
        data = [0, -1, 2**63 + 1, -(2**70), 1.5, -0.0, 5e-324, 1.7976931348623157e308, 10**308]
        (values,) = params_from_doc([{"shape": [len(data)], "data": data}])
        assert values.dtype == np.float64 and values.tobytes() == np.array([float(x) for x in data]).tobytes()
