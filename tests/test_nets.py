"""Neural kernel: forward/backward correctness, Adam steps, spectral norm."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_ope import nets
from robust_ope.data import LoggedDataset
from robust_ope.estimators import train_direct_model
from robust_ope.nets import (
    AdamState,
    DimensionError,
    FeedForwardNet,
    Layer,
    SgdConfig,
    TrainingFault,
    action_inputs,
    adam_step,
    fit,
    forward_actions,
    forward_batch,
    init_net,
    spectral_normalize_net,
)
from robust_ope.policies import UniformPolicy, estimate_logging_policy
from robust_ope.robust_regression import train_robust
from tests.oracles import backward


def identity_layer(dim):
    return Layer(weight=np.eye(dim), bias=np.zeros(dim))


def step(grads, config, state):
    """One `adam_step` on the (dW, db) pairs `grads`, written into the
    gradient buffer the way backprop writes it."""
    for pair, views in zip(grads, state.grads):
        for grad, view in zip(pair, views):
            view[...] = grad
    adam_step(config, state)


class TestForward:
    def test_identity_layer_passthrough(self):
        # the last layer has no relu
        net = FeedForwardNet([identity_layer(2)])
        assert np.array_equal(forward_batch(net, [[-1.0, 2.0]])[0],
                              [-1.0, 2.0])

    def test_relu_zeroes_negative(self):
        # relu follows every layer but the last
        net = FeedForwardNet([identity_layer(2), identity_layer(2)])
        assert np.array_equal(forward_batch(net, [[-1.0, 3.0]])[0], [0.0, 3.0])

    def test_two_layer_hand_computation(self):
        # layer 1: relu(W1 x + b1), W1 = [[1, 2], [0, -1]], b1 = [0.5, 0]
        # layer 2: W2 h + b2,       W2 = [[1, 1]],          b2 = [-1]
        # x = [1, 1]: z1 = [3.5, -1] -> h = [3.5, 0] -> y = 3.5 - 1 = 2.5
        net = FeedForwardNet([
            Layer(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 0.0])),
            Layer(np.array([[1.0, 1.0]]), np.array([-1.0])),
        ])
        assert np.allclose(forward_batch(net, [[1.0, 1.0]])[0], [2.5])

    def test_dimension_mismatch_rejected(self):
        net = FeedForwardNet([identity_layer(2)])
        with pytest.raises(DimensionError):
            forward_batch(net, [[1.0, 2.0, 3.0]])

    def test_forward_is_pure(self):
        rng = np.random.default_rng(3)
        net = init_net([4, 8, 2], rng)
        x = rng.standard_normal(4)
        a = forward_batch(net, [x])[0]
        b = forward_batch(net, [x])[0]
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        net = init_net([3, 5, 2], rng)
        xs = rng.standard_normal((6, 3))
        batch = forward_batch(net, xs)
        for i in range(6):
            assert np.allclose(batch[i], forward_batch(net, xs[i:i + 1])[0])

    @pytest.mark.parametrize("dims", [
        [22, 64, 64, 64, 1], [74, 64, 64, 64, 1],  # DM nets
        [22, 64, 64, 64], [74, 64, 64, 64],  # robust and iid nets
        [18, 64, 64, 64, 4], [64, 64, 64, 64, 10],  # classifiers
    ], ids=lambda dims: "-".join(map(str, dims)))
    def test_trace_keeps_layer_inputs_and_the_bits(self, dims):
        # training runs this traced pass: its output is the read's, bit for
        # bit, and the trace holds the input, then each hidden relu output
        rng = np.random.default_rng(20)
        net = init_net(dims, rng)
        for layer in net.layers:
            layer.bias = rng.standard_normal(layer.bias.shape)
        x = rng.standard_normal((32, dims[0]))
        trace = []
        out = forward_batch(net, x, trace)
        assert np.array_equal(out, forward_batch(net, x))
        assert len(trace) == len(net.layers) and trace[0] is x
        for h, layer, z in zip(trace, net.layers, trace[1:] + [out]):
            ref = h @ layer.weight.T + layer.bias
            if z is not out:
                ref = np.maximum(ref, 0.0)
            assert np.array_equal(z, ref)


def random_action_net(rng, d, n_actions, dims):
    """A net on (context, one-hot action) inputs with nonzero biases."""
    net = init_net([d + n_actions, *dims], rng)
    for layer in net.layers:
        layer.bias = rng.standard_normal(layer.bias.shape)
    return net


class TestForwardActions:
    def test_action_inputs_layout(self):
        out = action_inputs([[1.0, 2.0], [3.0, 4.0]], [2, 0], 3)
        assert np.array_equal(out, [[1.0, 2.0, 0.0, 0.0, 1.0],
                                    [3.0, 4.0, 1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("dims", [[16, 16, 1], [16, 8]],
                             ids=["one-output", "k-features"])
    def test_each_action_equals_forward_batch(self, dims):
        # exact at batch sizes where BLAS runs its blocked matmul kernel,
        # which sums each product in column order; see the small-batch test
        rng = np.random.default_rng(3)
        d, k, n = 6, 4, 100
        net = random_action_net(rng, d, k, dims)
        contexts = rng.standard_normal((n, d))
        outs = forward_actions(net, contexts, k)
        m = dims[-1]
        assert outs.shape == (n, k * m)
        for a in range(k):
            ref = forward_batch(net, action_inputs(contexts, np.full(n, a), k))
            assert np.array_equal(outs[:, a * m:(a + 1) * m], ref)

    def test_small_batch_equals_forward_batch_to_rounding(self):
        rng = np.random.default_rng(4)
        net = random_action_net(rng, 20, 5, [32, 1])
        contexts = rng.standard_normal((2, 20))
        outs = forward_actions(net, contexts, 5)
        for a in range(5):
            ref = forward_batch(net, action_inputs(contexts, [a, a], 5))
            assert np.allclose(outs[:, a:a + 1], ref, rtol=1e-13, atol=1e-13)

    def test_wrong_context_width_raises(self):
        net = random_action_net(np.random.default_rng(5), 3, 2, [4, 1])
        with pytest.raises(DimensionError):
            forward_actions(net, np.zeros((4, 4)), 2)
        with pytest.raises(DimensionError):
            forward_actions(net, np.zeros(3), 2)


class TestBackward:
    def test_linear_layer_weight_gradient_is_outer_product(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        net = FeedForwardNet([Layer(w, np.zeros(2))])
        x = np.array([2.0, -1.0])
        g = np.array([1.0, 0.5])
        grads = backward(net, [x], [g])
        assert np.allclose(grads[0][0], np.outer(g, x))
        assert np.allclose(grads[0][1], g)

    def test_zero_output_gradient_gives_zero_gradients(self):
        rng = np.random.default_rng(5)
        net = init_net([4, 6, 3], rng)
        grads = backward(net, [rng.standard_normal(4)], [np.zeros(3)])
        for dw, db in grads:
            assert not np.any(dw) and not np.any(db)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        net = init_net([5, 7, 3], rng)
        x = rng.standard_normal(5)
        v = rng.standard_normal(3)  # loss = v . net(x)
        grads = backward(net, [x], [v])
        h = 1e-6
        for li, layer in enumerate(net.layers):
            for idx in np.ndindex(layer.weight.shape):
                orig = layer.weight[idx]
                layer.weight[idx] = orig + h
                up = float(v @ forward_batch(net, [x])[0])
                layer.weight[idx] = orig - h
                dn = float(v @ forward_batch(net, [x])[0])
                layer.weight[idx] = orig
                fd = (up - dn) / (2 * h)
                ana = grads[li][0][idx]
                assert abs(ana - fd) <= 1e-4 * max(1e-6, abs(ana), abs(fd))

    def test_batch_gradients_sum_over_records(self):
        rng = np.random.default_rng(7)
        net = init_net([3, 4, 2], rng)
        xs = rng.standard_normal((5, 3))
        gs = rng.standard_normal((5, 2))
        batch_grads = backward(net, xs, gs)
        acc = [(np.zeros_like(l.weight), np.zeros_like(l.bias))
               for l in net.layers]
        for i in range(5):
            grads = backward(net, xs[i:i + 1], gs[i:i + 1])
            for (aw, ab), (dw, db) in zip(acc, grads):
                aw += dw
                ab += db
        for (aw, ab), (bw, bb) in zip(acc, batch_grads):
            assert np.allclose(aw, bw) and np.allclose(ab, bb)


class TestSgdStep:
    """The one optimizer step, `adam_step`, under an `SgdConfig`."""

    def test_zero_gradient_leaves_net_unchanged(self):
        rng = np.random.default_rng(8)
        net = init_net([3, 4, 1], rng)
        before = [(l.weight.copy(), l.bias.copy()) for l in net.layers]
        zeros = [(np.zeros_like(l.weight), np.zeros_like(l.bias))
                 for l in net.layers]
        step(zeros, SgdConfig(), AdamState.for_net(net))
        for (bw, bb), l in zip(before, net.layers):
            assert np.array_equal(bw, l.weight)
            assert np.array_equal(bb, l.bias)

    def test_quadratic_loss_decreases_monotonically(self):
        # loss = 0.5 * (net(x) - y)^2 on a single linear layer
        net = FeedForwardNet([Layer(np.array([[2.0]]), np.zeros(1))])
        config = SgdConfig(learning_rate=0.05)
        state = AdamState.for_net(net)
        x, y = np.array([1.0]), 0.0
        losses = []
        for _ in range(3):
            pred = forward_batch(net, [x])[0, 0]
            losses.append(0.5 * (pred - y) ** 2)
            grads = backward(net, [x], [[pred - y]])
            step(grads, config, state)
        assert losses[0] > losses[1] > losses[2]

    def test_non_finite_gradient_is_training_fault(self):
        net = FeedForwardNet([identity_layer(1)])
        with pytest.raises(TrainingFault):
            step([(np.array([[np.nan]]), np.zeros(1))], SgdConfig(),
                 AdamState.for_net(net))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=float("nan"))
        with pytest.raises(ValueError):
            SgdConfig(epochs=0)

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 2.5, "epochs must be an integer"),
        ("epochs", "3", "epochs must be an integer"),
        ("epochs", np.float64(2.0), "epochs must be an integer"),
        ("batch_size", float("nan"), "batch_size must be an integer"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", None, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),
    ])
    def test_count_fields_rejected(self, field, value, message):
        # `fit` counts epochs and minibatches and seeds its generator with
        # these, so a bad one fails here, not mid-fit
        with pytest.raises(ValueError, match=message):
            SgdConfig(**{field: value})
        # numpy integers are integers
        config = SgdConfig(**{field: np.int64(3)})
        assert getattr(config, field) == 3


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # with bias correction the first Adam step is ~lr * sign(grad)
        net = FeedForwardNet([Layer(np.array([[1.0]]), np.zeros(1))])
        config = SgdConfig(learning_rate=0.01)
        state = AdamState.for_net(net)
        step([(np.array([[3.0]]), np.zeros(1))], config, state)
        assert np.allclose(net.layers[0].weight, [[1.0 - 0.01]], atol=1e-6)

    def test_folded_step_matches_textbook_adam(self):
        # 200 steps on random gradients against Kingma & Ba's algorithm
        # written out on unscaled moments: equal to within rounding
        rng = np.random.default_rng(19)
        net = init_net([5, 7, 3], rng)
        ref = copy.deepcopy(net)
        config = SgdConfig(learning_rate=0.01)
        state = AdamState.for_net(net)
        lr, b1, b2, eps = config.learning_rate, 0.9, 0.999, 1e-8
        moments = [[np.zeros_like(a) for a in (l.weight, l.bias) * 2]
                   for l in ref.layers]
        for t in range(1, 201):
            grads = [(rng.standard_normal(l.weight.shape),
                      rng.standard_normal(l.bias.shape)) for l in net.layers]
            step(grads, config, state)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for layer, (dw, db), (mw, mb, vw, vb) in zip(
                    ref.layers, grads, moments):
                mw[:] = b1 * mw + (1 - b1) * dw
                vw[:] = b2 * vw + (1 - b2) * dw ** 2
                mb[:] = b1 * mb + (1 - b1) * db
                vb[:] = b2 * vb + (1 - b2) * db ** 2
                layer.weight -= lr * (mw / c1) / (np.sqrt(vw / c2) + eps)
                layer.bias -= lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        for a, b in zip(net.layers, ref.layers):
            assert np.allclose(a.weight, b.weight, rtol=1e-13, atol=1e-15)
            assert np.allclose(a.bias, b.bias, rtol=1e-13, atol=1e-15)


def spectral_normalize_one(weights, power_vec=None):
    """`spectral_normalize_net` over a one-layer net holding a copy of
    `weights`; returns (normalized weights, updated power vector)."""
    weights = np.array(weights, dtype=float)
    net = FeedForwardNet([Layer(weights, np.zeros(weights.shape[0]))])
    power_vecs = [power_vec]
    spectral_normalize_net(net, power_vecs)
    return net.layers[0].weight, power_vecs[0]


class TestSpectralNormalize:
    def test_diagonal_matrix(self):
        normed, _ = spectral_normalize_one(np.diag([2.0, 1.0]))
        assert np.allclose(normed, np.diag([1.0, 0.5]), atol=1e-2)

    def test_identity_unchanged(self):
        normed, _ = spectral_normalize_one(np.eye(3))
        assert np.allclose(normed, np.eye(3), atol=1e-2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((4, 5))
        a, _ = spectral_normalize_one(w)
        b, _ = spectral_normalize_one(10.0 * w)
        assert np.allclose(a, b, atol=1e-2)

    def test_zero_matrix_passthrough(self):
        normed, _ = spectral_normalize_one(np.zeros((3, 3)))
        assert np.array_equal(normed, np.zeros((3, 3)))

    def test_power_vector_orthogonal_to_columns_passthrough(self):
        # w^T u = 0: no power step can be taken from u
        normed, u = spectral_normalize_one([[1.0, 0.0], [0.0, 0.0]],
                                           power_vec=np.array([0.0, 1.0]))
        assert np.array_equal(normed, [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(u, [0.0, 1.0])

    @staticmethod
    def underflowing_matrix():
        """A 64 x 64 matrix whose one nonzero column is c * u0, with u0 the
        burn-in's start vector: w^T u0 = (c, 0, ...) has a norm, but each
        entry of w v is below the square root of the least subnormal, so
        |w v| underflows to 0. Returns (w, u0)."""
        u0 = np.random.default_rng(0).standard_normal(64)
        u0 /= math.sqrt(u0 @ u0)
        w = np.zeros((64, 64))
        w[:, 0] = 3e-162 * u0
        return w, u0

    def test_underflowing_burn_in_gives_no_estimate(self):
        # without the u_norm guard, u /= 0 raises a RuntimeWarning
        w, _ = self.underflowing_matrix()
        assert nets._spectral_sigma(w)[0] is None

    def test_underflowing_first_step_gives_no_estimate(self):
        # w's one nonzero entry is the least subnormal, and u0's entry
        # there is below 1/2, so w^T u0 underflows to 0 and no power step
        # can be taken; without the v_norm guard, v /= 0 warns
        w = np.zeros((64, 64))
        w[0, 0] = 5e-324
        assert nets._spectral_sigma(w)[0] is None

    def test_underflowing_power_step_passthrough(self):
        # without the sigma guard, u /= 0 raises a RuntimeWarning
        w, u0 = self.underflowing_matrix()
        normed, _ = spectral_normalize_one(w, power_vec=u0)
        assert np.array_equal(normed, w)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(2, 8))
    def test_normalized_spectral_norm_near_one(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, cols))
        normed, _ = spectral_normalize_one(w)
        sigma = np.linalg.svd(normed, compute_uv=False)[0]
        assert abs(sigma - 1.0) <= 1e-2

    def test_persistent_power_vector_converges(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((6, 6))
        _, u = spectral_normalize_one(w)
        normed, _ = spectral_normalize_one(w, power_vec=u)
        sigma = np.linalg.svd(normed, compute_uv=False)[0]
        assert abs(sigma - 1.0) <= 1e-2

    @staticmethod
    def burn_in_reference(w):
        """The first-call burn-in written out: w^T u formed afresh each
        iteration and the estimate read as u @ w @ v."""
        u = np.random.default_rng(0).standard_normal(w.shape[0])
        u /= math.sqrt(u @ u)
        sigma_prev = None
        for _ in range(2000):
            v = w.T @ u
            v /= math.sqrt(v @ v)
            u = w @ v
            u /= math.sqrt(u @ u)
            sigma = float(u @ w @ v)
            if sigma_prev is not None and abs(sigma - sigma_prev) \
                    <= 1e-12 * abs(sigma):
                break
            sigma_prev = sigma
        return w / sigma, u

    @pytest.mark.parametrize("shape", [(64, 22), (64, 64), (64, 74),
                                       (1, 64), (10, 64)])
    def test_burn_in_matches_written_out_loop(self, shape):
        # the shapes of the benchmark nets' layers, bit for bit
        for seed in range(3):
            rng = np.random.default_rng(seed)
            bound = 1.0 / np.sqrt(shape[1])
            w = rng.uniform(-bound, bound, size=shape)
            normed, u = spectral_normalize_one(w)
            ref_normed, ref_u = self.burn_in_reference(w)
            assert np.array_equal(normed, ref_normed)
            assert np.array_equal(u, ref_u)

    def test_power_step_matches_written_out_step(self):
        # one per-step call: v = w^T u / |w^T u|, u = w v, sigma = |u|,
        # u /= sigma, w /= sigma, bit for bit; sigma equals the
        # u^T w v of the normalized u to rounding
        rng = np.random.default_rng(14)
        net = init_net([22, 64, 64, 1], rng)
        power_vecs = [None] * len(net.layers)
        spectral_normalize_net(net, power_vecs)
        for layer in net.layers:
            layer.weight += 0.01 * rng.standard_normal(layer.weight.shape)
        before = [(l.weight.copy(), u.copy())
                  for l, u in zip(net.layers, power_vecs)]
        spectral_normalize_net(net, power_vecs)
        for (w, u), layer, new_u in zip(before, net.layers, power_vecs):
            v = w.T @ u
            v /= math.sqrt(v @ v)
            u = w @ v
            sigma = math.sqrt(u @ u)
            u /= sigma
            assert np.array_equal(new_u, u)
            assert np.array_equal(layer.weight, w / sigma)
            assert sigma == pytest.approx(float(u @ w @ v), rel=1e-14)

    def test_net_normalization_in_place(self):
        rng = np.random.default_rng(12)
        net = init_net([4, 6, 2], rng)
        for layer in net.layers:
            layer.weight *= 7.0
        power_vecs = [None] * len(net.layers)
        spectral_normalize_net(net, power_vecs)
        for layer, u in zip(net.layers, power_vecs):
            sigma = np.linalg.svd(layer.weight, compute_uv=False)[0]
            assert abs(sigma - 1.0) <= 1e-2
            assert u.shape == (layer.weight.shape[0],)


class TestFit:
    def test_one_minibatch_matches_hand_sequence(self):
        rng = np.random.default_rng(13)
        inputs = rng.standard_normal((6, 3))
        targets = rng.standard_normal((6, 2))
        config = SgdConfig(learning_rate=0.01, epochs=1, batch_size=6, seed=3)
        net = fit([5, 2], inputs, lambda out, idx: out - targets[idx], config)

        # one generator draws the weights, then the permutation
        r = np.random.default_rng(config.seed)
        ref = init_net([3, 5, 2], r)
        order = r.permutation(6)
        spectral_normalize_net(ref, [None] * len(ref.layers))
        g = forward_batch(ref, inputs[order]) - targets[order]
        grads = backward(ref, inputs[order], g)
        step(grads, config, AdamState.for_net(ref))
        for a, b in zip(net.layers, ref.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)

    @staticmethod
    def assert_fit_matches_reference(rows, batch_size, epochs):
        """Fit a 3-layer net on `rows` random rows, train a copy with
        per-layer Adam written out here, assert both end bit for bit equal
        and return the number of steps taken."""
        rng = np.random.default_rng(15)
        inputs = rng.standard_normal((rows, 3))
        targets = rng.standard_normal((rows, 2))
        config = SgdConfig(learning_rate=0.01, epochs=epochs,
                           batch_size=batch_size, seed=5)
        net = fit([5, 4, 2], inputs, lambda out, idx: out - targets[idx],
                  config)

        # one generator draws the weights, then each epoch's permutation
        r = np.random.default_rng(config.seed)
        ref = init_net([3, 5, 4, 2], r)
        lr, b1, b2, eps = config.learning_rate, 0.9, 0.999, 1e-8
        moments = [[np.zeros_like(a) for a in (l.weight, l.bias) * 2]
                   for l in ref.layers]
        power_vecs = [None] * len(ref.layers)
        steps = 0
        for _ in range(config.epochs):
            order = r.permutation(rows)
            for start in range(0, rows, config.batch_size):
                idx = order[start:start + config.batch_size]
                spectral_normalize_net(ref, power_vecs)
                g = forward_batch(ref, inputs[idx]) - targets[idx]
                grads = backward(ref, inputs[idx], g)
                steps += 1
                c1, c2 = 1.0 - b1 ** steps, 1.0 - b2 ** steps
                # moments scaled by 1 / (1 - beta), corrections folded in
                lr_t = lr * math.sqrt(c2) / c1 * (1 - b1) / math.sqrt(1 - b2)
                eps_t = eps * math.sqrt(c2 / (1 - b2))
                for layer, (dw, db), (mw, mb, vw, vb) in zip(
                        ref.layers, grads, moments):
                    mw[:] = b1 * mw + dw
                    vw[:] = b2 * vw + dw ** 2
                    mb[:] = b1 * mb + db
                    vb[:] = b2 * vb + db ** 2
                    layer.weight -= lr_t * mw / (np.sqrt(vw) + eps_t)
                    layer.bias -= lr_t * mb / (np.sqrt(vb) + eps_t)
        for a, b in zip(net.layers, ref.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
        return steps

    def test_two_epochs_match_per_layer_reference(self):
        # 2 epochs x 3 minibatches against per-layer Adam and spectral norm
        # written out here, so a weight rebound off the flat buffer after the
        # first step shows
        assert self.assert_fit_matches_reference(6, 2, 2) == 6

    def test_short_last_minibatch_matches_per_layer_reference(self):
        # 7 rows in minibatches of 3: each epoch ends on one row, whose
        # gradient still fills the whole gradient buffer
        assert self.assert_fit_matches_reference(7, 3, 2) == 6

    def test_non_finite_step_changes_no_weight(self, monkeypatch):
        # NaN gradients at step 5 (epoch 1): the fault names the epoch and
        # the net keeps the weights step 5 found, those of steps 1-4 after
        # step 5's spectral norm; the net is caught at `nets.forward_batch`
        rng = np.random.default_rng(17)
        inputs = rng.standard_normal((10, 3))
        nets_run, seen = [], []

        def recording(net, x, trace):
            nets_run.append(net)
            seen.append([(l.weight.copy(), l.bias.copy())
                         for l in net.layers])
            return forward_batch(net, x, trace)

        def output_grads(out, idx):
            return np.full_like(out, np.nan) if len(seen) == 5 else out

        monkeypatch.setattr(nets, "forward_batch", recording)
        with pytest.raises(TrainingFault, match="at epoch 1$"):
            fit([4, 2], inputs, output_grads,
                SgdConfig(epochs=2, batch_size=4, seed=17))
        assert len(seen) == 5
        net = nets_run[0]
        assert all(other is net for other in nets_run)
        assert not np.array_equal(seen[3][0][0], seen[4][0][0])
        for (w, b), layer in zip(seen[4], net.layers):
            assert np.array_equal(w, layer.weight)
            assert np.array_equal(b, layer.bias)

    def test_no_workspace_reachable_from_fitted_net(self, monkeypatch):
        # the gradient, moment and scratch buffers stay with `fit`: neither
        # a fitted net nor its copy or pickle holds a view of them
        states = []

        def recording(config, state):
            states.append(state)
            adam_step(config, state)

        monkeypatch.setattr(nets, "adam_step", recording)
        rng = np.random.default_rng(18)
        net = fit([4, 2], rng.standard_normal((8, 3)), lambda out, idx: out,
                  SgdConfig(epochs=1, batch_size=4, seed=18))
        state = states[0]
        workspace = [state.grad, state.m, state.v, *state.scratch]

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from arrays(item)
            elif hasattr(obj, "__dict__"):
                for item in vars(obj).values():
                    yield from arrays(item)

        for twin in (net, copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            found = list(arrays(twin))
            assert len(found) == 2 * len(net.layers)
            for array in found:
                assert not any(np.shares_memory(array, buffer)
                               for buffer in workspace)
        assert all(np.shares_memory(a, state.params) for a in arrays(net))

    def test_copy_of_fitted_net_owns_its_arrays(self):
        rng = np.random.default_rng(16)
        net = fit([4, 1], rng.standard_normal((8, 3)), lambda out, idx: out,
                  SgdConfig(epochs=1, batch_size=4, seed=16))
        buffer = net.layers[0].weight.base
        assert buffer is not None
        assert all(a.base is buffer for l in net.layers
                   for a in (l.weight, l.bias))
        before = [(l.weight.copy(), l.bias.copy()) for l in net.layers]
        twin = copy.deepcopy(net)
        for layer in twin.layers:
            assert not np.shares_memory(layer.weight, buffer)
            assert not np.shares_memory(layer.bias, buffer)
            layer.weight += 1.0
            layer.bias += 1.0
        grads = [(np.ones_like(l.weight), np.ones_like(l.bias))
                 for l in twin.layers]
        step(grads, SgdConfig(), AdamState.for_net(twin))
        for (w, b), layer in zip(before, net.layers):
            assert np.array_equal(w, layer.weight)
            assert np.array_equal(b, layer.bias)
        assert not np.array_equal(twin.layers[0].weight, before[0][0])

    def test_every_step_goes_through_module_adam_step(self, monkeypatch):
        # the bench's `nets.adam_step`, `nets.spectral_norm` and
        # `nets.forward` spans wrap these module attributes, so `fit` must
        # look each up on every step: 3 minibatches x 2 epochs
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(nets, "adam_step", counting(adam_step))
        monkeypatch.setattr(nets, "spectral_normalize_net",
                            counting(spectral_normalize_net))
        monkeypatch.setattr(nets, "forward_batch", counting(forward_batch))
        rng = np.random.default_rng(14)
        fit([4, 1], rng.standard_normal((10, 3)), lambda out, idx: out,
            SgdConfig(epochs=2, batch_size=4, seed=14))
        assert calls == ["spectral_normalize_net", "forward_batch",
                         "adam_step"] * 6

    def test_seed_alone_decides_the_net(self):
        # equal configs give bit-equal nets; another seed, other weights
        rng = np.random.default_rng(21)
        inputs = rng.standard_normal((9, 3))

        def fitted(seed):
            return fit([4, 2], inputs, lambda out, idx: out,
                       SgdConfig(epochs=2, batch_size=4, seed=seed))

        a, b, other = fitted(1), fitted(1), fitted(2)
        for la, lb, lo in zip(a.layers, b.layers, other.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
            assert not np.array_equal(la.weight, lo.weight)

    @pytest.mark.parametrize("trainer", [
        lambda logged, config: estimate_logging_policy(logged, [4], config),
        lambda logged, config: train_direct_model(logged, [4], config),
        lambda logged, config: train_robust(
            logged, UniformPolicy(2), UniformPolicy(2), [4], config),
    ], ids=["classifier", "direct", "robust"])
    def test_fault_names_epoch(self, trainer):
        logged = LoggedDataset(np.zeros((8, 2)), np.arange(8) % 2,
                               np.full(8, 0.5), 2,
                               propensities=np.full(8, 0.5))
        # written after construction, which rejects non-finite contexts
        logged.contexts[3] = np.inf
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingFault, match="at epoch 0$"):
            trainer(logged, SgdConfig(epochs=2, batch_size=4))


class TestInitNet:
    def test_shapes_chain_and_output_identity(self):
        net = init_net([3, 8, 5, 2], np.random.default_rng(0))
        dims = [3, 8, 5, 2]
        for i, layer in enumerate(net.layers):
            assert layer.weight.shape == (dims[i + 1], dims[i])

    def test_weight_bounds(self):
        net = init_net([16, 4], np.random.default_rng(1))
        assert np.all(np.abs(net.layers[0].weight) <= 1.0 / 4.0)

    def test_too_few_dims_rejected(self):
        with pytest.raises(ValueError):
            init_net([3], np.random.default_rng(0))

    def test_net_without_layers_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            FeedForwardNet([])

    @pytest.mark.parametrize("dims", [[0, 4], [3, 0], [3, 4, 0, 2], [3, -1]])
    def test_dim_below_one_rejected(self, dims):
        # a fan-in of 0 would give an infinite init bound
        with pytest.raises(ValueError, match="layer_dims"):
            init_net(dims, np.random.default_rng(0))
