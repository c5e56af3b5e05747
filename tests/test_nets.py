"""Neural kernel: forward/backward correctness, Adam steps, spectral norm."""

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
    adam_step,
    backward,
    backward_batch,
    fit,
    forward,
    forward_batch,
    init_net,
    spectral_normalize,
    spectral_normalize_net,
)
from robust_ope.policies import train_classifier_policy, uniform_policy
from robust_ope.robust_regression import train_robust


def identity_layer(dim, activation="identity"):
    return Layer(weight=np.eye(dim), bias=np.zeros(dim), activation=activation)


class TestForward:
    def test_identity_layer_passthrough(self):
        net = FeedForwardNet([identity_layer(2)])
        assert np.array_equal(forward(net, [1.0, 2.0]), [1.0, 2.0])

    def test_relu_zeroes_negative(self):
        net = FeedForwardNet([identity_layer(2, "relu")])
        assert np.array_equal(forward(net, [-1.0, 3.0]), [0.0, 3.0])

    def test_two_layer_hand_computation(self):
        # layer 1: relu(W1 x + b1), W1 = [[1, 2], [0, -1]], b1 = [0.5, 0]
        # layer 2: W2 h + b2,       W2 = [[1, 1]],          b2 = [-1]
        # x = [1, 1]: z1 = [3.5, -1] -> h = [3.5, 0] -> y = 3.5 - 1 = 2.5
        net = FeedForwardNet([
            Layer(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 0.0]),
                  "relu"),
            Layer(np.array([[1.0, 1.0]]), np.array([-1.0]), "identity"),
        ])
        assert np.allclose(forward(net, [1.0, 1.0]), [2.5])

    def test_dimension_mismatch_rejected(self):
        net = FeedForwardNet([identity_layer(2)])
        with pytest.raises(DimensionError):
            forward(net, [1.0, 2.0, 3.0])

    def test_forward_is_pure(self):
        rng = np.random.default_rng(3)
        net = init_net([4, 8, 2], rng)
        x = rng.standard_normal(4)
        a = forward(net, x)
        b = forward(net, x)
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        net = init_net([3, 5, 2], rng)
        xs = rng.standard_normal((6, 3))
        batch = forward_batch(net, xs)
        for i in range(6):
            assert np.allclose(batch[i], forward(net, xs[i]))


class TestBackward:
    def test_linear_layer_weight_gradient_is_outer_product(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        net = FeedForwardNet([Layer(w, np.zeros(2), "identity")])
        x = np.array([2.0, -1.0])
        g = np.array([1.0, 0.5])
        grads, gin = backward(net, x, g)
        assert np.allclose(grads[0][0], np.outer(g, x))
        assert np.allclose(grads[0][1], g)
        assert np.allclose(gin, g @ w)

    def test_zero_output_gradient_gives_zero_gradients(self):
        rng = np.random.default_rng(5)
        net = init_net([4, 6, 3], rng)
        grads, gin = backward(net, rng.standard_normal(4), np.zeros(3))
        for dw, db in grads:
            assert not np.any(dw) and not np.any(db)
        assert not np.any(gin)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        net = init_net([5, 7, 3], rng)
        x = rng.standard_normal(5)
        v = rng.standard_normal(3)  # loss = v . net(x)
        grads, _ = backward(net, x, v)
        h = 1e-6
        for li, layer in enumerate(net.layers):
            for idx in np.ndindex(layer.weight.shape):
                orig = layer.weight[idx]
                layer.weight[idx] = orig + h
                up = float(v @ forward(net, x))
                layer.weight[idx] = orig - h
                dn = float(v @ forward(net, x))
                layer.weight[idx] = orig
                fd = (up - dn) / (2 * h)
                ana = grads[li][0][idx]
                assert abs(ana - fd) <= 1e-4 * max(1e-6, abs(ana), abs(fd))

    def test_gradient_shape_mismatch_rejected(self):
        net = FeedForwardNet([identity_layer(2)])
        with pytest.raises(DimensionError):
            backward(net, np.zeros(2), np.zeros(3))

    def test_batch_gradients_sum_over_records(self):
        rng = np.random.default_rng(7)
        net = init_net([3, 4, 2], rng)
        xs = rng.standard_normal((5, 3))
        gs = rng.standard_normal((5, 2))
        batch_grads, _ = backward_batch(net, xs, gs)
        acc = [(np.zeros_like(l.weight), np.zeros_like(l.bias))
               for l in net.layers]
        for i in range(5):
            grads, _ = backward(net, xs[i], gs[i])
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
        adam_step(net, zeros, SgdConfig(), AdamState.for_net(net))
        for (bw, bb), l in zip(before, net.layers):
            assert np.array_equal(bw, l.weight)
            assert np.array_equal(bb, l.bias)

    def test_quadratic_loss_decreases_monotonically(self):
        # loss = 0.5 * (net(x) - y)^2 on a single linear layer
        net = FeedForwardNet([Layer(np.array([[2.0]]), np.zeros(1),
                                    "identity")])
        config = SgdConfig(learning_rate=0.05)
        state = AdamState.for_net(net)
        x, y = np.array([1.0]), 0.0
        losses = []
        for _ in range(3):
            pred = forward(net, x)[0]
            losses.append(0.5 * (pred - y) ** 2)
            grads, _ = backward(net, x, np.array([pred - y]))
            adam_step(net, grads, config, state)
        assert losses[0] > losses[1] > losses[2]

    def test_non_finite_gradient_is_training_fault(self):
        net = FeedForwardNet([identity_layer(1)])
        with pytest.raises(TrainingFault):
            adam_step(net, [(np.array([[np.nan]]), np.zeros(1))], SgdConfig(),
                      AdamState.for_net(net))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            SgdConfig(epochs=0)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # with bias correction the first Adam step is ~lr * sign(grad)
        net = FeedForwardNet([Layer(np.array([[1.0]]), np.zeros(1),
                                    "identity")])
        config = SgdConfig(learning_rate=0.01)
        state = AdamState.for_net(net)
        adam_step(net, [(np.array([[3.0]]), np.zeros(1))], config, state)
        assert np.allclose(net.layers[0].weight, [[1.0 - 0.01]], atol=1e-6)


class TestSpectralNormalize:
    def test_diagonal_matrix(self):
        normed, _ = spectral_normalize(np.diag([2.0, 1.0]))
        assert np.allclose(normed, np.diag([1.0, 0.5]), atol=1e-2)

    def test_identity_unchanged(self):
        normed, _ = spectral_normalize(np.eye(3))
        assert np.allclose(normed, np.eye(3), atol=1e-2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((4, 5))
        a, _ = spectral_normalize(w)
        b, _ = spectral_normalize(10.0 * w)
        assert np.allclose(a, b, atol=1e-2)

    def test_zero_matrix_passthrough(self):
        normed, _ = spectral_normalize(np.zeros((3, 3)))
        assert np.array_equal(normed, np.zeros((3, 3)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(2, 8))
    def test_normalized_spectral_norm_near_one(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, cols))
        normed, _ = spectral_normalize(w)
        sigma = np.linalg.svd(normed, compute_uv=False)[0]
        assert abs(sigma - 1.0) <= 1e-2

    def test_persistent_power_vector_converges(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((6, 6))
        _, u = spectral_normalize(w)
        normed, _ = spectral_normalize(w, power_vec=u)
        sigma = np.linalg.svd(normed, compute_uv=False)[0]
        assert abs(sigma - 1.0) <= 1e-2

    def test_net_normalization_in_place(self):
        rng = np.random.default_rng(12)
        net = init_net([4, 6, 2], rng)
        for layer in net.layers:
            layer.weight *= 7.0
        spectral_normalize_net(net)
        for layer in net.layers:
            sigma = np.linalg.svd(layer.weight, compute_uv=False)[0]
            assert abs(sigma - 1.0) <= 1e-2
            assert layer.power_vec is not None


class TestFit:
    def test_one_minibatch_matches_hand_sequence(self):
        rng = np.random.default_rng(13)
        inputs = rng.standard_normal((6, 3))
        targets = rng.standard_normal((6, 2))
        net = init_net([3, 5, 2], rng)
        ref = net.copy()
        config = SgdConfig(learning_rate=0.01, epochs=1, batch_size=6)
        fit(net, inputs, lambda out, idx: out - targets[idx], config,
            np.random.default_rng(0))

        order = np.random.default_rng(0).permutation(6)
        spectral_normalize_net(ref)
        g = forward_batch(ref, inputs[order]) - targets[order]
        grads, _ = backward_batch(ref, inputs[order], g)
        adam_step(ref, grads, config, AdamState.for_net(ref))
        for a, b in zip(net.layers, ref.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)

    def test_two_epochs_match_per_layer_reference(self):
        # 2 epochs x 3 minibatches against per-layer Adam and spectral norm
        # written out here, so a weight rebound off the flat buffer after the
        # first step shows
        rng = np.random.default_rng(15)
        inputs = rng.standard_normal((6, 3))
        targets = rng.standard_normal((6, 2))
        net = init_net([3, 5, 4, 2], rng)
        ref = net.copy()
        config = SgdConfig(learning_rate=0.01, epochs=2, batch_size=2)
        fit(net, inputs, lambda out, idx: out - targets[idx], config,
            np.random.default_rng(0))

        lr, b1, b2, eps = config.learning_rate, 0.9, 0.999, 1e-8
        moments = [[np.zeros_like(a) for a in (l.weight, l.bias) * 2]
                   for l in ref.layers]
        order_rng, step = np.random.default_rng(0), 0
        for _ in range(config.epochs):
            order = order_rng.permutation(6)
            for start in range(0, 6, config.batch_size):
                idx = order[start:start + config.batch_size]
                for layer in ref.layers:
                    layer.weight, layer.power_vec = spectral_normalize(
                        layer.weight, layer.power_vec)
                g = forward_batch(ref, inputs[idx]) - targets[idx]
                grads, _ = backward_batch(ref, inputs[idx], g)
                step += 1
                c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
                for layer, (dw, db), (mw, mb, vw, vb) in zip(
                        ref.layers, grads, moments):
                    mw[:] = b1 * mw + (1 - b1) * dw
                    vw[:] = b2 * vw + (1 - b2) * dw ** 2
                    mb[:] = b1 * mb + (1 - b1) * db
                    vb[:] = b2 * vb + (1 - b2) * db ** 2
                    layer.weight -= lr * (mw / c1) / (np.sqrt(vw / c2) + eps)
                    layer.bias -= lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        assert step == 6
        for a, b in zip(net.layers, ref.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
            assert np.array_equal(a.power_vec, b.power_vec)

    def test_copy_of_fitted_net_owns_its_arrays(self):
        rng = np.random.default_rng(16)
        net = init_net([3, 4, 1], rng)
        fit(net, rng.standard_normal((8, 3)), lambda out, idx: out,
            SgdConfig(epochs=1, batch_size=4), rng)
        buffer = net.layers[0].weight.base
        assert buffer is not None
        assert all(a.base is buffer for l in net.layers
                   for a in (l.weight, l.bias))
        before = [(l.weight.copy(), l.bias.copy()) for l in net.layers]
        twin = net.copy()
        for layer in twin.layers:
            assert not np.shares_memory(layer.weight, buffer)
            assert not np.shares_memory(layer.bias, buffer)
            layer.weight += 1.0
            layer.bias += 1.0
        grads = [(np.ones_like(l.weight), np.ones_like(l.bias))
                 for l in twin.layers]
        adam_step(twin, grads, SgdConfig(), AdamState.for_net(twin))
        for (w, b), layer in zip(before, net.layers):
            assert np.array_equal(w, layer.weight)
            assert np.array_equal(b, layer.bias)
        assert not np.array_equal(twin.layers[0].weight, before[0][0])

    def test_every_step_goes_through_module_adam_step(self, monkeypatch):
        # the bench's `nets.adam_step` span wraps this module attribute, so
        # `fit` must look it up on every step: 3 minibatches x 2 epochs
        calls = []

        def counting_step(*args):
            calls.append(args)
            return adam_step(*args)

        monkeypatch.setattr(nets, "adam_step", counting_step)
        rng = np.random.default_rng(14)
        net = init_net([3, 4, 1], rng)
        fit(net, rng.standard_normal((10, 3)), lambda out, idx: out,
            SgdConfig(epochs=2, batch_size=4), rng)
        assert len(calls) == 6

    @pytest.mark.parametrize("trainer", [
        lambda logged, config: train_classifier_policy(
            logged.contexts, logged.actions, 2, [4], config),
        lambda logged, config: train_direct_model(logged, [4], config),
        lambda logged, config: train_robust(
            logged, uniform_policy(2), uniform_policy(2), [4], config),
    ], ids=["classifier", "direct", "robust"])
    def test_fault_names_epoch(self, trainer):
        contexts = np.zeros((8, 2))
        contexts[3] = np.inf
        logged = LoggedDataset(contexts, np.arange(8) % 2, np.full(8, 0.5), 2,
                               propensities=np.full(8, 0.5))
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingFault, match="at epoch 0$"):
            trainer(logged, SgdConfig(epochs=2, batch_size=4))


class TestInitNet:
    def test_shapes_chain_and_output_identity(self):
        net = init_net([3, 8, 5, 2], np.random.default_rng(0))
        dims = [3, 8, 5, 2]
        for i, layer in enumerate(net.layers):
            assert layer.weight.shape == (dims[i + 1], dims[i])
        assert net.layers[-1].activation == "identity"
        assert all(l.activation == "relu" for l in net.layers[:-1])

    def test_weight_bounds(self):
        net = init_net([16, 4], np.random.default_rng(1))
        assert np.all(np.abs(net.layers[0].weight) <= 1.0 / 4.0)

    def test_too_few_dims_rejected(self):
        with pytest.raises(ValueError):
            init_net([3], np.random.default_rng(0))
