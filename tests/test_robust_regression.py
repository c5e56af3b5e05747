"""Robust regression: Gaussian predictions, gradients, training, serialization."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_ope.data import LoggedDataset
from robust_ope import robust_regression
from robust_ope.nets import (FeedForwardNet, Layer, SgdConfig, action_inputs,
                             forward_batch, init_net)
from robust_ope.policies import UniformPolicy, density_ratio
from robust_ope.robust_regression import (
    BaseGaussian,
    RhoParams,
    RobustRegressor,
    RobustTrainSettings,
    _clip_ratios,
    _gaussian_params,
    _nll_rho_grads,
    _theta_out_grads,
    _train,
    features,
    load_regressor,
    mean_matrix,
    predict_batch,
    save_regressor,
    train_iid,
    train_robust,
    training_ratios,
)
from tests.oracles import (TabularPolicy, batch_nll, make_synthetic,
                           rho_gradients, theta_gradients)


def constant_feature_regressor(feat, d=1, n_actions=2, rho_r=0.0,
                               rho_xr=None, mu0=0.5, sigma0_sq=1.0):
    """Regressor whose net outputs the fixed vector `feat` for every input."""
    feat = np.asarray(feat, dtype=float)
    k = feat.shape[0]
    net = FeedForwardNet([Layer(np.zeros((k, d + n_actions)), feat.copy())])
    rho_xr = np.zeros(k) if rho_xr is None else np.asarray(rho_xr, float)
    return RobustRegressor(net=net, rho=RhoParams(rho_r, rho_xr),
                           base=BaseGaussian(mu0, sigma0_sq),
                           n_actions=n_actions)


def random_regressor(rng, d=2, n_actions=2, k=3):
    net = init_net([d + n_actions, 4, k], rng)
    return RobustRegressor(
        net=net,
        rho=RhoParams(float(rng.uniform(0.1, 2.0)),
                      rng.standard_normal(k)),
        base=BaseGaussian(0.5, 1.0),
        n_actions=n_actions)


class TestPredict:
    @pytest.mark.parametrize("ratios", [np.ones((3, 1)), np.ones(1)],
                             ids=["column", "length_one"])
    def test_ratios_not_one_per_row_rejected(self, ratios):
        reg = constant_feature_regressor([2.0], rho_r=1.3, rho_xr=[0.7])
        with pytest.raises(ValueError,
                           match=r"ratios must have shape \(3,\)"):
            predict_batch(reg, np.zeros((3, 1)), [0, 1, 0], ratios)

    def test_ratio_zero_is_exact_base(self):
        reg = constant_feature_regressor([2.0], rho_r=1.3, rho_xr=[0.7])
        (mu,), (s2,) = predict_batch(reg, [[0.3]], [1], [0.0])
        assert mu == 0.5 and s2 == 1.0

    def test_zero_rho_is_base_for_any_ratio(self):
        reg = constant_feature_regressor([5.0])
        for ratio in (0.0, 0.5, 1.0, 7.0):
            (mu,), (s2,) = predict_batch(reg, [[0.0]], [0], [ratio])
            assert mu == 0.5 and s2 == 1.0

    def test_hand_substitution(self):
        # ratio 1, rho_r 0.5, sigma0_sq 1, mu0 0, <rho_xr, f> = -1
        # sigma_sq = 1 / (2*1*0.5 + 1) = 0.5
        # mu = 0.5 * (-2*1*(-1) + 0) = 1.0
        reg = constant_feature_regressor([2.0], rho_r=0.5, rho_xr=[-0.5],
                                         mu0=0.0)
        (mu,), (s2,) = predict_batch(reg, [[0.0]], [0], [1.0])
        assert np.isclose(s2, 0.5) and np.isclose(mu, 1.0)

    def test_variance_strictly_decreasing_in_ratio(self):
        reg = constant_feature_regressor([1.0], rho_r=0.8)
        ratios = np.linspace(0.0, 5.0, 20)
        s2 = [predict_batch(reg, [[0.0]], [0], [r])[1][0] for r in ratios]
        assert all(a > b for a, b in zip(s2, s2[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 50.0, allow_nan=False))
    def test_variance_always_positive(self, seed, ratio):
        rng = np.random.default_rng(seed)
        reg = random_regressor(rng)
        _, (s2,) = predict_batch(reg, [rng.standard_normal(2)], [0], [ratio])
        assert s2 > 0

    def test_ratio_clipped_at_ratio_max(self):
        reg = constant_feature_regressor([1.0], rho_r=1.0)
        capped = predict_batch(reg, [[0.0]], [0], [reg.ratio_max])
        beyond = predict_batch(reg, [[0.0]], [0], [10.0 * reg.ratio_max])
        assert np.array_equal(capped, beyond)


class TestPredictClipped:
    def test_above_range_clips_to_one(self):
        # sigma_sq = 0.5, <rho_xr, f> = -1.3 -> mu = 0.5 * 2.6 = 1.3
        reg = constant_feature_regressor([1.0], rho_r=0.5, rho_xr=[-1.3],
                                         mu0=0.0)
        (mu,), _ = predict_batch(reg, [[0.0]], [0], [1.0])
        assert np.isclose(mu, 1.3)
        assert mean_matrix(reg, [[0.0]], np.ones((1, 2)))[0, 0] == 1.0

    def test_interior_point_untouched(self):
        reg = constant_feature_regressor([1.0])
        assert mean_matrix(reg, [[0.0]], np.ones((1, 2)))[0, 0] == 0.5

    def test_below_range_clips_to_zero(self):
        reg = constant_feature_regressor([1.0], rho_r=0.5, rho_xr=[0.2],
                                         mu0=0.0)
        assert predict_batch(reg, [[0.0]], [0], [1.0])[0][0] < 0
        assert mean_matrix(reg, [[0.0]], np.ones((1, 2)))[0, 0] == 0.0


class TestRhoGradients:
    def test_zero_residual_gives_zero_rho_xr_gradient(self):
        reg = constant_feature_regressor([2.0], rho_r=0.0, mu0=0.5)
        contexts, actions = np.array([[0.0]] * 3), np.zeros(3, dtype=int)
        rewards = np.full(3, 0.5)  # r == mu everywhere
        _, grad_xr = rho_gradients(reg, contexts, actions, rewards,
                                   np.ones(3))
        assert np.allclose(grad_xr, 0.0)

    def test_hand_substitution_single_record(self):
        # r=1, mu=0, sigma_sq=0.5, f=[2], ratio=1:
        # grad_rho_r  = w*(r^2 - mu^2 - sigma_sq) = 1 - 0 - 0.5 = 0.5
        # grad_rho_xr = 2*w*(r - mu)*f = [4]
        reg = constant_feature_regressor([2.0], rho_r=0.5, rho_xr=[0.0],
                                         mu0=0.0)
        grad_r, grad_xr = rho_gradients(reg, np.array([[0.0]]),
                                        np.array([0]), np.array([1.0]),
                                        np.array([1.0]))
        assert np.isclose(grad_r, 0.5)
        assert np.allclose(grad_xr, [4.0])

    def test_doubling_features_doubles_rho_xr_gradient(self):
        args = dict(rho_r=0.0, rho_xr=[0.0], mu0=0.0)
        reg1 = constant_feature_regressor([1.5], **args)
        reg2 = constant_feature_regressor([3.0], **args)
        x, a = np.array([[0.0]]), np.array([0])
        r, w = np.array([1.0]), np.array([1.0])
        g1_r, g1_xr = rho_gradients(reg1, x, a, r, w)
        g2_r, g2_xr = rho_gradients(reg2, x, a, r, w)
        assert np.allclose(g2_xr, 2.0 * g1_xr)
        assert np.isclose(g1_r, g2_r)

    def test_empty_batch_rejected(self):
        reg = constant_feature_regressor([1.0])
        with pytest.raises(ValueError):
            rho_gradients(reg, np.zeros((0, 1)), np.zeros(0, dtype=int),
                          np.zeros(0), np.zeros(0))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        reg = random_regressor(rng, d=3, n_actions=3, k=4)
        n = 8
        contexts = rng.standard_normal((n, 3))
        actions = rng.integers(0, 3, size=n)
        rewards = rng.random(n)
        ratios = rng.uniform(0.1, 3.0, size=n)
        grad_r, grad_xr = rho_gradients(reg, contexts, actions, rewards,
                                        ratios)
        h = 1e-6

        def nll():
            return batch_nll(reg, contexts, actions, rewards, ratios)

        orig = reg.rho.rho_r
        reg.rho.rho_r = orig + h
        up = nll()
        reg.rho.rho_r = orig - h
        dn = nll()
        reg.rho.rho_r = orig
        fd = (up - dn) / (2 * h)
        assert abs(grad_r - fd) <= 1e-4 * max(1e-6, abs(grad_r), abs(fd))
        for j in range(4):
            orig = reg.rho.rho_xr[j]
            reg.rho.rho_xr[j] = orig + h
            up = nll()
            reg.rho.rho_xr[j] = orig - h
            dn = nll()
            reg.rho.rho_xr[j] = orig
            fd = (up - dn) / (2 * h)
            assert abs(grad_xr[j] - fd) <= 1e-4 * max(1e-6, abs(grad_xr[j]),
                                                      abs(fd))


class TestThetaGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        reg = random_regressor(rng, d=2, n_actions=2, k=3)
        n = 6
        contexts = rng.standard_normal((n, 2))
        actions = rng.integers(0, 2, size=n)
        rewards = rng.random(n)
        ratios = rng.uniform(0.1, 2.0, size=n)
        grads = theta_gradients(reg, contexts, actions, rewards, ratios)
        h = 1e-6
        for li, layer in enumerate(reg.net.layers):
            for idx in np.ndindex(layer.weight.shape):
                orig = layer.weight[idx]
                layer.weight[idx] = orig + h
                up = batch_nll(reg, contexts, actions, rewards, ratios)
                layer.weight[idx] = orig - h
                dn = batch_nll(reg, contexts, actions, rewards, ratios)
                layer.weight[idx] = orig
                fd = (up - dn) / (2 * h)
                ana = grads[li][0][idx]
                assert abs(ana - fd) <= 1e-4 * max(1e-6, abs(ana), abs(fd))


class TestTraining:
    def test_untrained_rho_zero_is_base_everywhere(self):
        # rho initializes at zero, so a regressor trained for zero effective
        # steps is exactly the base distribution; asserted at the formula level
        rng = np.random.default_rng(22)
        reg = random_regressor(rng)
        reg.rho = RhoParams(0.0, np.zeros(3))
        mu, s2 = predict_batch(reg, rng.standard_normal((50, 2)),
                               rng.integers(0, 2, size=50),
                               rng.uniform(0, 5, size=50))
        assert np.all(mu == 0.5) and np.all(s2 == 1.0)

    def test_iid_equals_robust_when_policies_match(self):
        rng = np.random.default_rng(23)
        n, k = 300, 2
        contexts = rng.standard_normal((n, 3))
        actions = rng.integers(0, k, size=n)
        rewards = rng.random(n)
        logged = LoggedDataset(contexts, actions, rewards, k,
                               propensities=np.full(n, 1.0 / k))
        pol = UniformPolicy(k)
        config = SgdConfig(epochs=3, seed=5)
        a = train_robust(logged, pol, pol, [8, 4], config)
        b = train_iid(logged, [8, 4], config)
        assert np.isclose(a.rho.rho_r, b.rho.rho_r)
        assert np.allclose(a.rho.rho_xr, b.rho.rho_xr)
        for la, lb in zip(a.net.layers, b.net.layers):
            assert np.allclose(la.weight, lb.weight)

    @pytest.mark.parametrize("propensities", [True, False])
    def test_policy_with_other_action_count_rejected(self, propensities):
        # the ratios read 1.25 per record for a 5-action uniform target
        rng = np.random.default_rng(29)
        n = 30
        logged = LoggedDataset(rng.standard_normal((n, 2)),
                               rng.integers(0, 4, n), rng.random(n), 4,
                               propensities=np.full(n, 0.25) if propensities
                               else None)
        config = SgdConfig(epochs=1, seed=0)
        with pytest.raises(ValueError, match=r"target policy .*\(30, 5\)"):
            train_robust(logged, UniformPolicy(5), UniformPolicy(4), [4],
                         config)
        if not propensities:  # logged propensities take precedence
            with pytest.raises(ValueError,
                               match=r"logging policy .*\(30, 3\)"):
                train_robust(logged, UniformPolicy(4), UniformPolicy(3), [4],
                             config)

    def test_constant_reward_oracle_small(self):
        rng = np.random.default_rng(24)
        n, k = 800, 2
        contexts = rng.standard_normal((n, 3))
        actions = rng.integers(0, k, size=n)
        logged = LoggedDataset(contexts, actions, np.full(n, 0.7), k,
                               propensities=np.full(n, 0.5))
        pol = UniformPolicy(k)
        reg = train_robust(
            logged, pol, pol, [16, 8],
            SgdConfig(epochs=60, seed=0),
            settings=RobustTrainSettings(rho_learning_rate=0.05))
        held = rng.standard_normal((200, 3))
        held_a = rng.integers(0, k, size=200)
        mu, _ = predict_batch(reg, held, held_a, np.ones(200))
        assert abs(float(np.mean(mu)) - 0.7) < 0.05

    def test_nll_decreases_over_epochs(self):
        rng = np.random.default_rng(25)
        n, k = 400, 2
        contexts = rng.standard_normal((n, 2))
        actions = rng.integers(0, k, size=n)
        rewards = np.clip(0.5 + 0.3 * contexts[:, 0], 0.0, 1.0)
        logged = LoggedDataset(contexts, actions, rewards, k,
                               propensities=np.full(n, 0.5))
        pol = UniformPolicy(k)
        ratios = np.ones(n)
        nlls = []
        for epochs in (1, 20):
            reg = train_robust(logged, pol, pol, [16, 8],
                               SgdConfig(epochs=epochs, seed=1))
            nlls.append(batch_nll(reg, contexts, actions, rewards, ratios))
        assert nlls[1] < nlls[0]

    def test_output_grads_is_the_gradient_composition(self, monkeypatch):
        # each training step's closure, bit for bit, against clip ->
        # _gaussian_params -> _nll_rho_grads -> rho step -> _theta_out_grads
        # with the rho step's clip written out; ratios above ratio_max and
        # a small rho_max make both clips bite
        captured = []

        def keep_closure(dims, inputs, output_grads, config):
            captured.append((inputs, output_grads))
            return init_net([inputs.shape[1], *dims],
                            np.random.default_rng(config.seed))

        monkeypatch.setattr(robust_regression, "fit", keep_closure)
        rng = np.random.default_rng(26)
        n, k = 12, 3
        logged = LoggedDataset(rng.standard_normal((n, 2)),
                               rng.integers(0, k, size=n), rng.random(n), k)
        ratios = rng.uniform(0.0, 6.0, size=n)
        eta = 1e-3
        settings = RobustTrainSettings(rho_learning_rate=0.5, rho_max=0.02,
                                       ratio_max=4.0, eta=eta)
        reg = _train(logged, ratios, [5, 4], SgdConfig(), settings)
        (inputs, output_grads), = captured
        assert np.array_equal(inputs, action_inputs(
            logged.contexts, logged.actions, k))
        rho_r_clipped = False
        for step in range(6):
            idx = rng.permutation(n)[:5]
            feats = forward_batch(reg.net, inputs[idx])
            ref = copy.deepcopy(reg)
            w = _clip_ratios(ref, ratios[idx])
            mu, sigma_sq = _gaussian_params(ref, feats @ ref.rho.rho_xr, w)
            grad_r, grad_xr, two_w_resid = _nll_rho_grads(
                logged.rewards[idx], mu, sigma_sq, w, feats)
            rho = ref.rho
            step_r = rho.rho_r - 0.5 * (grad_r + eta * rho.rho_r)
            rho.rho_r = float(np.clip(step_r, 0.0, 0.02))
            rho_r_clipped |= rho.rho_r != step_r
            rho.rho_xr = rho.rho_xr - 0.5 * (grad_xr + eta * rho.rho_xr)
            expected = _theta_out_grads(two_w_resid, rho.rho_xr)

            out = output_grads(feats, idx)
            assert np.array_equal(out, expected)
            assert reg.rho.rho_r == rho.rho_r
            assert np.array_equal(reg.rho.rho_xr, rho.rho_xr)
        assert np.any(ratios > 4.0) and rho_r_clipped

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            logged = LoggedDataset(np.zeros((0, 2)), np.zeros(0, dtype=int),
                                   np.zeros(0), 2)
            train_iid(logged, [4], SgdConfig(epochs=1))

    @pytest.mark.parametrize("trainer", [
        lambda logged, dims, config: train_robust(
            logged, UniformPolicy(2), UniformPolicy(2), dims, config),
        train_iid,
    ], ids=["robust", "iid"])
    def test_empty_hidden_dims_rejected(self, trainer):
        # the features are the top hidden layer, so there must be one
        logged = LoggedDataset(np.zeros((4, 2)), np.arange(4) % 2,
                               np.full(4, 0.5), 2)
        with pytest.raises(ValueError, match="hidden_dims"):
            trainer(logged, [], SgdConfig(epochs=1))

    def test_settings_carry_base_and_ratio_cap(self):
        rng = np.random.default_rng(28)
        logged = LoggedDataset(rng.standard_normal((20, 2)),
                               rng.integers(0, 2, size=20), rng.random(20), 2)
        base = BaseGaussian(0.3, 2.0)
        reg = train_iid(logged, [4], SgdConfig(epochs=1),
                        settings=RobustTrainSettings(ratio_max=7.0, base=base))
        assert reg.base is base and reg.ratio_max == 7.0

    def test_training_ratios_logging_over_target(self):
        contexts = np.array([[0.0], [1.0]])
        logged = LoggedDataset(contexts, np.array([0, 1]),
                               np.zeros(2), 2)
        logging = TabularPolicy(np.array([[0.8, 0.2], [0.8, 0.2]]))
        target = TabularPolicy(np.array([[0.4, 0.6], [0.4, 0.6]]))
        ratios = training_ratios(logged, target, logging)
        assert np.allclose(ratios, [0.8 / 0.4, 0.2 / 0.6])

    def test_logged_propensities_take_precedence(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.zeros(1), 2,
                               propensities=np.array([0.25]))
        pol = UniformPolicy(2)
        assert np.allclose(training_ratios(logged, pol, pol), [0.5])


class TestMeanMatrix:
    def test_ones_ratio_matches_predict_at_one(self):
        reg = constant_feature_regressor([1.0], rho_r=0.5, rho_xr=[-0.3],
                                         mu0=0.0)
        expected_mu = predict_batch(reg, [[0.0]], [0], [1.0])[0][0]
        mat = mean_matrix(reg, np.array([[0.0]]), np.ones((1, 2)))
        assert np.allclose(mat, expected_mu)

    def test_clipping_applied(self):
        reg = constant_feature_regressor([1.0], rho_r=0.5, rho_xr=[-1.3],
                                         mu0=0.0)
        mat = mean_matrix(reg, np.array([[0.0]]), np.ones((1, 2)))
        assert np.all(mat == 1.0)

    def test_equals_per_action_reference(self):
        rng = np.random.default_rng(12)
        n, d, k = 100, 5, 4
        reg = random_regressor(rng, d=d, n_actions=k)
        contexts = rng.standard_normal((n, d))
        ratios = rng.uniform(0.0, 3.0, (n, k))
        ratios[::7, 1] = 10.0 * reg.ratio_max
        ref = np.empty((n, k))
        for a in range(k):
            ref[:, a] = predict_batch(reg, contexts, np.full(n, a),
                                      ratios[:, a])[0]
        ref = np.clip(ref, reg.r_min, reg.r_max)
        assert np.array_equal(mean_matrix(reg, contexts, ratios), ref)

    def test_ratio_matrix_shape_checked(self):
        # a (1, K) matrix would otherwise broadcast one row's ratios to all
        reg = constant_feature_regressor([1.0])
        with pytest.raises(ValueError, match="shape"):
            mean_matrix(reg, np.zeros((3, 1)), np.ones((1, 2)))


class TestReadoutFold:
    """The read path folds rho_xr into the net's linear top layer; checked
    against the unfolded formula, <rho_xr, f> formed from the features."""

    @pytest.mark.parametrize("hidden", [[3], [6, 3], [7, 5, 3]])
    def test_equals_unfolded_reference(self, hidden):
        rng = np.random.default_rng(40 + len(hidden))
        n, d, k = 60, 4, 3
        net = init_net([d + k, *hidden], rng)
        for layer in net.layers:  # nonzero biases, so rho_xr^T b counts
            layer.bias[:] = rng.standard_normal(layer.bias.shape)
        reg = RobustRegressor(
            net=net, rho=RhoParams(float(rng.uniform(0.1, 2.0)),
                                   rng.standard_normal(hidden[-1])),
            base=BaseGaussian(0.3, 0.7), n_actions=k, r_min=-3.0,
            r_max=3.0, ratio_max=5.0)
        contexts = rng.standard_normal((n, d))
        ratios = rng.uniform(0.0, 10.0, (n, k))
        assert np.any(ratios > reg.ratio_max)
        assert np.any(ratios < reg.ratio_max)
        clipped = _clip_ratios(reg, ratios)
        ref = np.empty((n, k))
        for a in range(k):
            actions = np.full(n, a)
            proj = features(reg, contexts, actions) @ reg.rho.rho_xr
            mu, sigma_sq = _gaussian_params(reg, proj, clipped[:, a])
            got_mu, got_sigma_sq = predict_batch(reg, contexts, actions,
                                                 ratios[:, a])
            assert np.allclose(got_mu, mu, rtol=1e-12, atol=1e-12)
            assert np.array_equal(got_sigma_sq, sigma_sq)
            ref[:, a] = mu
        inside = (ref > reg.r_min) & (ref < reg.r_max)
        assert inside.mean() > 0.5  # the clip hides few differences
        assert np.allclose(mean_matrix(reg, contexts, ratios),
                           np.clip(ref, reg.r_min, reg.r_max),
                           rtol=1e-12, atol=1e-12)
        assert reg.net.out_dim == hidden[-1]  # the fitted net is untouched

    def test_read_path_forms_no_feature_matrix(self, monkeypatch):
        # every net the read path runs has one output, <rho_xr, f>
        out_dims = []

        def spy(forward):
            def wrapped(net, *args):
                out_dims.append(net.out_dim)
                return forward(net, *args)
            return wrapped

        for name in ("forward_actions", "forward_batch"):
            monkeypatch.setattr(robust_regression, name,
                                spy(getattr(robust_regression, name)))
        rng = np.random.default_rng(41)
        reg = random_regressor(rng, d=3, n_actions=4, k=6)
        contexts = rng.standard_normal((9, 3))
        mean_matrix(reg, contexts, np.ones((9, 4)))
        assert out_dims == [1]
        predict_batch(reg, contexts, np.zeros(9, dtype=int), np.ones(9))
        assert out_dims == [1, 1]


class TestSerialization:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(26)
        reg = random_regressor(rng)
        path = tmp_path / "reg.npz"
        save_regressor(reg, path)
        back = load_regressor(path)
        assert back.rho.rho_r == reg.rho.rho_r
        assert np.array_equal(back.rho.rho_xr, reg.rho.rho_xr)
        assert back.base.mu0 == reg.base.mu0
        assert back.n_actions == reg.n_actions
        for la, lb in zip(reg.net.layers, back.net.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
        x = rng.standard_normal((5, 2))
        a = rng.integers(0, 2, size=5)
        assert np.array_equal(features(reg, x, a), features(back, x, a))

    def test_round_trip_same_means_at_explicit_ratios(self, tmp_path):
        rng = np.random.default_rng(27)
        bandit = make_synthetic(6, 3, seed=27)
        logging = TabularPolicy(rng.dirichlet(np.ones(3), size=6))
        target = TabularPolicy(rng.dirichlet(np.ones(3), size=6))
        logged = bandit.sample_logged(200, logging, rng)
        reg = train_robust(logged, target, logging, [8, 4],
                           SgdConfig(epochs=2, seed=0))
        path = tmp_path / "reg.npz"
        save_regressor(reg, path)
        back = load_regressor(path)
        contexts = bandit.contexts_matrix()
        ratios = density_ratio(logging.probs_matrix(contexts),
                               target.probs_matrix(contexts), reg.ratio_max)
        assert np.array_equal(mean_matrix(back, contexts, ratios),
                              mean_matrix(reg, contexts, ratios))

    @pytest.mark.parametrize("field, value, match", [
        ("ratio_max", -5.0, "ratio_max"),
        ("ratio_max", float("nan"), "ratio_max"),
        ("rho_xr", np.zeros(4), "rho_xr"),
        ("b0", np.zeros(3), "b0"),
        ("w0", np.zeros(16), "w0"),
        ("w1", np.zeros((3, 5)), "w1"),
        ("w0", np.zeros((4, 2)), "n_actions"),
        ("r_min", 1.5, "r_min must not exceed r_max"),
        ("r_min", float("nan"), "r_min must not exceed r_max"),
        ("r_max", float("nan"), "r_min must not exceed r_max"),
        ("n_actions", 0, "n_actions must be >= 1, got 0"),
        ("n_actions", -2, "n_actions must be >= 1, got -2"),
        ("n_actions", 1.9, "n_actions must be a whole number, got 1.9"),
        ("n_layers", 2.7, "n_layers must be a whole number, got 2.7"),
        ("w0", np.full((4, 4), np.nan), "w0 must be finite"),
        ("rho_xr", np.array([0.5, np.nan, 0.5]), "rho_xr must be finite"),
        ("b1", np.full(3, np.inf), "b1 must be finite"),
        ("rho_r", np.inf, "rho_r must be finite"),
    ])
    def test_inconsistent_file_rejected(self, tmp_path, field, value, match):
        # random_regressor's net is 4 -> 4 -> 3 on 2 contexts + 2 actions
        path = tmp_path / "reg.npz"
        save_regressor(random_regressor(np.random.default_rng(28)), path)
        with np.load(path) as blob:
            payload = dict(blob)
        payload[field] = np.asarray(value)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match=match):
            load_regressor(path)

    def test_integral_float_counts_load(self, tmp_path):
        path = tmp_path / "reg.npz"
        reg = random_regressor(np.random.default_rng(28))
        save_regressor(reg, path)
        with np.load(path) as blob:
            payload = dict(blob)
        payload["n_actions"] = np.asarray(2.0)
        payload["n_layers"] = np.asarray(2.0)
        np.savez(path, **payload)
        back = load_regressor(path)
        assert back.n_actions == reg.n_actions == 2
        assert len(back.net.layers) == len(reg.net.layers) == 2

    def test_bad_format_tag_rejected(self, tmp_path):
        # v4 stored a per-layer activation tag; v5 sets it by layer position
        path = tmp_path / "bad.npz"
        for tag in ("other-format", "robust-regressor-v4"):
            np.savez(path, format_tag=np.array(tag))
            with pytest.raises(ValueError, match=tag):
                load_regressor(path)


class TestValidation:
    def test_negative_rho_r_rejected(self):
        with pytest.raises(ValueError):
            RhoParams(-0.1, np.zeros(2))
        with pytest.raises(ValueError):
            RhoParams(float("nan"), np.zeros(2))

    def test_nonpositive_base_variance_rejected(self):
        with pytest.raises(ValueError):
            BaseGaussian(0.5, 0.0)
        with pytest.raises(ValueError):
            BaseGaussian(0.5, float("nan"))

    @pytest.mark.parametrize("mu0", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_base_mean_rejected(self, mu0):
        with pytest.raises(ValueError, match="mu0"):
            BaseGaussian(mu0, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("rho_learning_rate", 0.0), ("rho_learning_rate", -1.0),
        ("rho_learning_rate", float("nan")),
        ("rho_max", -1.0), ("rho_max", float("nan")),
        ("ratio_max", 0.0), ("ratio_max", -1.0), ("ratio_max", float("nan")),
        ("eta", -1.0), ("eta", float("nan")),
    ])
    def test_out_of_range_train_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RobustTrainSettings(**{field: value})

    def test_boundary_train_settings_accepted(self):
        settings = RobustTrainSettings(rho_max=0.0, ratio_max=float("inf"),
                                       eta=0.0)
        assert settings.rho_max == 0.0 and settings.eta == 0.0
