"""Policies: simplex invariants, classifier training, logging-policy fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_ope.bandit_sim import make_synthetic_labeled
from robust_ope.data import LoggedDataset
from robust_ope.nets import SgdConfig, init_net
from robust_ope.policies import (
    PROB_FLOOR,
    SoftmaxClassifierPolicy,
    UniformPolicy,
    estimate_logging_policy,
    sample_actions,
    train_classifier_policy,
)
from tests.oracles import TabularPolicy

FAST_SGD = SgdConfig(learning_rate=1e-3, epochs=10, batch_size=32, seed=0)


class TestUniformPolicy:
    def test_k4_quarter_each(self):
        p = UniformPolicy(4).probs_matrix(np.zeros((1, 3)))[0]
        assert np.array_equal(p, np.full(4, 0.25))

    def test_k2_half_each(self):
        p = UniformPolicy(2).probs_matrix(np.zeros((1, 1)))[0]
        assert np.array_equal(p, [0.5, 0.5])

    def test_k26_simplex(self):
        p = UniformPolicy(26).probs_matrix(np.zeros((1, 2)))[0]
        assert np.all(p >= 0) and abs(p.sum() - 1.0) < 1e-9

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            UniformPolicy(1)


class TestTabularPolicy:
    def test_rows_index_by_first_feature(self):
        pol = TabularPolicy(np.array([[0.2, 0.8], [1.0, 0.0]]))
        assert np.allclose(pol.probs_matrix(np.array([[1.0]]))[0], [1.0, 0.0])

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            TabularPolicy(np.array([[0.5, 0.6]]))


class TestTrainClassifierPolicy:
    def test_separable_blobs_high_accuracy(self):
        data = make_synthetic_labeled(400, 4, 2, seed=0, spread=5.0)
        pol = train_classifier_policy(data.contexts, data.labels, 2, [16],
                                      FAST_SGD)
        preds = pol.probs_matrix(data.contexts).argmax(axis=1)
        assert np.mean(preds == data.labels) >= 0.95

    def test_huge_temperature_approaches_uniform(self):
        data = make_synthetic_labeled(100, 3, 4, seed=1)
        pol = train_classifier_policy(data.contexts, data.labels, 4, [8],
                                      FAST_SGD, temperature=1e6)
        p = pol.probs_matrix(data.contexts)
        assert np.max(np.abs(p - 0.25)) < 1e-3

    def test_nan_temperature_rejected(self):
        net = init_net([2, 3], np.random.default_rng(0))
        with pytest.raises(ValueError, match="temperature"):
            SoftmaxClassifierPolicy(net, temperature=float("nan"))

    def test_single_class_degenerate(self):
        rng = np.random.default_rng(2)
        contexts = rng.standard_normal((200, 3))
        labels = np.ones(200, dtype=int)
        pol = train_classifier_policy(contexts, labels, 2, [8],
                                      SgdConfig(learning_rate=1e-2, epochs=20,
                                                batch_size=32, seed=0))
        assert np.all(pol.probs_matrix(contexts)[:, 1] >= 0.9)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_classifier_policy(np.zeros((0, 3)), np.zeros(0, dtype=int),
                                    2, [4], FAST_SGD)

    @pytest.mark.parametrize("contexts, n_labels, field", [
        (np.array([[0.0], [np.nan]]), 2, "contexts"),
        (np.array([[0.0], [np.inf]]), 2, "contexts"),
        (np.zeros(2), 2, "contexts"),
        (np.zeros((8, 1)), 10, "labels"),
    ], ids=["nan", "inf", "one_dimensional", "label_count"])
    def test_bad_input_named(self, contexts, n_labels, field):
        with pytest.raises(ValueError, match=field):
            train_classifier_policy(contexts, np.arange(n_labels) % 2, 2,
                                    [4], FAST_SGD)

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            train_classifier_policy(np.zeros((3, 2)), np.array([0, 1, 2]), 2,
                                    [4], FAST_SGD)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_simplex_invariant_on_random_contexts(self, seed):
        rng = np.random.default_rng(seed)
        net = init_net([3, 8, 4], rng)
        pol = SoftmaxClassifierPolicy(net=net)
        p = pol.probs_matrix(rng.standard_normal((10, 3)))
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p >= PROB_FLOOR / 2)


class TestEstimateLoggingPolicy:
    def test_uniform_actions_recovered(self):
        # linear softmax head: a hidden relu net can memorize sampling noise
        # and exceed the 0.05 band even though it is consistent in the mean
        rng = np.random.default_rng(3)
        contexts = rng.standard_normal((8000, 4))
        actions = rng.integers(0, 3, size=8000)
        logged = LoggedDataset(contexts, actions, np.zeros(8000), 3)
        pol = estimate_logging_policy(logged, [], FAST_SGD)
        held = rng.standard_normal((500, 4))
        assert np.max(np.abs(pol.probs_matrix(held) - 1 / 3)) < 0.05

    def test_deterministic_rule_recovered(self):
        rng = np.random.default_rng(4)
        contexts = rng.standard_normal((3000, 3))
        actions = contexts[:, :3].argmax(axis=1)
        logged = LoggedDataset(contexts, actions, np.zeros(3000), 3)
        pol = estimate_logging_policy(
            logged, [32], SgdConfig(learning_rate=1e-3, epochs=30,
                                    batch_size=32, seed=0))
        held = rng.standard_normal((800, 3))
        match = pol.probs_matrix(held).argmax(axis=1) == held.argmax(axis=1)
        assert np.mean(match) >= 0.90

    def test_context_free_coin_flip(self):
        rng = np.random.default_rng(5)
        contexts = rng.standard_normal((8000, 2))
        actions = rng.integers(0, 2, size=8000)
        logged = LoggedDataset(contexts, actions, np.zeros(8000), 2)
        pol = estimate_logging_policy(logged, [], FAST_SGD)
        p = pol.probs_matrix(rng.standard_normal((400, 2)))
        assert np.max(np.abs(p - 0.5)) < 0.05

    def test_never_exactly_zero_probability(self):
        rng = np.random.default_rng(6)
        contexts = rng.standard_normal((300, 2))
        actions = np.zeros(300, dtype=int)  # action 1 never logged
        logged = LoggedDataset(contexts, actions, np.zeros(300), 2)
        pol = estimate_logging_policy(logged, [8], FAST_SGD)
        assert np.all(pol.probs_matrix(contexts) > 0)

    def test_action_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LoggedDataset(np.zeros((2, 2)), np.array([0, 5]), np.zeros(2), 2)


class TestSampling:
    def test_deterministic_policy_always_sampled(self):
        pol = TabularPolicy(np.array([[0.0, 1.0]]))
        rng = np.random.default_rng(7)
        acts = sample_actions(pol.probs_matrix(np.zeros((20, 1))), rng)
        assert np.all(acts == 1)

    def test_uniform_frequencies(self):
        pol = UniformPolicy(4)
        rng = np.random.default_rng(8)
        acts = sample_actions(pol.probs_matrix(np.zeros((10_000, 1))), rng)
        freqs = np.bincount(acts, minlength=4) / 10_000
        assert np.max(np.abs(freqs - 0.25)) < 0.02

    def test_fixed_seed_reproducible(self):
        pol = UniformPolicy(3)
        a = sample_actions(pol.probs_matrix(np.zeros((50, 1))),
                           np.random.default_rng(9))
        b = sample_actions(pol.probs_matrix(np.zeros((50, 1))),
                           np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_skewed_frequencies_converge(self):
        pol = TabularPolicy(np.array([[0.7, 0.2, 0.1]]))
        rng = np.random.default_rng(10)
        acts = sample_actions(pol.probs_matrix(np.zeros((10_000, 1))), rng)
        freqs = np.bincount(acts, minlength=3) / 10_000
        assert np.max(np.abs(freqs - [0.7, 0.2, 0.1])) < 0.02
