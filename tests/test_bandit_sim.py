"""Bandit simulation: CSV parsing, splits, logging, exact ground truth."""

import numpy as np
import pytest

from robust_ope.bandit_sim import (
    LabeledDataset,
    ParseError,
    SplitConfig,
    load_csv,
    log_bandit_feedback,
    make_synthetic_labeled,
    split,
    standardize,
    true_value,
)
from robust_ope.policies import UniformPolicy
from tests.oracles import SyntheticBandit, TabularPolicy, make_synthetic


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_round_trip_small_file(self, tmp_path):
        path = write(tmp_path, "toy.csv",
                     "a,b,label\n1.0,2.0,0\n3.0,4.0,1\n5.5,6.5,0\n")
        ds = load_csv(path, "label")
        assert ds.contexts.shape == (3, 2)
        assert np.array_equal(ds.labels, [0, 1, 0])
        assert ds.n_classes == 2

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(ParseError):
            load_csv(path, "label")

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "header.csv", "a,label\n")
        with pytest.raises(ParseError):
            load_csv(path, "label")

    def test_missing_label_column_rejected(self, tmp_path):
        path = write(tmp_path, "nolabel.csv", "a,b\n1,2\n")
        with pytest.raises(ParseError):
            load_csv(path, "label")

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write(tmp_path, "bad.csv", "a,label\n1.0,0\n1.0\n")
        with pytest.raises(ParseError, match=":3"):
            load_csv(path, "label")

    @pytest.mark.parametrize("value", ["foo", "nan", "inf", "-Infinity"])
    def test_non_numeric_feature_rejected(self, tmp_path, value):
        path = write(tmp_path, "bad.csv", f"a,label\n{value},0\n")
        with pytest.raises(ParseError, match=r"bad\.csv:2: non-"):
            load_csv(path, "label")

    def test_label_only_file_rejected(self, tmp_path):
        path = write(tmp_path, "labels.csv", "label\n0\n1\n")
        with pytest.raises(ParseError,
                           match=r"labels\.csv: no feature columns"):
            load_csv(path, "label")

    def test_one_class_file_rejected(self, tmp_path):
        path = write(tmp_path, "one.csv", "a,label\n1.0,3\n2.0,3\n")
        with pytest.raises(ParseError, match=r"one\.csv: need at least 2 "
                                             r"label classes, found 1"):
            load_csv(path, "label")

    def test_character_labels_reindexed_densely(self, tmp_path):
        path = write(tmp_path, "chars.csv",
                     "a,label\n1,z\n2,m\n3,z\n")
        ds = load_csv(path, "label")
        assert ds.n_classes == 2
        assert np.array_equal(ds.labels, [1, 0, 1])  # sorted: m=0, z=1

    def test_vehicle_shape(self, data_dir):
        ds = load_csv(data_dir / "vehicle.csv", "label")
        assert ds.contexts.shape == (946, 18)
        assert ds.n_classes == 4


class TestSplit:
    def make(self, n):
        return LabeledDataset(np.arange(n, dtype=float)[:, None],
                              np.zeros(n, dtype=int) if n < 2 else
                              np.arange(n) % 2, 2)

    def test_sizes_round_fraction(self):
        tr, te = split(self.make(10), SplitConfig(0.6, seed=0))
        assert len(tr) == 6 and len(te) == 4

    def test_same_seed_identical(self):
        ds = self.make(20)
        a = split(ds, SplitConfig(0.6, seed=7))
        b = split(ds, SplitConfig(0.6, seed=7))
        assert np.array_equal(a[0].contexts, b[0].contexts)
        assert np.array_equal(a[1].contexts, b[1].contexts)

    def test_disjoint_and_exhaustive(self):
        ds = self.make(17)
        tr, te = split(ds, SplitConfig(0.6, seed=1))
        seen = np.concatenate([tr.contexts[:, 0], te.contexts[:, 0]])
        assert sorted(seen.tolist()) == list(range(17))

    def test_fraction_bounds_rejected(self):
        with pytest.raises(ValueError):
            SplitConfig(0.0)
        with pytest.raises(ValueError):
            SplitConfig(1.0)


class TestStandardize:
    def test_train_stats_applied_to_all_splits(self):
        rng = np.random.default_rng(0)
        tr = LabeledDataset(rng.normal(5.0, 2.0, (200, 3)),
                            rng.integers(0, 2, 200), 2)
        te = LabeledDataset(rng.normal(5.0, 2.0, (50, 3)),
                            rng.integers(0, 2, 50), 2)
        str_, ste = standardize(tr, te)
        assert np.allclose(str_.contexts.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(str_.contexts.std(axis=0), 1.0, atol=1e-9)
        # test split transformed with *train* statistics
        expected = (te.contexts - tr.contexts.mean(axis=0)) \
            / tr.contexts.std(axis=0)
        assert np.allclose(ste.contexts, expected)

    def test_constant_feature_left_finite(self):
        tr = LabeledDataset(np.ones((5, 1)), np.zeros(5, dtype=int), 1)
        out, = standardize(tr)
        assert np.all(np.isfinite(out.contexts))


class TestLogBanditFeedback:
    def test_always_correct_deterministic_policy(self):
        ds = LabeledDataset(np.arange(3, dtype=float)[:, None],
                            np.array([1, 0, 1]), 2)
        table = np.zeros((3, 2))
        table[np.arange(3), ds.labels] = 1.0
        logged = log_bandit_feedback(ds, TabularPolicy(table), seed=0)
        assert np.all(logged.rewards == 1.0)
        assert np.all(logged.propensities == 1.0)

    def test_uniform_mean_reward_near_one_over_k(self):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(rng.standard_normal((4000, 2)),
                            rng.integers(0, 4, 4000), 4)
        logged = log_bandit_feedback(ds, UniformPolicy(4), seed=2)
        assert abs(float(logged.rewards.mean()) - 0.25) < 0.03

    def test_fixed_seed_reproducible(self):
        ds = make_synthetic_labeled(100, 3, 3, seed=0)
        a = log_bandit_feedback(ds, UniformPolicy(3), seed=5)
        b = log_bandit_feedback(ds, UniformPolicy(3), seed=5)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)

    def test_rewards_binary_and_match_labels(self):
        ds = make_synthetic_labeled(200, 2, 3, seed=1)
        logged = log_bandit_feedback(ds, UniformPolicy(3), seed=3)
        assert set(np.unique(logged.rewards)) <= {0.0, 1.0}
        assert np.array_equal(logged.rewards,
                              (logged.actions == ds.labels).astype(float))

    def test_propensities_exact(self):
        ds = make_synthetic_labeled(100, 2, 3, seed=2)
        pol = UniformPolicy(3)
        logged = log_bandit_feedback(ds, pol, seed=4)
        assert np.all(logged.propensities == 1.0 / 3.0)

    def test_action_count_mismatch_rejected(self):
        ds = make_synthetic_labeled(10, 2, 3, seed=0)
        with pytest.raises(ValueError):
            log_bandit_feedback(ds, UniformPolicy(4), seed=0)


class TestTrueValue:
    def test_perfect_deterministic_classifier(self):
        ds = LabeledDataset(np.arange(2, dtype=float)[:, None],
                            np.array([0, 1]), 2)
        assert true_value(ds, TabularPolicy(np.eye(2))) == 1.0

    def test_uniform_target_is_one_over_k(self):
        ds = make_synthetic_labeled(333, 3, 4, seed=0)
        assert true_value(ds, UniformPolicy(4)) == pytest.approx(0.25,
                                                                  abs=1e-15)

    def test_two_row_hand_average(self):
        ds = LabeledDataset(np.arange(2, dtype=float)[:, None],
                            np.array([0, 1]), 2)
        pol = TabularPolicy(np.array([[0.7, 0.3], [0.6, 0.4]]))
        assert true_value(ds, pol) == pytest.approx(0.55)


class TestSyntheticBandit:
    def test_two_by_two_uniform_value(self):
        bandit = SyntheticBandit(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                 np.array([0.5, 0.5]))
        assert bandit.exact_value(UniformPolicy(2)) == pytest.approx(0.5)

    def test_greedy_target_value_is_mean_row_max(self):
        bandit = make_synthetic(6, 3, seed=4)
        table = np.zeros((6, 3))
        table[np.arange(6), bandit.reward_table.argmax(axis=1)] = 1.0
        expected = float(bandit.reward_table.max(axis=1).mean())
        assert bandit.exact_value(TabularPolicy(table)) == pytest.approx(
            expected)

    def test_same_seed_same_table(self):
        a = make_synthetic(5, 3, seed=9)
        b = make_synthetic(5, 3, seed=9)
        assert np.array_equal(a.reward_table, b.reward_table)

    def test_enumerability_limits_enforced(self):
        with pytest.raises(ValueError):
            make_synthetic(51, 2)
        with pytest.raises(ValueError):
            make_synthetic(10, 6)

    def test_sampled_propensities_exact(self):
        bandit = make_synthetic(4, 2, seed=10)
        logging = TabularPolicy(np.tile([0.3, 0.7], (4, 1)))
        logged = bandit.sample_logged(200, logging, np.random.default_rng(0))
        expected = np.where(logged.actions == 0, 0.3, 0.7)
        assert np.array_equal(logged.propensities, expected)

    def test_context_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SyntheticBandit(np.ones((2, 2)), np.array([0.5, 0.6]))
