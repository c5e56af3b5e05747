"""Bandit simulation: CSV parsing, splits, logging, exact ground truth."""

import tracemalloc

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
from robust_ope.policies import UniformPolicy, probs_on
from tests.oracles import (BAD_ROWS, RowPolicy, SyntheticBandit,
                           TabularPolicy, list_parse_csv, make_synthetic)


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

    @pytest.mark.parametrize("row, error", [
        ("foo,0", "non-numeric feature value"),
        ("nan,0", "non-finite feature value"),
        ("1,0,2", "expected 2 fields, got 3"),
    ], ids=["non_numeric", "non_finite", "field_count"])
    def test_error_names_file_line_after_quoted_newline(self, tmp_path, row,
                                                        error):
        # the bad row is the third record but the file's fifth line
        path = write(tmp_path, "quoted.csv",
                     f'a,label\n"1\n",0\n2,1\n{row}\n')
        with pytest.raises(ParseError, match=rf"quoted\.csv:5: {error}"):
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

    @pytest.mark.parametrize("name", ["vehicle.csv", "optdigits.csv"])
    def test_shipped_csv_matches_list_parse_bits(self, data_dir, name):
        ds = load_csv(data_dir / name, "label")
        contexts, labels = list_parse_csv(data_dir / name, "label")
        assert ds.contexts.shape == contexts.shape
        assert ([float.hex(v) for v in ds.contexts.ravel().tolist()]
                == [float.hex(v) for v in contexts.ravel().tolist()])
        assert ds.labels.tolist() == labels

    @pytest.mark.parametrize("text", [
        "label,a,b\n0,1,2\n1,3,4\n",
        "a,label,b\n1,0,2\n3,1,4\n",
    ], ids=["first", "middle"])
    def test_label_column_anywhere(self, tmp_path, text):
        ds = load_csv(write(tmp_path, "pos.csv", text), "label")
        assert ds.contexts.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_whitespace_padded_cells_parse(self, tmp_path):
        path = write(tmp_path, "pad.csv",
                     "a,b,label\n 1.5 ,\t2e3,0\n-0.25 , 7 , 1\n")
        ds = load_csv(path, "label")
        assert ds.contexts.tolist() == [[1.5, 2000.0], [-0.25, 7.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_label_column_named_twice_rejected(self, tmp_path):
        # the second copy would otherwise be parsed as a feature
        path = write(tmp_path, "twice.csv", "a,label,label\n1,0,0\n2,1,1\n")
        with pytest.raises(ParseError, match=r"twice\.csv: more than one "
                                             r"column named 'label'"):
            load_csv(path, "label")

    def test_peak_memory_within_three_matrices(self, data_dir):
        # one Python float per cell would cost over 5x the matrix
        tracemalloc.start()
        try:
            ds = load_csv(data_dir / "optdigits.csv", "label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ds.contexts.nbytes


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

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ValueError, match=message):
            SplitConfig(0.6, seed=seed)


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

    @pytest.mark.parametrize("name", ["vehicle.csv", "optdigits.csv"])
    def test_shipped_csv_bits_match_formula(self, data_dir, name):
        tr, te = split(load_csv(data_dir / name, "label"), SplitConfig(0.6))
        mean = tr.contexts.mean(axis=0)
        std = tr.contexts.std(axis=0)
        std[std == 0] = 1.0
        for ds, out in zip((tr, te), standardize(tr, te)):
            expected = (ds.contexts - mean) / std
            assert ([float.hex(v) for v in out.contexts.ravel().tolist()]
                    == [float.hex(v) for v in expected.ravel().tolist()])

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

    def test_fewer_actions_than_classes_rejected(self):
        # a 2-action policy on 3 classes would never log the third class
        ds = make_synthetic_labeled(10, 2, 3, seed=0)
        with pytest.raises(ValueError, match=r"logging policy gives "
                           r"probabilities of shape \(10, 2\) on 10 records "
                           r"and 3 actions"):
            log_bandit_feedback(ds, UniformPolicy(2), seed=0)

    @pytest.mark.parametrize("row", BAD_ROWS.values(), ids=BAD_ROWS)
    def test_bad_probabilities_rejected(self, row):
        # a NaN row logged actions from a CDF of NaN; 3.0 was accepted
        ds = make_synthetic_labeled(10, 2, 4, seed=0)
        with pytest.raises(ValueError, match=r"logging policy gives "
                           r"probabilities outside \[0, 1\]"):
            log_bandit_feedback(ds, RowPolicy(row), seed=0)

    def test_non_integer_seed_rejected_before_any_draw(self, monkeypatch):
        ds = make_synthetic_labeled(10, 2, 3, seed=0)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError,
                           match="seed must be an integer, got 1.5"):
            log_bandit_feedback(ds, UniformPolicy(3), seed=1.5)


def no_draw(*args, **kwargs):
    raise AssertionError("a generator was seeded")


class TestMakeSyntheticLabeled:
    @pytest.mark.parametrize("args, kwargs, message", [
        ((20.5, 2, 3), {}, "n must be an integer, got 20.5"),
        ((20, 0, 3), {}, "d must be >= 1, got 0"),
        ((20, 2, 1), {}, "n_classes must be >= 2, got 1"),
        ((20, 2, 3), {"seed": -1}, "seed must be >= 0, got -1"),
        ((20, 2, 3), {"spread": -1.0}, "spread must be finite and >= 0, "
                                       "got -1.0"),
        ((20, 2, 3), {"spread": float("nan")}, "spread must be finite"),
    ])
    def test_bad_input_rejected_before_any_draw(self, args, kwargs, message,
                                                monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=message):
            make_synthetic_labeled(*args, **kwargs)

    def test_zero_spread_accepted(self):
        ds = make_synthetic_labeled(20, 2, 3, spread=0.0)
        assert ds.contexts.shape == (20, 2) and ds.n_classes == 3


class TestLabeledDataset:
    @pytest.mark.parametrize("n_labels", [2, 5])
    def test_label_count_must_match_rows(self, n_labels):
        with pytest.raises(ValueError, match="labels must have shape"):
            LabeledDataset(np.zeros((3, 2)), np.zeros(n_labels, dtype=int), 2)

    def test_labels_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="labels must have shape"):
            LabeledDataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int), 2)

    def test_non_integral_labels_rejected(self):
        with pytest.raises(ValueError,
                           match="labels must be whole numbers, got 0.9"):
            LabeledDataset(np.zeros((2, 1)), np.array([0.9, 1.5]), 2)

    def test_integral_float_labels_accepted(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.array([1.0, 0.0]), 2)
        assert ds.labels.dtype.kind == "i"
        assert ds.labels.tolist() == [1, 0]

    def test_contexts_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="contexts must be 2-D"):
            LabeledDataset(np.zeros(3), np.zeros(3, dtype=int), 2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_contexts_rejected(self, value):
        contexts = np.zeros((2, 1))
        contexts[1, 0] = value
        with pytest.raises(ValueError, match="contexts must be finite"):
            LabeledDataset(contexts, np.array([0, 1]), 2)


class TestTrueValue:
    def test_action_count_mismatch_rejected(self):
        # a 3-action policy on a 2-class set would read 1/3
        ds = LabeledDataset(np.zeros((2, 1)), np.array([0, 1]), 2)
        with pytest.raises(ValueError, match=r"target policy gives "
                           r"probabilities of shape \(2, 3\) on 2 records "
                           r"and 2 actions"):
            true_value(ds, UniformPolicy(3))

    @pytest.mark.parametrize("row", BAD_ROWS.values(), ids=BAD_ROWS)
    def test_bad_probabilities_rejected(self, row):
        # a NaN target probability gave a NaN true value
        ds = make_synthetic_labeled(10, 2, 4, seed=0)
        with pytest.raises(ValueError, match=r"target policy gives "
                           r"probabilities outside \[0, 1\]"):
            true_value(ds, RowPolicy(row))

    def test_empty_read_is_valid(self):
        probs = probs_on(np.zeros((0, 2)), 4, RowPolicy(BAD_ROWS["nan"]),
                         "target")
        assert probs.shape == (0, 4)

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
