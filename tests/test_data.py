"""The record contract: LoggedDataset's range checks, its frozen fields,
identity equality on both record classes, the one index rule every entry
point applies, and the one count rule."""

import dataclasses

import numpy as np
import pytest

from robust_ope.data import LabeledDataset, LoggedDataset, as_count
from robust_ope.nets import SgdConfig
from robust_ope.policies import train_classifier_policy
from robust_ope.robust_regression import features, predict_batch
from tests.test_robust_regression import constant_feature_regressor


def logged(rewards=(0.0, 1.0), propensities=None):
    return LoggedDataset(np.zeros((2, 1)), np.array([0, 1]),
                         np.array(rewards), 2, propensities=propensities)


class TestLoggedDataset:
    def test_nan_reward_rejected(self):
        with pytest.raises(ValueError, match="reward"):
            logged(rewards=(0.0, float("nan")))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_context_rejected(self, value):
        contexts = np.zeros((2, 1))
        contexts[1, 0] = value
        with pytest.raises(ValueError, match="contexts"):
            LoggedDataset(contexts, np.array([0, 1]), np.array([0.0, 1.0]), 2)

    def test_nan_propensity_rejected(self):
        with pytest.raises(ValueError, match="propensities"):
            logged(propensities=np.array([0.5, float("nan")]))

    def test_misaligned_actions_rejected(self):
        with pytest.raises(ValueError, match="misaligned record arrays"):
            LoggedDataset(np.zeros((2, 1)), np.array([0, 1, 0]),
                          np.array([0.0, 1.0]), 2)

    def test_misaligned_propensities_rejected(self):
        with pytest.raises(ValueError, match="misaligned propensities"):
            logged(propensities=np.array([0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("r_min, r_max", [(1.0, 0.0),
                                              (float("nan"), 1.0)])
    def test_empty_reward_range_rejected(self, r_min, r_max):
        # named as such, not as a reward outside [r_min, r_max]
        with pytest.raises(ValueError, match="r_min must not exceed r_max"):
            LoggedDataset(np.zeros((2, 1)), np.array([0, 1]),
                          np.array([0.5, 0.5]), 2, r_min=r_min, r_max=r_max)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="empty logged dataset"):
            LoggedDataset(np.zeros((0, 1)), np.zeros(0, dtype=int),
                          np.zeros(0), 2, propensities=np.zeros(0))

    @pytest.mark.parametrize("contexts", [np.zeros(3), np.zeros((3, 1, 1))])
    def test_contexts_not_2d_rejected(self, contexts):
        with pytest.raises(ValueError, match="contexts must be 2-D"):
            LoggedDataset(contexts, [0, 1, 0], [0.0, 1.0, 0.0], 2,
                          propensities=[0.5, 0.5, 0.5])

    @pytest.mark.parametrize("actions", [[0.7, 1.2], [0.0, float("nan")],
                                         [0.0, float("inf")]])
    def test_non_integral_actions_rejected(self, actions):
        with pytest.raises(ValueError, match="actions must be whole numbers"):
            LoggedDataset(np.zeros((2, 1)), np.array(actions),
                          np.array([0.0, 1.0]), 2)

    def test_integral_float_actions_accepted(self):
        ds = LoggedDataset(np.zeros((2, 1)), np.array([1.0, 0.0]),
                           np.array([0.0, 1.0]), 2)
        assert ds.actions.dtype.kind == "i"
        assert ds.actions.tolist() == [1, 0]

    @pytest.mark.parametrize("name", [f.name for f in
                                      dataclasses.fields(LoggedDataset)])
    def test_fields_cannot_be_assigned(self, name):
        ds = logged(propensities=np.array([0.5, 0.5]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, name, getattr(ds, name))


#: record class -> (a record with count k, the field that holds k)
COUNTED = {
    "LoggedDataset": (lambda k: LoggedDataset(np.zeros((2, 1)), [0, 1],
                                              [0.0, 1.0], k), "n_actions"),
    "LabeledDataset": (lambda k: LabeledDataset(np.zeros((2, 1)), [0, 1], k),
                       "n_classes"),
}


@pytest.mark.parametrize("record", sorted(COUNTED))
def test_non_integer_count_rejected(record):
    make, field = COUNTED[record]
    with pytest.raises(ValueError, match=f"{field} must be an integer, "
                                         f"got 2.5"):
        make(2.5)
    assert getattr(make(np.int64(2)), field) == 2


#: record class -> a fresh record over the same arrays on each call
RECORDS = {
    "LoggedDataset": logged,
    "LabeledDataset": lambda: LabeledDataset(np.zeros((2, 1)),
                                             np.array([0, 1]), 2),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_records_compare_and_hash_by_identity(make):
    a, twin = make(), make()
    assert a == a and not a != a
    assert a != twin and not a == twin
    keyed = {a: "a", twin: "twin"}
    assert keyed[a] == "a" and keyed[twin] == "twin"


K = 3
CONTEXTS = np.zeros((3, 1))
REGRESSOR = constant_feature_regressor([1.0], n_actions=K)

#: entry point -> (call on three indices, the field its message names)
INDEX_ENTRY_POINTS = {
    "LoggedDataset": (lambda idx: LoggedDataset(CONTEXTS, idx, np.zeros(3),
                                                K), "actions"),
    "LabeledDataset": (lambda idx: LabeledDataset(CONTEXTS, idx, K),
                       "labels"),
    "train_classifier_policy": (lambda idx: train_classifier_policy(
        CONTEXTS, idx, K, [2], SgdConfig(epochs=1, batch_size=3)), "labels"),
    "features": (lambda idx: features(REGRESSOR, CONTEXTS, idx), "actions"),
    "predict_batch": (lambda idx: predict_batch(REGRESSOR, CONTEXTS, idx,
                                                np.ones(3)), "actions"),
}


class TestIndexRule:
    """An action or label index is a whole number in [0, n), everywhere."""

    @pytest.mark.parametrize("bad", [-1, K, 0.7, float("nan")],
                             ids=["negative", "n", "fraction", "nan"])
    @pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
    def test_bad_index_rejected(self, entry, bad):
        call, field = INDEX_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=field):
            call(np.array([0, 1, bad]))

    @pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
    def test_whole_float_index_accepted(self, entry):
        call, _ = INDEX_ENTRY_POINTS[entry]
        call(np.array([0, 1, 1.0]))


class TestCountRule:
    """A size, count or seed is an int (numpy ints too) of at least `low`."""

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3),
                                       np.intp(3)],
                             ids=["int", "int64", "uint8", "intp"])
    def test_integers_pass_as_int(self, value):
        count = as_count(value, "k")
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize("value", [2.0, np.float64(2.0), 1.5,
                                       float("nan"), "3", None, np.array([3])],
                             ids=["float", "np.float64", "fraction", "nan",
                                  "str", "None", "array"])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match="k must be an integer, got"):
            as_count(value, "k")

    @pytest.mark.parametrize("value, low", [(0, 1), (-1, 0), (1, 2),
                                            (np.int64(-5), 0)])
    def test_below_low_rejected(self, value, low):
        with pytest.raises(ValueError,
                           match=f"k must be >= {low}, got {value}"):
            as_count(value, "k", low)
