"""LoggedDataset: range checks on the logged records."""

import numpy as np
import pytest

from robust_ope.data import LoggedDataset


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
