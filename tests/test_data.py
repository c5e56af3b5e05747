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

    def test_nan_propensity_rejected(self):
        with pytest.raises(ValueError, match="propensities"):
            logged(propensities=np.array([0.5, float("nan")]))
