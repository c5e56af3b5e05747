"""Bound diagnostics: hand-substituted values, limits, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_ope.data import LoggedDataset
from robust_ope.diagnostics import (
    BoundInputs,
    bias_bound,
    measure_bound_inputs,
    minimax_lower_bound,
    variance_bound,
)
from robust_ope.policies import UniformPolicy
from tests.oracles import TabularPolicy


def inputs(**kw):
    defaults = dict(w_max=2.0, rho_cap=10.0, sigma0_sq=1.0, eta1=0.1,
                    eta2=0.1, feature_lower=1.0, n=100, delta=0.1,
                    epsilon=0.05, e_p_wr=0.3, bigo_constant=1.0)
    defaults.update(kw)
    return BoundInputs(**defaults)


class TestBiasBound:
    def test_hand_substitution(self):
        got = bias_bound(inputs())
        expected = 2.0 * 0.1 / 1.0 + 0.05 + math.sqrt(2.0 * math.log(10.0)
                                                      / 100)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_vanishes_at_large_n(self):
        got = bias_bound(inputs(eta1=0.0, epsilon=0.0, n=10 ** 12))
        assert got < 1e-5

    def test_first_term_linear_in_w(self):
        lo = bias_bound(inputs(w_max=2.0, epsilon=0.0, n=10 ** 12))
        hi = bias_bound(inputs(w_max=4.0, epsilon=0.0, n=10 ** 12))
        assert hi >= 2.0 * lo - 1e-5

    def test_nonpositive_feature_lower_rejected(self):
        with pytest.raises(ValueError):
            bias_bound(inputs(feature_lower=0.0))


class TestVarianceBound:
    def test_hand_substitution(self):
        got = variance_bound(inputs())
        w = 2.0
        expected = (2 * w ** 2 * 0.1
                    + 2 * w ** 2 / (2 * w * 10.0 + 1.0)
                    + w ** 2 * math.sqrt(math.log(10.0) / 100)
                    + 2 * 0.05 ** 2)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_middle_term_vanishes_for_large_rho_cap(self):
        small = variance_bound(inputs(rho_cap=1e12, eta2=0.0, epsilon=0.0,
                                      n=10 ** 12))
        assert small < 1e-5

    def test_limit_is_middle_term(self):
        got = variance_bound(inputs(eta2=0.0, epsilon=0.0, n=10 ** 14))
        mid = 2 * 4.0 / (2 * 2.0 * 10.0 + 1.0)
        assert got == pytest.approx(mid, abs=1e-5)


class TestMinimaxLowerBound:
    def test_zero_slacks_give_zero(self):
        assert minimax_lower_bound(inputs(eta1=0.0, eta2=0.0)) == 0.0

    def test_hand_substitution(self):
        got = minimax_lower_bound(inputs())
        w, n, e_wr = 2.0, 100, 0.3
        term1 = w ** 2 * 0.1 ** 2 / (64 * math.e * 1.0)
        disc = 16 * e_wr ** 2 + 8 * w ** 2 * (n + 2) * 0.1
        term2 = (-4 * e_wr + math.sqrt(disc)) ** 2 / (128 * math.e
                                                      * (n + 2) ** 2)
        assert got == pytest.approx(min(term1, term2), rel=1e-15)

    def test_first_term_quadratic_in_eta2(self):
        # keep term 1 binding by making term 2 large (small n effect removed)
        a = minimax_lower_bound(inputs(eta2=1e-4, eta1=10.0))
        b = minimax_lower_bound(inputs(eta2=2e-4, eta1=10.0))
        assert b == pytest.approx(4.0 * a, rel=1e-9)


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
           st.integers(1, 10 ** 6), st.floats(0.01, 0.5))
    def test_all_bounds_nonnegative(self, w, eta1, eta2, n, delta):
        x = inputs(w_max=w, eta1=eta1, eta2=eta2, n=n, delta=delta)
        assert bias_bound(x) >= 0.0
        assert variance_bound(x) >= 0.0
        assert minimax_lower_bound(x) >= 0.0

    def test_monotone_in_slacks_and_n(self):
        assert bias_bound(inputs(eta1=0.2)) >= bias_bound(inputs(eta1=0.1))
        assert variance_bound(inputs(eta2=0.2)) >= variance_bound(
            inputs(eta2=0.1))
        assert bias_bound(inputs(n=100)) >= bias_bound(inputs(n=10_000))
        assert variance_bound(inputs(n=100)) >= variance_bound(
            inputs(n=10_000))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            inputs(delta=1.5)
        with pytest.raises(ValueError):
            inputs(n=0)
        with pytest.raises(ValueError, match="n must be an integer, got 1.5"):
            inputs(n=1.5)
        with pytest.raises(ValueError):
            inputs(eta1=-0.1)
        for key in ("w_max", "rho_cap", "sigma0_sq", "feature_lower", "eta1",
                    "eta2", "epsilon", "bigo_constant"):
            with pytest.raises(ValueError):
                inputs(**{key: math.nan})
        for key, value in (("w_max", -1.0), ("rho_cap", -1.0),
                           ("sigma0_sq", 0.0), ("feature_lower", 0.0)):
            with pytest.raises(ValueError):
                inputs(**{key: value})


class TestMeasureBoundInputs:
    def test_empirical_w_and_e_wr(self):
        contexts = np.array([[0.0], [1.0]])
        logged = LoggedDataset(contexts, np.array([0, 0]),
                               np.array([1.0, 0.5]), 2,
                               propensities=np.array([0.25, 0.5]))
        target = TabularPolicy(np.array([[0.75, 0.25], [0.25, 0.75]]))
        out = measure_bound_inputs(logged, target, None, rho_cap=5.0,
                                   sigma0_sq=1.0)
        # weights: 0.75/0.25 = 3, 0.25/0.5 = 0.5
        assert out.w_max == pytest.approx(3.0)
        assert out.e_p_wr == pytest.approx((3.0 * 1.0 + 0.5 * 0.5) / 2)
        assert out.n == 2

    def test_feature_lower_fallback_when_nonpositive(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.zeros(1), 2,
                               propensities=np.array([0.5]))
        out = measure_bound_inputs(logged, UniformPolicy(2), None,
                                   rho_cap=1.0, sigma0_sq=1.0,
                                   feats=np.array([[-1.0, 2.0]]))
        assert out.feature_lower == 1.0

    def test_feature_lower_taken_from_positive_feats(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.zeros(1), 2,
                               propensities=np.array([0.5]))
        out = measure_bound_inputs(logged, UniformPolicy(2), None,
                                   rho_cap=1.0, sigma0_sq=1.0,
                                   feats=np.array([[0.2, 2.0]]))
        assert out.feature_lower == pytest.approx(0.2)
