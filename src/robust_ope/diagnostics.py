"""Numeric bound diagnostics attached to experiment reports.

These evaluate closed-form bias/variance/minimax bound expressions with their
unspecified big-O constants exposed as a knob (default 1), so reported values
are meaningful "up to unspecified constants" only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import importance_weights


@dataclass
class BoundInputs:
    w_max: float  # upper bound of pi / p over the dataset
    rho_cap: float  # upper bound B of rho_r
    sigma0_sq: float = 1.0
    eta1: float = 0.0
    eta2: float = 0.0
    feature_lower: float = 1.0  # lower bound l of f(x, a)
    n: int = 1
    delta: float = 0.05
    epsilon: float = 0.0  # generalization-error input, not computed here
    e_p_wr: float = 0.0  # empirical mean of w * r under the logging data
    bigo_constant: float = 1.0

    def __post_init__(self):
        if not (self.w_max >= 0 and self.rho_cap >= 0):
            raise ValueError("w_max and rho_cap must be nonnegative")
        if not (self.sigma0_sq > 0 and self.feature_lower > 0):
            raise ValueError("sigma0_sq and feature lower bound l must be "
                             "positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.eta1 >= 0 and self.eta2 >= 0):
            raise ValueError("slacks must be nonnegative")
        if not (self.epsilon >= 0 and self.bigo_constant >= 0):
            raise ValueError("epsilon and bigo_constant must be nonnegative")


def bias_bound(inputs: BoundInputs) -> float:
    """W*eta1/l + epsilon + C*sqrt(W*log(1/delta)/n)."""
    w, n = inputs.w_max, inputs.n
    return (w * inputs.eta1 / inputs.feature_lower
            + inputs.epsilon
            + inputs.bigo_constant * math.sqrt(w * math.log(1.0 / inputs.delta)
                                               / n))


def variance_bound(inputs: BoundInputs) -> float:
    """2W^2*eta2 + 2W^2/(2WB + 1/sigma0^2) + C*W^2*sqrt(log(1/delta)/n) + 2eps^2."""
    w, n = inputs.w_max, inputs.n
    mid = 2.0 * w ** 2 / (2.0 * w * inputs.rho_cap + 1.0 / inputs.sigma0_sq)
    return (2.0 * w ** 2 * inputs.eta2
            + mid
            + inputs.bigo_constant * w ** 2 * math.sqrt(
                math.log(1.0 / inputs.delta) / n)
            + 2.0 * inputs.epsilon ** 2)


def minimax_lower_bound(inputs: BoundInputs) -> float:
    """min of the two closed-form lower-bound terms (slack-squared and
    weighted-reward terms)."""
    w, n, l = inputs.w_max, inputs.n, inputs.feature_lower
    term1 = w ** 2 * inputs.eta2 ** 2 / (64.0 * math.e * l ** 2)
    e_wr = inputs.e_p_wr
    disc = 16.0 * e_wr ** 2 + 8.0 * w ** 2 * (n + 2) * inputs.eta1
    term2 = (-4.0 * e_wr + math.sqrt(disc)) ** 2 / (128.0 * math.e
                                                    * (n + 2) ** 2)
    return min(term1, term2)


def measure_bound_inputs(logged, target, logging,
                         feats: np.ndarray | None = None,
                         **unmeasured) -> BoundInputs:
    """Measure W, n, l and E_p[w*r] empirically from a logged dataset.

    `feats` (n, k) supplies the observed features for the lower bound l; when
    absent or when their minimum is not positive, l falls back to 1.0 and the
    l-dependent terms are nominal only. The `BoundInputs` fields measured
    nowhere, `rho_cap` and `sigma0_sq` (both required) and `eta1`, `eta2`,
    `delta`, `epsilon` and `bigo_constant`, are passed through as keywords.
    """
    w = importance_weights(logged, target, logging, w_max=np.inf)
    feature_lower = 1.0
    if feats is not None:
        lo = float(np.min(feats))
        if lo > 0:
            feature_lower = lo
    return BoundInputs(w_max=float(w.max()), feature_lower=feature_lower,
                       n=len(logged),
                       e_p_wr=float(np.mean(w * logged.rewards)), **unmeasured)
