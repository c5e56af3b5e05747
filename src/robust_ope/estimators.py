"""Policy-value estimators: DM, IPS, SnIPS, the DR family, and the robust family.

All estimators are pure functions of a LoggedDataset, the target policy, a
propensity source (logged propensities or a logging Policy), and where needed
a reward model. Estimates on [0, 1]-reward data stay in [0, 1] for DM, DM-R,
DM-I and SnIPS; IPS/DR-family estimates may leave the interval and are not
clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LoggedDataset
from .nets import FeedForwardNet, SgdConfig, fit, forward_batch, init_net
from .policies import Policy
from .robust_regression import RobustRegressor, _net_inputs, mean_matrix

#: safety clip on importance weights pi / p-hat; np.inf disables it
DEFAULT_W_MAX = 1e4

ESTIMATOR_KINDS = (
    "DM", "IPS", "SnIPS", "DR", "SnDR", "DR_SWITCH", "DR_SHRINK",
    "DM_R", "DM_I", "TR", "SnTR", "TR_SWITCH", "TR_SHRINK",
)

_NEEDS_TAU = {"DR_SWITCH", "TR_SWITCH"}
_NEEDS_CAP = {"DR_SHRINK", "TR_SHRINK"}


class UndefinedEstimate(ValueError):
    """The estimator is undefined for these inputs (e.g. all weights zero)."""


@dataclass
class EstimatorSpec:
    kind: str
    tau: float | None = None
    shrink_cap: float | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind in _NEEDS_TAU and (self.tau is None or self.tau < 0):
            raise ValueError(f"{self.kind} requires a nonnegative tau")
        if self.kind in _NEEDS_CAP and (self.shrink_cap is None
                                        or self.shrink_cap < 0):
            raise ValueError(f"{self.kind} requires a nonnegative shrink_cap")


class RewardModel:
    """Clipped (context, action) -> reward predictor."""

    tag: str = "direct"

    def predict_matrix(self, contexts: np.ndarray) -> np.ndarray:
        """Predictions for every action of every context; (n, K), clipped."""
        raise NotImplementedError


@dataclass
class TableRewardModel(RewardModel):
    """Explicit reward table keyed by integer context id, for tests/oracles."""

    table: np.ndarray  # (n_contexts, K)
    r_min: float = 0.0
    r_max: float = 1.0
    tag: str = "direct"

    def predict_matrix(self, contexts: np.ndarray) -> np.ndarray:
        idx = np.asarray(contexts)[:, 0].astype(int)
        return np.clip(self.table[idx], self.r_min, self.r_max)


@dataclass
class NetRewardModel(RewardModel):
    """Squared-loss regression net on (context, one-hot action)."""

    net: FeedForwardNet
    n_actions: int
    r_min: float = 0.0
    r_max: float = 1.0
    tag: str = "direct"

    def predict_matrix(self, contexts: np.ndarray) -> np.ndarray:
        contexts = np.asarray(contexts, dtype=float)
        n = contexts.shape[0]
        out = np.empty((n, self.n_actions))
        for a in range(self.n_actions):
            inputs = _net_inputs(contexts, np.full(n, a), self.n_actions)
            out[:, a] = forward_batch(self.net, inputs)[:, 0]
        return np.clip(out, self.r_min, self.r_max)


@dataclass
class RobustRewardModel(RewardModel):
    """Clipped robust-regression means, ratio-aware via the stored policies."""

    regressor: RobustRegressor
    tag: str = "robust"

    def predict_matrix(self, contexts: np.ndarray) -> np.ndarray:
        return mean_matrix(self.regressor, contexts, clip=True)


def train_direct_model(logged: LoggedDataset, hidden_dims: list[int],
                       config: SgdConfig) -> NetRewardModel:
    """Fit the plain direct-method model by minibatch squared-loss SGD."""
    if len(logged) == 0:
        raise ValueError("empty logged dataset")
    rng = np.random.default_rng(config.seed)
    in_dim = logged.contexts.shape[1] + logged.n_actions
    net = init_net([in_dim, *hidden_dims, 1], rng)
    inputs = _net_inputs(logged.contexts, logged.actions, logged.n_actions)

    def output_grads(preds, idx):
        return 2.0 * (preds - logged.rewards[idx, None]) / idx.shape[0]

    fit(net, inputs, output_grads, config, rng)
    return NetRewardModel(net=net, n_actions=logged.n_actions,
                          r_min=logged.r_min, r_max=logged.r_max)


def importance_weights(logged: LoggedDataset, target: Policy,
                       logging: Policy | None,
                       w_max: float = DEFAULT_W_MAX) -> np.ndarray:
    """w = pi(a|x) / p-hat(a|x), clipped to [0, w_max].

    Logged propensities take precedence over evaluating the logging policy.
    """
    if len(logged) == 0:
        raise ValueError("empty logged dataset")
    idx = np.arange(len(logged))
    if logged.propensities is not None:
        p = logged.propensities
    elif logging is not None:
        p = logging.probs_matrix(logged.contexts)[idx, logged.actions]
    else:
        raise ValueError("need logged propensities or a logging policy")
    if np.any(p <= 0):
        raise ValueError("zero propensity encountered")
    pi = target.probs_matrix(logged.contexts)[idx, logged.actions]
    return np.clip(pi / p, 0.0, w_max)


def _model_means(logged: LoggedDataset, model: RewardModel):
    mat = model.predict_matrix(logged.contexts)
    if mat.shape != (len(logged), logged.n_actions):
        raise ValueError("reward model output shape mismatch")
    at_logged = mat[np.arange(len(logged)), logged.actions]
    return mat, at_logged


def v_dm(logged: LoggedDataset, target: Policy, model: RewardModel) -> float:
    """Mean over contexts of E_{a~pi}[model(x, a)]."""
    if len(logged) == 0:
        raise ValueError("empty logged dataset")
    mat, _ = _model_means(logged, model)
    pi = target.probs_matrix(logged.contexts)
    return float(np.mean(np.sum(pi * mat, axis=1)))


def v_ips(logged: LoggedDataset, target: Policy, logging: Policy | None = None,
          w_max: float = DEFAULT_W_MAX) -> float:
    w = importance_weights(logged, target, logging, w_max)
    return float(np.mean(w * logged.rewards))


def v_snips(logged: LoggedDataset, target: Policy,
            logging: Policy | None = None,
            w_max: float = DEFAULT_W_MAX) -> float:
    w = importance_weights(logged, target, logging, w_max)
    denom = w.sum()
    if denom <= 0:
        raise UndefinedEstimate("sum of importance weights is zero")
    return float((w * logged.rewards).sum() / denom)


def v_dr(logged: LoggedDataset, target: Policy, logging: Policy | None,
         model: RewardModel, w_max: float = DEFAULT_W_MAX) -> float:
    w = importance_weights(logged, target, logging, w_max)
    _, r_hat = _model_means(logged, model)
    return v_dm(logged, target, model) + float(
        np.mean(w * (logged.rewards - r_hat)))


def v_sndr(logged: LoggedDataset, target: Policy, logging: Policy | None,
           model: RewardModel, w_max: float = DEFAULT_W_MAX) -> float:
    w = importance_weights(logged, target, logging, w_max)
    denom = w.sum()
    if denom <= 0:
        raise UndefinedEstimate("sum of importance weights is zero")
    _, r_hat = _model_means(logged, model)
    return v_dm(logged, target, model) + float(
        (w * (logged.rewards - r_hat)).sum() / denom)


def v_dr_switch(logged: LoggedDataset, target: Policy, logging: Policy | None,
                model: RewardModel, tau: float,
                w_max: float = DEFAULT_W_MAX) -> float:
    """DR below the weight threshold tau, DM above it, per record."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    w = importance_weights(logged, target, logging, w_max)
    mat, r_hat = _model_means(logged, model)
    pi = target.probs_matrix(logged.contexts)
    r_pi = np.sum(pi * mat, axis=1)
    below = w <= tau
    per_record = np.where(below, w * (logged.rewards - r_hat) + r_pi, r_pi)
    return float(np.mean(per_record))


def v_dr_shrink(logged: LoggedDataset, target: Policy, logging: Policy | None,
                model: RewardModel, shrink_cap: float,
                w_max: float = DEFAULT_W_MAX) -> float:
    """DR with the importance weight hard-capped at shrink_cap."""
    if shrink_cap < 0:
        raise ValueError("shrink_cap must be nonnegative")
    w = importance_weights(logged, target, logging, w_max)
    _, r_hat = _model_means(logged, model)
    return v_dm(logged, target, model) + float(
        np.mean(np.minimum(w, shrink_cap) * (logged.rewards - r_hat)))


def v_dm_r(logged: LoggedDataset, target: Policy,
           robust: RobustRegressor) -> float:
    """Direct method with clipped robust-regression means."""
    return v_dm(logged, target, RobustRewardModel(robust))


def v_tr(logged: LoggedDataset, target: Policy, logging: Policy | None,
         robust: RobustRegressor, w_max: float = DEFAULT_W_MAX) -> float:
    return v_dr(logged, target, logging, RobustRewardModel(robust), w_max)


def v_sntr(logged: LoggedDataset, target: Policy, logging: Policy | None,
           robust: RobustRegressor, w_max: float = DEFAULT_W_MAX) -> float:
    return v_sndr(logged, target, logging, RobustRewardModel(robust), w_max)


def v_tr_switch(logged: LoggedDataset, target: Policy, logging: Policy | None,
                robust: RobustRegressor, tau: float,
                w_max: float = DEFAULT_W_MAX) -> float:
    return v_dr_switch(logged, target, logging, RobustRewardModel(robust),
                       tau, w_max)


def v_tr_shrink(logged: LoggedDataset, target: Policy, logging: Policy | None,
                robust: RobustRegressor, shrink_cap: float,
                w_max: float = DEFAULT_W_MAX) -> float:
    return v_dr_shrink(logged, target, logging, RobustRewardModel(robust),
                       shrink_cap, w_max)


def evaluate_estimator(spec: EstimatorSpec, logged: LoggedDataset,
                       target: Policy, logging: Policy | None = None,
                       model: RewardModel | None = None,
                       robust: RobustRegressor | None = None,
                       robust_iid: RobustRegressor | None = None,
                       w_max: float = DEFAULT_W_MAX) -> float:
    """Dispatch a single EstimatorSpec against the prepared components."""
    kind = spec.kind
    if kind == "DM":
        return v_dm(logged, target, model)
    if kind == "IPS":
        return v_ips(logged, target, logging, w_max)
    if kind == "SnIPS":
        return v_snips(logged, target, logging, w_max)
    if kind == "DR":
        return v_dr(logged, target, logging, model, w_max)
    if kind == "SnDR":
        return v_sndr(logged, target, logging, model, w_max)
    if kind == "DR_SWITCH":
        return v_dr_switch(logged, target, logging, model, spec.tau, w_max)
    if kind == "DR_SHRINK":
        return v_dr_shrink(logged, target, logging, model, spec.shrink_cap,
                           w_max)
    if kind == "DM_R":
        return v_dm_r(logged, target, robust)
    if kind == "DM_I":
        # iid ablation: predictions at ratio 1, i.e. no stored policies
        return v_dm(logged, target, RobustRewardModel(robust_iid))
    if kind == "TR":
        return v_tr(logged, target, logging, robust, w_max)
    if kind == "SnTR":
        return v_sntr(logged, target, logging, robust, w_max)
    if kind == "TR_SWITCH":
        return v_tr_switch(logged, target, logging, robust, spec.tau, w_max)
    if kind == "TR_SHRINK":
        return v_tr_shrink(logged, target, logging, robust, spec.shrink_cap,
                           w_max)
    raise ValueError(f"unknown estimator kind {kind!r}")
