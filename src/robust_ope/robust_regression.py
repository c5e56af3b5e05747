"""Minimax robust regression under the action-distribution covariate shift.

The reward model is a conditional Gaussian

    sigma^2(x, a) = (2 * w * rho_r + 1 / sigma0_sq)^-1
    mu(x, a)      = sigma^2(x, a) * (-2 * w * <rho_xr, f(x, a)> + mu0 / sigma0_sq)

where w = p(a|x) / pi(a|x) is the logging-over-target density ratio and
f(x, a) is the top hidden layer of a feedforward net on (context, one-hot
action). Training alternates exact negative-log-likelihood gradient steps on
(rho_r, rho_xr) with backprop SGD steps on the feature net. Setting every
ratio to 1 gives the iid ablation trained by `train_iid`.

The features enter the Gaussian only through <rho_xr, f>, and f's top layer
is linear, f = W h + b, so

    <rho_xr, f(x, a)> = (rho_xr^T W) h + rho_xr^T b.

The read path (`predict_batch`, `mean_matrix`) folds rho_xr into that layer
and runs a net with one output, never forming the (n, k) feature matrix.
Training still forms f: the gradient of the NLL in rho_xr is a mean of
2 w (r - mu) f, and backprop needs d(NLL)/df at every feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LoggedDataset, as_count, check_reward_range
from .nets import (
    FeedForwardNet,
    Layer,
    SgdConfig,
    TrainingFault,
    action_inputs,
    fit,
    forward_actions,
    forward_batch,
)
from .policies import Policy, density_ratio, logged_propensities, probs_on

SERIAL_FORMAT_TAG = "robust-regressor-v5"


@dataclass
class RhoParams:
    rho_r: float
    rho_xr: np.ndarray  # (k,)

    def __post_init__(self):
        self.rho_xr = np.asarray(self.rho_xr, dtype=float)
        if not 0 <= self.rho_r < math.inf:  # negated, so NaN fails
            raise ValueError("rho_r must be finite and nonnegative")
        if not np.isfinite(self.rho_xr).all():
            raise ValueError("rho_xr must be finite")


@dataclass
class BaseGaussian:
    mu0: float = 0.5
    sigma0_sq: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise ValueError("mu0 must be finite")
        if not 0 < self.sigma0_sq < math.inf:  # negated, so NaN fails
            raise ValueError("sigma0_sq must be positive and finite")


@dataclass
class RobustRegressor:
    net: FeedForwardNet  # input: context + one-hot action, output: k features
    rho: RhoParams
    base: BaseGaussian
    n_actions: int
    r_min: float = 0.0
    r_max: float = 1.0
    ratio_max: float = 100.0

    def __post_init__(self):
        self.n_actions = as_count(self.n_actions, "n_actions")
        check_reward_range(self.r_min, self.r_max)
        if not self.ratio_max > 0:  # negated, so NaN fails
            raise ValueError(f"ratio_max must be positive, "
                             f"got {self.ratio_max}")
        if not self.net.in_dim > self.n_actions:
            raise ValueError(f"w0 must have more columns than n_actions "
                             f"({self.n_actions}), got {self.net.in_dim}")
        last, rows = len(self.net.layers) - 1, self.net.out_dim
        if self.rho.rho_xr.shape != (rows,):
            raise ValueError(f"rho_xr must have one entry per row of w{last} "
                             f"({rows}), got shape {self.rho.rho_xr.shape}")


def features(reg: RobustRegressor, contexts: np.ndarray,
             actions: np.ndarray) -> np.ndarray:
    """f(x, a) for each record; returns (n, k)."""
    return forward_batch(reg.net, action_inputs(contexts, actions,
                                                reg.n_actions))


def _clip_ratios(ratio_max: float, ratios) -> np.ndarray:
    """The density ratios clipped to [0, ratio_max]: the one cap on them."""
    return np.clip(np.asarray(ratios, dtype=float), 0.0, ratio_max)


def _gaussian_params(base: BaseGaussian, rho_r: float, proj: np.ndarray,
                     ratios: np.ndarray):
    """Gaussian (mu, sigma_sq) at readouts `proj` = <rho_xr, f> and density
    ratios `ratios` already clipped by `_clip_ratios`; elementwise, so any
    matching shapes."""
    inv_s0 = 1.0 / base.sigma0_sq
    two_w = 2.0 * ratios
    sigma_sq = 1.0 / (two_w * rho_r + inv_s0)
    mu = sigma_sq * (base.mu0 * inv_s0 - two_w * proj)
    return mu, sigma_sq


def _readout_net(reg: RobustRegressor) -> FeedForwardNet:
    """The fitted net with its linear top layer (W, b) replaced by the one
    row (rho_xr^T W, rho_xr^T b): its one output is <rho_xr, f>."""
    *trunk, last = reg.net.layers
    rho_xr = reg.rho.rho_xr
    return FeedForwardNet(trunk + [Layer((rho_xr @ last.weight)[None, :],
                                         np.array([last.bias @ rho_xr]))])


def predict_batch(reg: RobustRegressor, contexts: np.ndarray,
                  actions: np.ndarray, ratios: np.ndarray):
    """Conditional Gaussian (mu, sigma_sq) per (context, action, ratio) row;
    each (n,), unclipped."""
    inputs = action_inputs(contexts, actions, reg.n_actions)
    ratios = _clip_ratios(reg.ratio_max, ratios)
    if ratios.shape != (len(inputs),):
        raise ValueError(f"ratios must have shape {(len(inputs),)}")
    proj = forward_batch(_readout_net(reg), inputs)[:, 0]
    return _gaussian_params(reg.base, reg.rho.rho_r, proj, ratios)


def mean_matrix(reg: RobustRegressor, contexts: np.ndarray,
                ratios: np.ndarray) -> np.ndarray:
    """Predicted means for every action of every context, clipped to
    [r_min, r_max]; returns (n, K).

    `ratios` (n, K) holds the density ratio p(a|x) / pi(a|x) at every
    (x, a); all ones gives the iid prediction.
    """
    ratios = _clip_ratios(reg.ratio_max, ratios)
    n = len(contexts)
    if ratios.shape != (n, reg.n_actions):
        raise ValueError(f"ratios must have shape {(n, reg.n_actions)}")
    proj = forward_actions(_readout_net(reg), contexts, reg.n_actions)
    mu = _gaussian_params(reg.base, reg.rho.rho_r, proj, ratios)[0]
    return np.clip(mu, reg.r_min, reg.r_max, out=mu)


def _nll_rho_grads(rewards, mu, sigma_sq, ratios, feats):
    """Exact gradients of the batch-mean Gaussian NLL w.r.t. (rho_r, rho_xr),
    and the per-sample term 2 w (r - mu) that `_theta_out_grads` shares."""
    n = rewards.shape[0]
    grad_r = float((ratios * (rewards ** 2 - mu ** 2 - sigma_sq)).sum() / n)
    two_w_resid = 2.0 * ratios * (rewards - mu)
    return grad_r, two_w_resid @ feats / n, two_w_resid


def _theta_out_grads(two_w_resid, rho_xr):
    """d(batch-mean NLL)/d(features), per sample: 2 w (r - mu) rho_xr / n,
    from the `two_w_resid` of `_nll_rho_grads`."""
    return (two_w_resid / two_w_resid.shape[0])[:, None] * rho_xr[None, :]


@dataclass
class RobustTrainSettings:
    """What a robust or iid fit reads besides the data and the SGD schedule."""

    rho_learning_rate: float = 0.01
    rho_max: float = 1e3
    ratio_max: float = 100.0
    eta: float = 1e-3
    base: BaseGaussian = field(default_factory=BaseGaussian)

    def __post_init__(self):
        # negated in-range tests, so that NaN fails them
        if not 0 < self.rho_learning_rate < math.inf:
            raise ValueError("rho_learning_rate must be positive and finite")
        if not self.rho_max >= 0:
            raise ValueError("rho_max must be nonnegative")
        if not self.ratio_max > 0:
            raise ValueError("ratio_max must be positive")
        if not 0 <= self.eta < math.inf:
            raise ValueError("eta must be nonnegative and finite")


def _train(logged: LoggedDataset, ratios: np.ndarray, hidden_dims: list[int],
           config: SgdConfig,
           settings: RobustTrainSettings | None) -> RobustRegressor:
    settings = settings or RobustTrainSettings()
    if not hidden_dims:
        raise ValueError("hidden_dims must list at least one layer size")
    inputs = action_inputs(logged.contexts, logged.actions, logged.n_actions)
    rewards = logged.rewards
    ratios = _clip_ratios(settings.ratio_max, ratios)
    lr_rho, rho_max, eta = (settings.rho_learning_rate, settings.rho_max,
                            settings.eta)
    base, rho = settings.base, RhoParams(0.0, np.zeros(hidden_dims[-1]))

    def output_grads(feats, idx):
        # exact-NLL step on rho, then the feature gradients under the new rho
        w = ratios[idx]
        mu, sigma_sq = _gaussian_params(base, rho.rho_r, feats @ rho.rho_xr,
                                        w)
        if not np.isfinite(mu).all():
            raise TrainingFault("diverged")
        grad_r, grad_xr, two_w_resid = _nll_rho_grads(rewards[idx], mu,
                                                      sigma_sq, w, feats)
        rho.rho_r = min(max(rho.rho_r - lr_rho * (grad_r + eta * rho.rho_r),
                            0.0), rho_max)
        rho.rho_xr = rho.rho_xr - lr_rho * (grad_xr + eta * rho.rho_xr)
        return _theta_out_grads(two_w_resid, rho.rho_xr)

    net = fit(hidden_dims, inputs, output_grads, config)
    return RobustRegressor(net, rho, base, logged.n_actions, logged.r_min,
                           logged.r_max, settings.ratio_max)


def training_ratios(logged: LoggedDataset, target: Policy,
                    logging: Policy) -> np.ndarray:
    """Density ratio p(a|x) / pi(a|x) at the logged records, unclipped."""
    p = logged_propensities(logged, logging)
    pi = probs_on(logged.contexts, logged.n_actions, target,
                  "target")[np.arange(len(logged)), logged.actions]
    return density_ratio(p, pi, np.inf)


def train_robust(logged: LoggedDataset, target: Policy, logging: Policy,
                 hidden_dims: list[int], config: SgdConfig,
                 settings: RobustTrainSettings | None = None) -> RobustRegressor:
    """Fit the covariate-shift-aware conditional Gaussian reward model."""
    ratios = training_ratios(logged, target, logging)
    return _train(logged, ratios, hidden_dims, config, settings)


def train_iid(logged: LoggedDataset, hidden_dims: list[int],
              config: SgdConfig,
              settings: RobustTrainSettings | None = None) -> RobustRegressor:
    """Ablation that ignores the shift: every density ratio is fixed to 1.

    Query its `mean_matrix` at ratio 1 as well.
    """
    return _train(logged, np.ones(len(logged)), hidden_dims, config, settings)


def save_regressor(reg: RobustRegressor, path) -> None:
    """Serialize to .npz, loss-free at 64-bit precision."""
    payload = {
        "format_tag": np.array(SERIAL_FORMAT_TAG),
        "rho_r": np.array(reg.rho.rho_r),
        "rho_xr": reg.rho.rho_xr,
        "mu0": np.array(reg.base.mu0),
        "sigma0_sq": np.array(reg.base.sigma0_sq),
        "n_actions": np.array(reg.n_actions),
        "r_min": np.array(reg.r_min),
        "r_max": np.array(reg.r_max),
        "ratio_max": np.array(reg.ratio_max),
        "n_layers": np.array(len(reg.net.layers)),
    }
    for i, layer in enumerate(reg.net.layers):
        payload[f"w{i}"] = layer.weight
        payload[f"b{i}"] = layer.bias
    np.savez(path, **payload)


def _count(blob, field: str) -> int:
    """A saved count >= 1, which `int()` alone would truncate (1.9 -> 1)."""
    value = blob[field]
    if value.shape != () or not float(value).is_integer():
        raise ValueError(f"{field} must be a whole number, got {value}")
    return as_count(int(value), field)


def load_regressor(path) -> RobustRegressor:
    """Inverse of `save_regressor`. A file that no saved regressor could
    have written is rejected with a ValueError naming the first field at
    fault. The loader only reads and the records check themselves, so a
    fault is reported in this order: a missing field (where it is read),
    the format tag, the layer count (`_count`), the layers, rho, the base
    Gaussian, the action count (`_count`), and then the reward range, the
    ratio cap, the input's context half and rho_xr's length."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            tag = str(blob["format_tag"])
            if tag != SERIAL_FORMAT_TAG:
                raise ValueError(f"unsupported format tag {tag!r}")
            layers = [Layer(weight=blob[f"w{i}"], bias=blob[f"b{i}"])
                      for i in range(_count(blob, "n_layers"))]
            return RobustRegressor(
                FeedForwardNet(layers),
                RhoParams(float(blob["rho_r"]), blob["rho_xr"]),
                BaseGaussian(float(blob["mu0"]), float(blob["sigma0_sq"])),
                _count(blob, "n_actions"), float(blob["r_min"]),
                float(blob["r_max"]), float(blob["ratio_max"]))
    except KeyError as exc:  # numpy's "<field> is not a file in the archive"
        raise ValueError(f"missing field: {exc.args[0]}") from None
