"""Policy-value estimators: DM, IPS, SnIPS, the DR family, and the robust family.

All estimators are pure functions of a LoggedDataset, the target policy, a
propensity source (logged propensities or a logging Policy), and where needed
a reward model. Each kind is one row of `_TABLE`: one of five formulas (DM,
DR, SnDR, switch, shrink) and the one reward model it reads. IPS and SnIPS
are DR and SnDR with no model; TR is DR on the robust model's means at the
density ratio p-hat / pi. Calls on the same input objects, matched by
identity (a LoggedDataset is frozen and hashes by identity), reuse pi, p-hat,
the weights and each model's pi-mean and residual: `_memo` keeps one entry
per live logged dataset, dropped with it, so policies and models are
read-only once scored.
Estimates on [0, 1]-reward data stay in [0, 1] for DM, DM-R, DM-I and SnIPS;
IPS/DR-family estimates may leave the interval and are not clipped.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import LoggedDataset
from .nets import (FeedForwardNet, SgdConfig, action_inputs, fit,
                   forward_actions)
from .policies import Policy, density_ratio, probs_on
from .robust_regression import RobustRegressor, mean_matrix

#: safety clip on importance weights pi / p-hat; np.inf disables it
DEFAULT_W_MAX = 1e4


class UndefinedEstimate(ValueError):
    """The estimator is undefined for these inputs (e.g. all weights zero)."""


class RewardModel:
    """Clipped (context, action) -> reward predictor."""

    def predict_matrix(self, contexts: np.ndarray) -> np.ndarray:
        """Predictions for every action of every context; (n, K), clipped."""
        raise NotImplementedError


@dataclass
class NetRewardModel(RewardModel):
    """Squared-loss regression net on (context, one-hot action)."""

    net: FeedForwardNet
    n_actions: int
    r_min: float = 0.0
    r_max: float = 1.0
    def predict_matrix(self, contexts: np.ndarray) -> np.ndarray:
        return np.clip(forward_actions(self.net, contexts, self.n_actions),
                       self.r_min, self.r_max)


def train_direct_model(logged: LoggedDataset, hidden_dims: list[int],
                       config: SgdConfig) -> NetRewardModel:
    """Fit the plain direct-method model by minibatch squared-loss SGD."""
    inputs = action_inputs(logged.contexts, logged.actions, logged.n_actions)

    def output_grads(preds, idx):
        return 2.0 * (preds - logged.rewards[idx, None]) / idx.shape[0]

    net = fit([*hidden_dims, 1], inputs, output_grads, config)
    return NetRewardModel(net=net, n_actions=logged.n_actions,
                          r_min=logged.r_min, r_max=logged.r_max)


class _Inputs:
    """One input set (logged data, target pi, p-hat source) and the arrays
    every estimate on it shares, each built once on first use: pi and p-hat
    over all actions, the weights w per clip `w_max`, and the pi-mean and
    residual of each model read, kept against the identity of that model.
    `_memo` keys it by `logged` and replaces it when a call names another
    `target` or `logging`: a LoggedDataset's fields cannot be rebound.

    It refers to no estimate and holds `logged` only by weak reference, as
    a memo value that held its own key would keep it alive for ever; so
    dropping the caller's `logged` frees its arrays at once."""

    def __init__(self, logged: LoggedDataset, target: Policy,
                 logging: Policy | None):
        self._logged = weakref.ref(logged)
        self.target, self.logging = target, logging
        self._w: dict[float, np.ndarray] = {}
        self._means: dict[str | None, tuple[object, tuple]] = {}

    @property
    def logged(self) -> LoggedDataset | None:
        return self._logged()

    def at_logged(self, mat: np.ndarray) -> np.ndarray:
        return mat[np.arange(len(self.logged)), self.logged.actions]

    @cached_property
    def pi(self) -> np.ndarray:
        return probs_on(self.logged.contexts, self.logged.n_actions,
                        self.target, "target")

    @cached_property
    def p(self) -> np.ndarray:
        if self.logging is None:
            raise ValueError("need a logging policy: robust kinds read p-hat "
                             "at every action, and the weights read it where "
                             "no propensities are logged")
        return probs_on(self.logged.contexts, self.logged.n_actions,
                        self.logging, "logging")

    def w(self, w_max: float) -> np.ndarray:
        """Read-only weights pi / p-hat at the logged actions, clipped to
        [0, w_max]."""
        w = self._w.get(w_max)
        if w is None:
            p = self.logged.propensities
            if p is None:
                p = self.at_logged(self.p)
            if np.any(p <= 0):
                raise ValueError("zero propensity encountered")
            w = density_ratio(self.at_logged(self.pi), p, w_max)
            w.flags.writeable = False
            self._w[w_max] = w
        return w

    def means(self, reads: str | None,
              model) -> tuple[np.ndarray, np.ndarray]:
        """The pi-mean E_{a~pi}[model(x, a)] per record and the residual
        r - model(x, a) at the logged action, for the means of `model` read
        as "direct", "robust" (at the density ratio p-hat / pi) or "iid" (at
        1); zeros and the rewards when `reads` is None."""
        kept = self._means.get(reads)
        if kept is not None and kept[0] is model:
            return kept[1]
        logged = self.logged
        if reads is None:
            pair = np.zeros(len(logged)), logged.rewards
        elif model is None:
            raise ValueError(f"no {reads} reward model given")
        else:
            shape = (len(logged), logged.n_actions)
            if reads == "direct":
                mat = model.predict_matrix(logged.contexts)
            else:
                ratios = (density_ratio(self.p, self.pi, np.inf)
                          if reads == "robust" else np.ones(shape))
                mat = mean_matrix(model, logged.contexts, ratios)
            if mat.shape != shape:
                raise ValueError("reward model output shape mismatch")
            pair = (np.sum(self.pi * mat, axis=1),
                    logged.rewards - self.at_logged(mat))
        self._means[reads] = (model, pair)
        return pair


#: each live logged dataset -> the input set last scored on it
_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _inputs(logged: LoggedDataset, target: Policy,
            logging: Policy | None) -> _Inputs:
    # no lock: racing callers at worst build an entry twice, and each scores
    # on the entry it holds
    entry = _memo.get(logged)
    if (entry is None or entry.target is not target
            or entry.logging is not logging):
        entry = _memo[logged] = _Inputs(logged, target, logging)
    return entry


# The five formulas, over the pi-mean v and residual resid of the model a
# kind reads (see `_Inputs.means`) and the weights w, which DM never reads.

def _dm(v, resid, w, spec) -> float:
    return float(np.mean(v))


def _dr(v, resid, w, spec) -> float:
    return float(np.mean(v)) + float(np.mean(w * resid))


def _sndr(v, resid, w, spec) -> float:
    w_sum = w.sum()
    if w_sum <= 0:
        raise UndefinedEstimate("sum of importance weights is zero")
    return float(np.mean(v)) + float((w * resid).sum() / w_sum)


def _switch(v, resid, w, spec) -> float:
    """DR below the weight threshold tau, DM above it, per record."""
    return float(np.mean(np.where(w <= spec.tau, w * resid + v, v)))


def _shrink(v, resid, w, spec) -> float:
    """DR with the importance weight hard-capped at shrink_cap."""
    return float(np.mean(v)) + float(
        np.mean(np.minimum(w, spec.shrink_cap) * resid))


#: kind -> (formula, the reward model it reads)
_TABLE = {
    "DM": (_dm, "direct"),
    "IPS": (_dr, None),
    "SnIPS": (_sndr, None),
    "DR": (_dr, "direct"),
    "SnDR": (_sndr, "direct"),
    "DR_SWITCH": (_switch, "direct"),
    "DR_SHRINK": (_shrink, "direct"),
    "DM_R": (_dm, "robust"),
    "DM_I": (_dm, "iid"),
    "TR": (_dr, "robust"),
    "SnTR": (_sndr, "robust"),
    "TR_SWITCH": (_switch, "robust"),
    "TR_SHRINK": (_shrink, "robust"),
}
ESTIMATOR_KINDS = tuple(_TABLE)
#: the reward model each kind reads ("direct", "robust", "iid" or None)
MODEL_READ = {kind: reads for kind, (_, reads) in _TABLE.items()}


@dataclass
class EstimatorSpec:
    kind: str
    tau: float | None = None
    shrink_cap: float | None = None

    def __post_init__(self):
        if self.kind not in _TABLE:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        formula = _TABLE[self.kind][0]
        if formula is _switch and (self.tau is None
                                   or not self.tau >= 0):
            raise ValueError(f"{self.kind} requires a nonnegative tau")
        if formula is _shrink and (self.shrink_cap is None
                                   or not self.shrink_cap >= 0):
            raise ValueError(f"{self.kind} requires a nonnegative shrink_cap")


def importance_weights(logged: LoggedDataset, target: Policy,
                       logging: Policy | None,
                       w_max: float = DEFAULT_W_MAX) -> np.ndarray:
    """w = pi(a|x) / p-hat(a|x) at the logged actions, clipped to [0, w_max];
    logged propensities take precedence over the logging policy.

    Shares pi and p-hat with `evaluate_estimator` calls on the same objects;
    the returned array is read-only."""
    if not w_max > 0:  # negated, so that NaN fails it
        raise ValueError(f"w_max must be positive, got {w_max}")
    return _inputs(logged, target, logging).w(w_max)


def evaluate_estimator(spec: EstimatorSpec, logged: LoggedDataset,
                       target: Policy, logging: Policy | None = None,
                       model: RewardModel | None = None,
                       robust: RobustRegressor | None = None,
                       robust_iid: RobustRegressor | None = None,
                       w_max: float = DEFAULT_W_MAX) -> float:
    """Score one EstimatorSpec against the prepared components.

    Calls that name the same `logged`, `target` and `logging` objects (by
    identity) share pi, p-hat, the weights at each `w_max` and each reward
    model's pi-mean and residual, so scoring every kind of one trial
    evaluates each policy and each model once. Each live `logged` keeps one
    such entry, for the `target` and `logging` last scored on it, and only
    while the caller holds it: once `logged` is dropped, nothing here refers
    to it or to the other inputs. Inputs are therefore
    treated as read-only once scored: an array, policy or model changed in
    place is not seen by the next call on the same objects; pass new
    objects, or a new LoggedDataset (`dataclasses.replace`), instead.
    """
    if not w_max > 0:  # negated, so that NaN fails it
        raise ValueError(f"w_max must be positive, got {w_max}")
    formula, reads = _TABLE[spec.kind]
    inputs = _inputs(logged, target, logging)
    v, resid = inputs.means(reads, {"direct": model, "robust": robust,
                                    "iid": robust_iid}.get(reads))
    w = None if formula is _dm else inputs.w(w_max)
    return formula(v, resid, w, spec)

