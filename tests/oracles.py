"""Test oracles: enumerable bandits, table and fixed-row policies, table
reward models, gradient wrappers over the private formulas that training
calls, and a list-of-floats CSV parse.

Nothing under `src` reaches these; the tests check the shipped code against
them. `SyntheticBandit.exact_value` gives V by exact enumeration, and
`rho_gradients`, `theta_gradients` and `batch_nll` compose `_clip_ratios`,
`_gaussian_params`, `_nll_rho_grads`, `_theta_out_grads`, a traced
`forward_batch` and `_backprop`, so a finite-difference check of them
checks the math that trains. `list_parse_csv` parses a CSV into one Python
float per cell, the way `load_csv` once did, so the flat-buffer loader is
checked bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from robust_ope.data import LoggedDataset
from robust_ope.estimators import RewardModel
from robust_ope.nets import (FeedForwardNet, TrainingFault, _backprop,
                             action_inputs, forward_batch)
from robust_ope.policies import Policy, sample_actions
from robust_ope.robust_regression import (RobustRegressor, _clip_ratios,
                                          _gaussian_params, _nll_rho_grads,
                                          _theta_out_grads, features)


@dataclass
class TabularPolicy(Policy):
    """Explicit per-context probability table, for synthetic bandits and tests.

    Contexts are identified by their integer index in the first feature.
    """

    table: np.ndarray  # (n_contexts, K)

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        if np.any(self.table < 0) or not np.allclose(self.table.sum(axis=1), 1.0):
            raise ValueError("rows must be probability distributions")

    @property
    def n_actions(self) -> int:
        return self.table.shape[1]

    def probs_matrix(self, contexts: np.ndarray) -> np.ndarray:
        idx = np.asarray(contexts)[:, 0].astype(int)
        return self.table[idx]


class RowPolicy(Policy):
    """One probability row at every context, taken as given, so it can break
    the probability contract that `policies.probs_on` checks."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)
        self.n_actions = len(self.row)

    def probs_matrix(self, contexts: np.ndarray) -> np.ndarray:
        return np.tile(self.row, (len(contexts), 1))


#: RowPolicy rows over 4 actions, one per way a probability can be bad
BAD_ROWS = {"nan": [np.nan, 0.5, 0.25, 0.25],
            "negative": [-0.5, 0.5, 0.5, 0.5],
            "above_one": [3.0, 0.0, 0.0, 0.0]}


@dataclass
class TableRewardModel(RewardModel):
    """Explicit reward table keyed by integer context id, for tests/oracles."""

    table: np.ndarray  # (n_contexts, K)
    r_min: float = 0.0
    r_max: float = 1.0
    def predict_matrix(self, contexts: np.ndarray) -> np.ndarray:
        idx = np.asarray(contexts)[:, 0].astype(int)
        return np.clip(self.table[idx], self.r_min, self.r_max)


@dataclass
class SyntheticBandit:
    """Finite context set with an explicit reward table, for exact enumeration.

    Contexts are one-dimensional integer ids so TabularPolicy rows line up.
    """

    reward_table: np.ndarray  # (n_contexts, K)
    context_probs: np.ndarray  # (n_contexts,)

    def __post_init__(self):
        self.reward_table = np.asarray(self.reward_table, dtype=float)
        self.context_probs = np.asarray(self.context_probs, dtype=float)
        if not np.isclose(self.context_probs.sum(), 1.0):
            raise ValueError("context probabilities must sum to 1")

    @property
    def n_contexts(self) -> int:
        return self.reward_table.shape[0]

    @property
    def n_actions(self) -> int:
        return self.reward_table.shape[1]

    def contexts_matrix(self) -> np.ndarray:
        return np.arange(self.n_contexts, dtype=float)[:, None]

    def exact_value(self, policy: Policy) -> float:
        """V by exact enumeration over contexts and actions."""
        pi = policy.probs_matrix(self.contexts_matrix())
        return float(np.sum(self.context_probs[:, None] * pi
                            * self.reward_table))

    def sample_logged(self, n: int, logging: Policy,
                      rng: np.random.Generator) -> LoggedDataset:
        ctx_ids = rng.choice(self.n_contexts, size=n, p=self.context_probs)
        contexts = ctx_ids.astype(float)[:, None]
        probs = logging.probs_matrix(contexts)
        actions = sample_actions(probs, rng)
        rewards = self.reward_table[ctx_ids, actions]
        propensities = probs[np.arange(n), actions]
        lo, hi = float(self.reward_table.min()), float(self.reward_table.max())
        return LoggedDataset(contexts=contexts, actions=actions,
                             rewards=rewards, n_actions=self.n_actions,
                             propensities=propensities,
                             r_min=min(lo, 0.0), r_max=max(hi, 1.0))


def make_synthetic(n_contexts: int, n_actions: int,
                   seed: int = 0) -> SyntheticBandit:
    """Random small bandit with rewards in [0, 1] and uniform context draw."""
    if n_contexts > 50 or n_actions > 5:
        raise ValueError("synthetic bandits are meant to stay enumerable")
    rng = np.random.default_rng(seed)
    table = rng.random((n_contexts, n_actions))
    probs = np.full(n_contexts, 1.0 / n_contexts)
    return SyntheticBandit(reward_table=table, context_probs=probs)


def backward(net: FeedForwardNet, inputs, output_grads) -> list:
    """Batch backprop of a scalar objective whose per-output gradients are
    given, through the trace and backprop that `nets.fit` runs. Returns one
    (dW, db) pair per layer, *summed* over the batch."""
    grads = [(np.empty(l.weight.shape), np.empty(l.bias.shape))
             for l in net.layers]
    trace = []
    forward_batch(net, inputs, trace)
    _backprop(net, trace, np.asarray(output_grads, dtype=float), grads)
    return grads


def rho_gradients(reg: RobustRegressor, contexts: np.ndarray,
                  actions: np.ndarray, rewards: np.ndarray,
                  ratios: np.ndarray):
    """Gradient of the minibatch Gaussian negative log-likelihood w.r.t. rho.

    Returns (grad_rho_r, grad_rho_xr). These are the quantities descended on
    during training; they match central finite differences of the batch NLL.
    """
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape[0] == 0:
        raise ValueError("empty minibatch")
    feats = features(reg, contexts, actions)
    ratios = _clip_ratios(reg, ratios)
    mu, sigma_sq = _gaussian_params(reg, feats @ reg.rho.rho_xr, ratios)
    grad_r, grad_xr, _ = _nll_rho_grads(rewards, mu, sigma_sq, ratios, feats)
    if not (np.isfinite(grad_r) and np.all(np.isfinite(grad_xr))):
        raise TrainingFault("non-finite rho gradient")
    return grad_r, grad_xr


def theta_gradients(reg: RobustRegressor, contexts, actions, rewards, ratios):
    """Backpropagated feature-net gradients of the batch-mean Gaussian NLL."""
    rewards = np.asarray(rewards, dtype=float)
    inputs = action_inputs(contexts, actions, reg.n_actions)
    feats = forward_batch(reg.net, inputs)
    ratios = _clip_ratios(reg, ratios)
    mu, sigma_sq = _gaussian_params(reg, feats @ reg.rho.rho_xr, ratios)
    *_, two_w_resid = _nll_rho_grads(rewards, mu, sigma_sq, ratios, feats)
    out_grads = _theta_out_grads(two_w_resid, reg.rho.rho_xr)
    return backward(reg.net, inputs, out_grads)


def batch_nll(reg: RobustRegressor, contexts, actions, rewards, ratios) -> float:
    """Mean Gaussian negative log-likelihood of a batch; the training objective."""
    rewards = np.asarray(rewards, dtype=float)
    feats = features(reg, contexts, actions)
    mu, sigma_sq = _gaussian_params(reg, feats @ reg.rho.rho_xr,
                                    _clip_ratios(reg, ratios))
    return float(np.mean(0.5 * np.log(2.0 * np.pi * sigma_sq)
                         + (rewards - mu) ** 2 / (2.0 * sigma_sq)))


def list_parse_csv(path, label_column: str) -> tuple[np.ndarray, list[int]]:
    """Contexts from a list of lists of floats, and labels densely re-indexed
    in sorted order, for a well-formed CSV with a header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = header.index(label_column)
        rows, raw = [], []
        for row in reader:
            raw.append(row[idx].strip())
            rows.append([float(v) for i, v in enumerate(row) if i != idx])
    classes = sorted(set(raw))
    return np.array(rows), [classes.index(c) for c in raw]
