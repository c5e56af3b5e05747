"""Conditional action distributions: uniform, softmax classifiers, logging-policy fits.

A policy maps each row of a context matrix to a probability vector over K
actions (`probs_matrix`).
Policies are immutable after construction/training and safe to evaluate
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, as_count
from .nets import FeedForwardNet, SgdConfig, action_inputs, fit, forward_batch

#: probabilities of softmax classifier policies are clamped to at least this
#: value and renormalized, so importance weights stay finite
PROB_FLOOR = 1e-4


class Policy:
    """Base interface: deterministic map context -> probability simplex."""

    def probs_matrix(self, contexts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class UniformPolicy(Policy):
    n_actions: int

    def __post_init__(self):
        as_count(self.n_actions, "n_actions", 2)

    def probs_matrix(self, contexts: np.ndarray) -> np.ndarray:
        n = np.asarray(contexts).shape[0]
        return np.full((n, self.n_actions), 1.0 / self.n_actions)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (n, K) logits, each row shifted by its max."""
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p


@dataclass
class SoftmaxClassifierPolicy(Policy):
    net: FeedForwardNet
    temperature: float = 1.0

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    def probs_matrix(self, contexts: np.ndarray) -> np.ndarray:
        p = _softmax(forward_batch(self.net, contexts) / self.temperature)
        p = np.maximum(p, PROB_FLOOR)
        p /= p.sum(axis=1, keepdims=True)
        return p


def density_ratio(num: np.ndarray, den: np.ndarray, cap: float) -> np.ndarray:
    """num / den clipped to [0, cap], a zero denominator giving the cap: the
    importance weight pi / p-hat and the robust model's ratio p-hat / pi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0, num / np.maximum(den, 1e-300), np.inf)
    return np.clip(ratio, 0.0, cap)


def probs_on(contexts: np.ndarray, n_actions: int, policy: Policy,
             role: str) -> np.ndarray:
    """`policy`'s (n, K) probabilities at the records' contexts, rejecting a
    policy over another action count than the records' or one that gives a
    value outside [0, 1], NaN included, or a row more than 1e-6 from summing
    to 1; `role` names it."""
    probs = policy.probs_matrix(contexts)
    if probs.shape != (len(contexts), n_actions):
        raise ValueError(f"{role} policy gives probabilities of shape "
                         f"{probs.shape} on {len(contexts)} records and "
                         f"{n_actions} actions")
    if probs.size and not (probs.min() >= 0 and probs.max() <= 1
                           and abs(probs.sum(axis=1) - 1).max() <= 1e-6):
        raise ValueError(f"{role} policy gives probabilities outside [0, 1] "
                         f"or rows that do not sum to 1")
    return probs


def logged_propensities(logged, logging: Policy | None) -> np.ndarray:
    """p-hat(a|x) at the logged actions; logged propensities take precedence."""
    if logged.propensities is not None:
        return logged.propensities
    if logging is None:
        raise ValueError("need logged propensities or a logging policy")
    probs = probs_on(logged.contexts, logged.n_actions, logging, "logging")
    return probs[np.arange(len(logged)), logged.actions]


def _train_softmax_net(contexts: np.ndarray, labels: np.ndarray, n_classes: int,
                       hidden_dims: list[int], config: SgdConfig) -> FeedForwardNet:
    """Minimize multinomial log-loss with minibatch SGD."""
    targets = action_inputs(contexts[:, :0], labels, n_classes)  # one-hot

    def output_grads(logits, idx):
        # d(mean log-loss)/d(logits)
        return (_softmax(logits) - targets[idx]) / idx.shape[0]

    return fit([*hidden_dims, n_classes], contexts, output_grads, config)


def train_classifier_policy(contexts: np.ndarray, labels: np.ndarray,
                            n_classes: int, hidden_dims: list[int],
                            config: SgdConfig,
                            temperature: float = 1.0) -> SoftmaxClassifierPolicy:
    """Fit a softmax classifier on fully observed (context, label) pairs,
    checked as a LabeledDataset."""
    data = LabeledDataset(contexts, labels, n_classes)
    net = _train_softmax_net(data.contexts, data.labels, n_classes,
                             hidden_dims, config)
    return SoftmaxClassifierPolicy(net=net, temperature=temperature)


def estimate_logging_policy(logged, hidden_dims: list[int],
                            config: SgdConfig) -> SoftmaxClassifierPolicy:
    """Fit p-hat(a|x) by log-loss on the logged (context, action) pairs."""
    net = _train_softmax_net(logged.contexts, logged.actions, logged.n_actions,
                             hidden_dims, config)
    return SoftmaxClassifierPolicy(net=net)


def sample_actions(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized inverse-CDF sampling, one action per row of the (n, K)
    probability matrix `p`."""
    cdf = np.cumsum(p, axis=1)
    u = rng.random(p.shape[0])
    return (u[:, None] > cdf).sum(axis=1).clip(0, p.shape[1] - 1)
