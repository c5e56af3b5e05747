"""Logged bandit data container shared across modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_indices(values, name: str) -> np.ndarray:
    """`values` as an int array. A float that the int cast would change (0.7,
    NaN, inf) is rejected rather than truncated; 1.0 is kept as 1."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f":
        bad = ~np.isfinite(raw) | (raw != np.trunc(raw))
        if bad.any():
            raise ValueError(f"{name} must be whole numbers, got "
                             f"{raw[bad].flat[0]}")
    return np.asarray(raw, dtype=int)


@dataclass
class LoggedDataset:
    """Records of (context, chosen action, observed reward, optional propensity).

    `propensities`, when present, holds the logging policy's probability of
    the logged action and takes precedence over evaluating a logging Policy.
    """

    contexts: np.ndarray  # (n, d)
    actions: np.ndarray  # (n,) int
    rewards: np.ndarray  # (n,)
    n_actions: int
    propensities: np.ndarray | None = None  # (n,)
    r_min: float = 0.0
    r_max: float = 1.0

    def __post_init__(self):
        self.contexts = np.asarray(self.contexts, dtype=float)
        self.actions = as_indices(self.actions, "actions")
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.propensities is not None:
            self.propensities = np.asarray(self.propensities, dtype=float)
        if self.contexts.ndim != 2:
            raise ValueError(f"contexts must be 2-D, got shape "
                             f"{self.contexts.shape}")
        n = self.contexts.shape[0]
        if self.actions.shape != (n,) or self.rewards.shape != (n,):
            raise ValueError("misaligned record arrays")
        if n == 0:
            raise ValueError("empty logged dataset")
        if not np.isfinite(self.contexts).all():
            raise ValueError("contexts must be finite")
        if self.actions.min() < 0 or self.actions.max() >= self.n_actions:
            raise ValueError("action index out of range")
        if not (self.rewards.min() >= self.r_min - 1e-12
                and self.rewards.max() <= self.r_max + 1e-12):
            raise ValueError("reward outside [r_min, r_max]")
        if self.propensities is not None:
            if self.propensities.shape != (n,):
                raise ValueError("misaligned propensities")
            if not (self.propensities.min() > 0
                    and self.propensities.max() <= 1):
                raise ValueError("propensities must lie in (0, 1]")

    def __len__(self) -> int:
        return self.contexts.shape[0]
