"""The record classes shared across modules: labeled and logged data.

Both compare and hash by identity, so a record can key a dict.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def as_count(value, name: str, low: int = 1) -> int:
    """`value` as an int of at least `low`: the one count rule for sizes,
    counts and seeds. Ints and numpy ints pass; a float, even 2.0, does not."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {count}")
    return count


def as_indices(values, name: str, n: int) -> np.ndarray:
    """`values` as an int array of indices in [0, n): the one index rule for
    actions and labels. A float that the int cast would change (0.7, NaN,
    inf) is rejected rather than truncated; 1.0 is kept as 1."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f":
        bad = ~np.isfinite(raw) | (raw != np.trunc(raw))
        if bad.any():
            raise ValueError(f"{name} must be whole numbers, got "
                             f"{raw[bad].flat[0]}")
    idx = np.asarray(raw, dtype=int)
    if idx.size and not (idx.min() >= 0 and idx.max() < n):
        raise ValueError(f"{name} must lie in [0, {n})")
    return idx


def as_contexts(values) -> np.ndarray:
    """`values` as a 2-D float array of finite contexts."""
    contexts = np.asarray(values, dtype=float)
    if contexts.ndim != 2:
        raise ValueError(f"contexts must be 2-D, got shape {contexts.shape}")
    if not np.isfinite(contexts).all():
        raise ValueError("contexts must be finite")
    return contexts


@dataclass(eq=False)
class LabeledDataset:
    """Fully observed (context, label) pairs; compares by identity."""

    contexts: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) int
    n_classes: int

    def __post_init__(self):
        self.n_classes = as_count(self.n_classes, "n_classes")
        self.contexts = as_contexts(self.contexts)
        self.labels = as_indices(self.labels, "labels", self.n_classes)
        if self.contexts.shape[0] < 1:
            raise ValueError("dataset must be nonempty")
        if self.labels.shape != self.contexts.shape[:1]:
            raise ValueError(f"labels must have shape "
                             f"{self.contexts.shape[:1]}, got "
                             f"{self.labels.shape}")

    def __len__(self) -> int:
        return self.contexts.shape[0]


@dataclass(frozen=True, eq=False)
class LoggedDataset:
    """Records of (context, chosen action, observed reward, optional propensity).

    `propensities`, when present, holds the logging policy's probability of
    the logged action and takes precedence over evaluating a logging Policy.
    Frozen: derive a changed log with `dataclasses.replace`. Compares and
    hashes by identity, so each live log keys its own scoring memo entry.
    """

    contexts: np.ndarray  # (n, d)
    actions: np.ndarray  # (n,) int
    rewards: np.ndarray  # (n,)
    n_actions: int
    propensities: np.ndarray | None = None  # (n,)
    r_min: float = 0.0
    r_max: float = 1.0

    def __post_init__(self):
        normal = {"n_actions": as_count(self.n_actions, "n_actions"),
                  "contexts": as_contexts(self.contexts),
                  "actions": as_indices(self.actions, "actions",
                                        self.n_actions),
                  "rewards": np.asarray(self.rewards, dtype=float)}
        if self.propensities is not None:
            normal["propensities"] = np.asarray(self.propensities, dtype=float)
        for name, value in normal.items():
            object.__setattr__(self, name, value)
        n = self.contexts.shape[0]
        if self.actions.shape != (n,) or self.rewards.shape != (n,):
            raise ValueError("misaligned record arrays")
        if n == 0:
            raise ValueError("empty logged dataset")
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
