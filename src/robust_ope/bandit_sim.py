"""Supervised-to-bandit conversion and exact ground-truth policy values.

A multiclass dataset becomes a contextual bandit with binary reward
1{action == label}. Ground truth is the exact expectation of that reward
under the target policy, which reduces to the mean target probability of the
true label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import LoggedDataset
from .policies import Policy, sample_actions


class ParseError(ValueError):
    pass


@dataclass
class LabeledDataset:
    contexts: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) int
    n_classes: int

    def __post_init__(self):
        self.contexts = np.asarray(self.contexts, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.contexts.shape[0] < 1:
            raise ValueError("dataset must be nonempty")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.contexts.shape[0]


@dataclass
class SplitConfig:
    train_fraction: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


def load_csv(path, label_column: str) -> LabeledDataset:
    """Parse a comma-separated file with a header row and numeric features.

    Label values are re-indexed densely in sorted order (so e.g. character
    labels map to 0..K-1); K is the number of distinct labels. A file with
    no feature column or fewer than 2 classes is rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if label_column not in header:
            raise ParseError(f"{path}: no column named {label_column!r}")
        if len(header) < 2:
            raise ParseError(f"{path}: no feature columns")
        label_idx = header.index(label_column)
        rows, raw_labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} "
                                 f"fields, got {len(row)}")
            raw_labels.append(row[label_idx].strip())
            feats = [v for i, v in enumerate(row) if i != label_idx]
            try:
                rows.append([float(v) for v in feats])
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: non-numeric feature value") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    contexts = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(contexts).all(axis=1))
    if bad.size:  # float() also parses nan, inf and -Infinity
        raise ParseError(f"{path}:{bad[0] + 2}: non-finite feature value")
    classes = sorted(set(raw_labels))
    if len(classes) < 2:
        raise ParseError(f"{path}: need at least 2 label classes, "
                         f"found {len(classes)}")
    index = {c: i for i, c in enumerate(classes)}
    labels = np.array([index[c] for c in raw_labels])
    return LabeledDataset(contexts=contexts, labels=labels,
                          n_classes=len(classes))


def split(dataset: LabeledDataset,
          config: SplitConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint, exhaustive, seed-shuffled split; train size round(frac * n)."""
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    n_train = int(round(config.train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    tr, te = order[:n_train], order[n_train:]
    return (
        LabeledDataset(dataset.contexts[tr], dataset.labels[tr],
                       dataset.n_classes),
        LabeledDataset(dataset.contexts[te], dataset.labels[te],
                       dataset.n_classes),
    )


def standardize(train: LabeledDataset,
                *others: LabeledDataset) -> list[LabeledDataset]:
    """Zero-mean/unit-variance features using training-split statistics."""
    mean = train.contexts.mean(axis=0)
    std = train.contexts.std(axis=0)
    std[std == 0] = 1.0
    out = []
    for ds in (train, *others):
        out.append(LabeledDataset((ds.contexts - mean) / std, ds.labels,
                                  ds.n_classes))
    return out


def log_bandit_feedback(dataset: LabeledDataset, logging: Policy,
                        seed: int) -> LoggedDataset:
    """Sample one action per row from the logging policy; reward 1{a == label}.

    The logged propensity is the logging policy's exact probability of the
    sampled action.
    """
    if logging.n_actions != dataset.n_classes:
        raise ValueError("policy action count != number of classes")
    rng = np.random.default_rng(seed)
    probs = logging.probs_matrix(dataset.contexts)
    actions = sample_actions(probs, rng)
    propensities = probs[np.arange(len(dataset)), actions]
    rewards = (actions == dataset.labels).astype(float)
    return LoggedDataset(contexts=dataset.contexts, actions=actions,
                         rewards=rewards, n_actions=dataset.n_classes,
                         propensities=propensities)


def true_value(dataset: LabeledDataset, target: Policy) -> float:
    """Exact V under the target policy: mean of pi(label | x) over rows."""
    probs = target.probs_matrix(dataset.contexts)
    return float(np.mean(probs[np.arange(len(dataset)), dataset.labels]))


def make_synthetic_labeled(n: int, d: int, n_classes: int,
                           seed: int = 0, spread: float = 2.0) -> LabeledDataset:
    """Gaussian class blobs, for end-to-end runs without a CSV on disk."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, spread, size=(n_classes, d))
    labels = rng.integers(0, n_classes, size=n)
    contexts = centers[labels] + rng.standard_normal((n, d))
    return LabeledDataset(contexts=contexts, labels=labels,
                          n_classes=n_classes)
