"""Supervised-to-bandit conversion and exact ground-truth policy values.

A multiclass dataset becomes a contextual bandit with binary reward
1{action == label}. Ground truth is the exact expectation of that reward
under the target policy, which reduces to the mean target probability of the
true label.
"""

from __future__ import annotations

import array
import csv
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, LoggedDataset, as_count
from .policies import Policy, probs_on, sample_actions


class ParseError(ValueError):
    pass


@dataclass
class SplitConfig:
    train_fraction: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        self.seed = as_count(self.seed, "seed", 0)


def load_csv(path, label_column: str) -> LabeledDataset:
    """Parse a comma-separated file with a header row and numeric features.

    Each row's features go through `float()` straight into one flat float64
    buffer, which becomes the (n, d) contexts without a copy. Label values
    are re-indexed densely in sorted order (so e.g. character labels map to
    0..K-1); K is the number of distinct labels. A file with no feature
    column, a label column named twice, or fewer than 2 classes is rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if label_column not in header:
            raise ParseError(f"{path}: no column named {label_column!r}")
        if header.count(label_column) > 1:
            raise ParseError(f"{path}: more than one column named "
                             f"{label_column!r}")
        if len(header) < 2:
            raise ParseError(f"{path}: no feature columns")
        label_idx = header.index(label_column)
        # each record's last file line, which a quoted cell may push past
        # its record number
        values, raw_labels, lines = array.array("d"), [], array.array("q")
        for row in reader:
            lines.append(reader.line_num)
            if len(row) != len(header):
                raise ParseError(f"{path}:{reader.line_num}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            raw_labels.append(row.pop(label_idx).strip())
            try:
                values.extend(map(float, row))
            except ValueError:
                raise ParseError(f"{path}:{reader.line_num}: non-numeric "
                                 f"feature value") from None
    if not raw_labels:
        raise ParseError(f"{path}: no data rows")
    contexts = np.frombuffer(values).reshape(len(raw_labels), -1)
    bad = np.flatnonzero(~np.isfinite(contexts).all(axis=1))
    if bad.size:  # float() also parses nan, inf and -Infinity
        raise ParseError(f"{path}:{lines[bad[0]]}: non-finite feature value")
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
        # (x - mean) / std, with one array fewer
        c = ds.contexts - mean
        c /= std
        out.append(LabeledDataset(c, ds.labels, ds.n_classes))
    return out


def log_bandit_feedback(dataset: LabeledDataset, logging: Policy,
                        seed: int) -> LoggedDataset:
    """Sample one action per row from the logging policy; reward 1{a == label}.

    The logged propensity is the logging policy's exact probability of the
    sampled action.
    """
    rng = np.random.default_rng(as_count(seed, "seed", 0))
    probs = probs_on(dataset.contexts, dataset.n_classes, logging, "logging")
    actions = sample_actions(probs, rng)
    propensities = probs[np.arange(len(dataset)), actions]
    rewards = (actions == dataset.labels).astype(float)
    return LoggedDataset(contexts=dataset.contexts, actions=actions,
                         rewards=rewards, n_actions=dataset.n_classes,
                         propensities=propensities)


def true_value(dataset: LabeledDataset, target: Policy) -> float:
    """Exact V under the target policy: mean of pi(label | x) over rows."""
    probs = probs_on(dataset.contexts, dataset.n_classes, target, "target")
    return float(np.mean(probs[np.arange(len(dataset)), dataset.labels]))


def make_synthetic_labeled(n: int, d: int, n_classes: int,
                           seed: int = 0, spread: float = 2.0) -> LabeledDataset:
    """Gaussian class blobs, for end-to-end runs without a CSV on disk."""
    n, d = as_count(n, "n"), as_count(d, "d")
    n_classes = as_count(n_classes, "n_classes", 2)
    if not 0.0 <= spread < np.inf:  # NaN fails this too
        raise ValueError(f"spread must be finite and >= 0, got {spread!r}")
    rng = np.random.default_rng(as_count(seed, "seed", 0))
    centers = rng.normal(0.0, spread, size=(n_classes, d))
    labels = rng.integers(0, n_classes, size=n)
    contexts = centers[labels] + rng.standard_normal((n, d))
    return LabeledDataset(contexts=contexts, labels=labels,
                          n_classes=n_classes)
