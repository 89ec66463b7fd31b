"""Classification metrics: accuracy and macro-F1."""

from __future__ import annotations

import numpy as np


def sorted_unique(values) -> np.ndarray:
    """The distinct values of a vector in ascending order, as ``np.unique``
    returns them for a vector without NaN.

    ``np.unique`` imports ``numpy.ma`` on its first call (numpy 2.4), a
    module that nothing else in a run needs.
    """
    v = np.sort(np.asarray(values).ravel())
    keep = np.ones(v.shape, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def _check_pair(predicted, actual) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predicted)
    a = np.asarray(actual)
    if p.shape != a.shape or p.ndim != 1:
        raise ValueError(f"label vectors must be equal-length 1-D, got {p.shape} vs {a.shape}")
    if p.shape[0] == 0:
        raise ValueError("label vectors must be non-empty")
    return p, a


def accuracy(predicted, actual) -> float:
    """Fraction of exact matches."""
    p, a = _check_pair(predicted, actual)
    return float(np.count_nonzero(p == a)) / p.shape[0]


def f1_score(predicted, actual) -> float:
    """Macro-F1: the unweighted mean of per-class F1 over classes occurring in
    either vector; a per-class precision or recall with a zero denominator
    counts as 0."""
    p, a = _check_pair(predicted, actual)
    classes = sorted_unique(np.concatenate([a, p]))
    f1 = np.zeros(classes.shape[0])
    for i, c in enumerate(classes):
        tp = np.count_nonzero((p == c) & (a == c))
        fp = np.count_nonzero((p == c) & (a != c))
        fn = np.count_nonzero((p != c) & (a == c))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1[i] = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return float(f1.mean())

