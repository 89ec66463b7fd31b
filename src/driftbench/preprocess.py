"""Feature scaling anchored on the calibration batch.

Min-max extrema are learned from batch 1 only, as a ``(min, max)`` pair of
per-feature vectors, and applied unchanged to every batch, so later batches
can (and do) land far outside [0, 1].  Outputs are deliberately not clipped.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data_io import CALIBRATION_BATCH_ID, Batch, Dataset


def fit_minmax(calibration: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Learn exact per-feature extrema ``(min, max)`` from the calibration batch."""
    if len(calibration) == 0:
        raise ValueError("cannot fit normalization on an empty batch")
    X = calibration.features
    return X.min(axis=0), X.max(axis=0)


def apply_minmax_matrix(extrema: tuple[np.ndarray, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Map feature j to (x - min_j) / (max_j - min_j); zero-range features to 0."""
    lo, hi = extrema
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != lo.shape[0]:
        raise ValueError(f"feature dimension {X.shape[-1]} does not match extrema ({lo.shape[0]})")
    span = hi - lo
    flat = span == 0
    out = np.subtract(X, lo)
    out /= np.where(flat, 1.0, span)
    out[..., flat] = 0.0
    return out


def normalize_batches(batches: dict[int, Batch]) -> None:
    """Rescale every batch of ``batches`` in place, with the extrema of batch 1.

    Each batch is replaced as soon as its rescaled copy exists, so a caller
    that holds no other reference to the old batches never holds two full
    copies of the data.  Values outside the calibration range are not clipped.
    """
    extrema = fit_minmax(batches[CALIBRATION_BATCH_ID])
    for bid, batch in batches.items():
        batches[bid] = replace(batch, features=apply_minmax_matrix(extrema, batch.features))


def normalize_dataset(dataset: Dataset) -> Dataset:
    """Rescale every batch with the extrema of batch 1; ``dataset`` is left as it was."""
    batches = dict(dataset.batches)
    normalize_batches(batches)
    return Dataset(batches)
