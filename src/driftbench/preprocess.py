"""Feature scaling anchored on the calibration batch.

Min-max parameters are learned from batch 1 only and applied unchanged to
every batch, so later batches can (and do) land far outside [0, 1].  Outputs
are deliberately not clipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data_io import CALIBRATION_BATCH_ID, Batch, Dataset


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature extrema of the calibration batch."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min, dtype=float)
        hi = np.asarray(self.max, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("min/max must be 1-D vectors of equal length")
        if np.any(lo > hi):
            raise ValueError("min must not exceed max")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)


def fit_minmax(calibration: Batch) -> NormalizationParams:
    """Learn exact per-feature extrema from the calibration batch."""
    if len(calibration) == 0:
        raise ValueError("cannot fit normalization on an empty batch")
    X = calibration.features
    return NormalizationParams(X.min(axis=0), X.max(axis=0))


def apply_minmax_matrix(params: NormalizationParams, X: np.ndarray) -> np.ndarray:
    """Map feature j to (x - min_j) / (max_j - min_j); zero-range features to 0."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != params.min.shape[0]:
        raise ValueError(
            f"feature dimension {X.shape[-1]} does not match params ({params.min.shape[0]})"
        )
    span = params.max - params.min
    flat = span == 0
    out = np.subtract(X, params.min)
    out /= np.where(flat, 1.0, span)
    out[..., flat] = 0.0
    return out


def normalize_batch(params: NormalizationParams, batch: Batch) -> Batch:
    """Rescale a batch's features; values outside the calibration range are not clipped."""
    return replace(batch, features=apply_minmax_matrix(params, batch.features))


def normalize_batches(batches: dict[int, Batch]) -> None:
    """Rescale every batch of ``batches`` in place, with the extrema of batch 1.

    Each batch is replaced as soon as its rescaled copy exists, so a caller
    that holds no other reference to the old batches never holds two full
    copies of the data.
    """
    params = fit_minmax(batches[CALIBRATION_BATCH_ID])
    for bid in batches:
        batches[bid] = normalize_batch(params, batches[bid])


def normalize_dataset(dataset: Dataset) -> Dataset:
    """Rescale every batch with the extrema of batch 1; ``dataset`` is left as it was."""
    batches = dict(dataset.batches)
    normalize_batches(batches)
    return Dataset(batches)

