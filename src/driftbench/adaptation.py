"""End-to-end drift-handling strategies.

Every strategy sees labels only from the calibration batch.  Target batches
enter as :class:`TargetBatch`, which carries features and a batch id but no
labels, so post-calibration ground truth is structurally out of reach here;
evaluation reads it from the :class:`LabelStore` that the split produces.

Strategies:
  none       train once on calibration, apply unchanged.
  means      center calibration and each target batch on their own means.
  drca       per-target deflated weighted-covariance transform, then train
             on the projected calibration data.
  ldsp       as drca, with source-label scatter terms in the objective.
  selftrain  confidence-gated pseudo-labeling with retraining.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifier import ClassifierConfig, LogRegModel, predict, train_with_config
from .data_io import Batch, Dataset
from .preprocess import center_matrix
from .subspace import DrcaConfig, LdspConfig, drca_fit, ldsp_fit, project

logger = logging.getLogger(__name__)

METHOD_NAMES = ("none", "means", "drca", "ldsp", "selftrain")


@dataclass(frozen=True)
class SelfTrainConfig:
    """Pseudo-labeling loop settings."""

    confidence_threshold: float = 0.99
    max_rounds: int = 10
    cumulative: bool = True

    def __post_init__(self):
        if not 0 < self.confidence_threshold <= 1:
            raise ValueError(
                f"confidence_threshold must be in (0, 1], got {self.confidence_threshold}"
            )
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")


@dataclass(frozen=True)
class TargetBatch:
    """Features of one post-calibration batch; labels are deliberately absent."""

    batch_id: int
    features: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("target batch needs a non-empty (n, D) feature matrix")
        X.setflags(write=False)
        object.__setattr__(self, "features", X)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class PredictionSet:
    """Predicted labels and confidences for one (method, batch) cell."""

    method: str
    batch_id: int
    predicted: np.ndarray
    confidence: np.ndarray

    def __post_init__(self):
        pred = np.asarray(self.predicted, dtype=int)
        conf = np.asarray(self.confidence, dtype=float)
        if pred.shape != conf.shape or pred.ndim != 1:
            raise ValueError("predicted and confidence must be equal-length 1-D vectors")
        pred.setflags(write=False)
        conf.setflags(write=False)
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "confidence", conf)


class LabelStore:
    """Ground-truth labels keyed by batch id, for evaluation only.

    Adaptation strategies never receive this object; handing it to metric
    code is the single sanctioned way to read post-calibration labels.
    """

    def __init__(self, labels: dict[int, np.ndarray]):
        self._labels = {int(b): np.asarray(y, dtype=int) for b, y in labels.items()}

    def labels_for(self, batch_id: int) -> np.ndarray:
        return self._labels[batch_id]

    def batch_ids(self) -> list[int]:
        return sorted(self._labels)


def strip_labels(batch: Batch) -> TargetBatch:
    """Drop labels, keeping only what an un-recalibrated deployment would see."""
    return TargetBatch(batch.batch_id, batch.feature_matrix())


def split_calibration(dataset: Dataset) -> tuple[Batch, list[TargetBatch], LabelStore]:
    """Split into (labeled calibration batch, label-free targets, label store)."""
    calibration = dataset.batch(1)
    targets = [strip_labels(dataset.batch(b)) for b in dataset.batch_ids if b != 1]
    store = LabelStore({b: dataset.batch(b).label_vector() for b in dataset.batch_ids})
    return calibration, targets, store


def train_calibration_model(calibration: Batch, clf_config: ClassifierConfig) -> LogRegModel:
    """The zero-start model on the calibration batch that `none` and `selftrain` share."""
    return train_with_config(calibration.feature_matrix(), calibration.label_vector(), clf_config)


def run_no_adaptation(
    calibration: Batch,
    targets: Sequence[TargetBatch],
    clf_config: ClassifierConfig,
    calibration_model: LogRegModel | None = None,
) -> list[PredictionSet]:
    """Apply the calibration model (trained here if not given) to each target."""
    model = calibration_model
    if model is None:
        model = train_calibration_model(calibration, clf_config)
    out = []
    for t in targets:
        pred, conf = predict(model, t.features)
        out.append(PredictionSet("none", t.batch_id, pred, conf))
    return out


def run_means_correction(
    calibration: Batch,
    targets: Sequence[TargetBatch],
    clf_config: ClassifierConfig,
) -> list[PredictionSet]:
    """Center calibration and every target batch on their own means."""
    Xc, _ = center_matrix(calibration.feature_matrix())
    model = train_with_config(Xc, calibration.label_vector(), clf_config)
    out = []
    for t in targets:
        Tc, _ = center_matrix(t.features)
        pred, conf = predict(model, Tc)
        out.append(PredictionSet("means", t.batch_id, pred, conf))
    return out


def run_subspace_method(
    calibration: Batch,
    targets: Sequence[TargetBatch],
    method: str,
    config: DrcaConfig | LdspConfig,
    clf_config: ClassifierConfig,
) -> list[PredictionSet]:
    """Fit one transform and one classifier per target batch.

    For each target, source and target are mapped into the shared subspace,
    the classifier is trained on the projected calibration data, and the
    projected target is predicted.
    """
    if method not in ("drca", "ldsp"):
        raise ValueError(f"method must be 'drca' or 'ldsp', got '{method}'")
    X = calibration.feature_matrix()
    y = calibration.label_vector()
    out = []
    for t in targets:
        if method == "drca":
            proj = drca_fit(X, t.features, config)
        else:
            proj = ldsp_fit(X, y, t.features, config)
        model = train_with_config(project(proj, X, "source"), y, clf_config)
        pred, conf = predict(model, project(proj, t.features, "target"))
        out.append(PredictionSet(method, t.batch_id, pred, conf))
    return out


def run_self_training(
    calibration: Batch,
    targets: Sequence[TargetBatch],
    st_config: SelfTrainConfig,
    clf_config: ClassifierConfig,
    trace: list | None = None,
    calibration_model: LogRegModel | None = None,
) -> list[PredictionSet]:
    """Confidence-gated pseudo-labeling, batches processed in ascending order.

    Per batch, up to ``max_rounds`` times: train on the pool, predict the
    batch, and move not-yet-added points with confidence >= threshold into
    the pool under their predicted labels; stop early once a round adds
    nothing.  The last trained model provides the recorded predictions.
    Added points keep their first pseudo-label permanently.  In cumulative
    mode the pool carries across batches; otherwise it resets to the
    calibration data for every batch.  Every fit after the first starts from
    the weights of the model trained before it: the pool changes little
    between fits, and the optimum does not depend on the start.  A given
    ``calibration_model`` stands in for the first fit, which is the
    zero-start fit on the calibration batch alone.
    """
    ordered = sorted(targets, key=lambda t: t.batch_id)
    X0 = calibration.feature_matrix()
    y0 = calibration.label_vector()
    pool_X = [X0]
    pool_y = [y0]
    out = []
    model = None
    for t in ordered:
        if not st_config.cumulative:
            pool_X = [X0]
            pool_y = [y0]
        added = np.zeros(len(t), dtype=bool)
        pred = conf = None
        rounds = 0
        for _ in range(st_config.max_rounds):
            if model is None and calibration_model is not None:
                model = calibration_model
            else:
                model = train_with_config(
                    np.vstack(pool_X),
                    np.concatenate(pool_y),
                    clf_config,
                    init_weights=None if model is None else model.weights,
                )
            pred, conf = predict(model, t.features)
            rounds += 1
            gate = (conf >= st_config.confidence_threshold) & ~added
            if not gate.any():
                break
            pool_X.append(t.features[gate])
            pool_y.append(pred[gate])
            added |= gate
        if trace is not None:
            trace.append(
                {
                    "batch_id": t.batch_id,
                    "rounds": rounds,
                    "n_added": int(added.sum()),
                    "pool_size": int(sum(len(block) for block in pool_y)),
                }
            )
        out.append(PredictionSet("selftrain", t.batch_id, pred, conf))
    return out
