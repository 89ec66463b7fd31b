"""End-to-end drift-handling strategies.

Every strategy sees labels only from the calibration batch.  Target batches
enter as :class:`TargetBatch`, which carries features and a batch id but no
labels, so post-calibration ground truth is structurally out of reach here;
evaluation reads it from the :class:`LabelStore` that the split produces.

Every strategy takes the calibration model, the zero-start fit on the
calibration batch (:func:`train_calibration_model`), which the caller trains
once and passes to all of them; none of them trains it again.

Strategies:
  none       apply the calibration model unchanged.
  means      center calibration and each target batch on their own means;
             the calibration model, shifted, is the centred fit.
  drca       per-target deflated weighted-covariance transform, then train
             on the projected calibration data.
  ldsp       as drca, with source-label scatter terms in the objective.
  selftrain  confidence-gated pseudo-labeling; a round refits only a pool
             that has grown since its model was fitted, and a reset pool
             takes the calibration model.

At full complement (components = D - 1) drca and ldsp coincide on every
drifted target: the calibration fit with its weights kept orthogonal to the
mean difference, with no eigenproblem and no projection, in one chain of
fits (``run_complement``) that both share, seeded from the calibration model.
Every other drca/ldsp target takes an eigen fit, and each eigen fit starts
from one carried model on source-centred features: the calibration model
first, then the last eigen fit's model lifted back to feature space.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .classifier import ClassifierConfig, LogRegModel, predict, train_with_config
from .data_io import CALIBRATION_BATCH_ID, Batch, Dataset
from .subspace import DrcaConfig, LdspConfig, deflation_threshold, drca_fit, ldsp_fit, project

logger = logging.getLogger(__name__)

METHOD_NAMES = ("none", "means", "drca", "ldsp", "selftrain")


@dataclass(frozen=True)
class SelfTrainConfig:
    """Pseudo-labeling loop settings."""

    threshold: float = 0.99
    max_rounds: int = 10
    cumulative: bool = True

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
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


def strip_labels(batch: Batch) -> TargetBatch:
    """Drop labels, keeping only what an un-recalibrated deployment would see."""
    return TargetBatch(batch.batch_id, batch.features)


def split_calibration(dataset: Dataset) -> tuple[Batch, list[TargetBatch], LabelStore]:
    """Split into (labeled calibration batch, label-free targets, label store)."""
    calibration = dataset.batch(CALIBRATION_BATCH_ID)
    targets = [
        strip_labels(dataset.batch(b)) for b in dataset.batch_ids if b != CALIBRATION_BATCH_ID
    ]
    store = LabelStore({b: dataset.batch(b).labels for b in dataset.batch_ids})
    return calibration, targets, store


def train_calibration_model(calibration: Batch, clf_config: ClassifierConfig) -> LogRegModel:
    """The zero-start model on the calibration batch, which every strategy takes.

    `none`, `means` and `selftrain` use it as it is, and it seeds
    :func:`run_complement`'s chain and the first eigen fit of
    :func:`run_subspace_method`.
    """
    return train_with_config(calibration.features, calibration.labels, clf_config)


def run_no_adaptation(
    targets: Sequence[TargetBatch], calibration_model: LogRegModel
) -> list[PredictionSet]:
    """Apply the calibration model to each target."""
    out = []
    for t in targets:
        pred, conf = predict(calibration_model, t.features)
        out.append(PredictionSet("none", t.batch_id, pred, conf))
    return out


def run_means_correction(
    calibration: Batch, targets: Sequence[TargetBatch], calibration_model: LogRegModel
) -> list[PredictionSet]:
    """Center calibration and every target batch on their own means.

    The fit on the centred calibration batch is the calibration model
    ``(W, b)`` with biases ``b + W mu_s``: the logits of ``x - mu_s`` are
    unchanged, and the optimum does not depend on a shift of the features.
    So the model is shifted, not refitted, and the target's own centring
    moves into its biases too: ``x - mu_t`` scores as ``x`` does under biases
    ``b + W (mu_s - mu_t)``, with no centred copy.
    """
    W, b = calibration_model.weights[:, :-1], calibration_model.weights[:, -1:]
    mu_s = calibration.features.mean(axis=0)
    out = []
    for t in targets:
        shift = W @ (mu_s - t.features.mean(axis=0))
        shifted = replace(calibration_model, weights=np.hstack([W, b + shift[:, None]]))
        pred, conf = predict(shifted, t.features)
        out.append(PredictionSet("means", t.batch_id, pred, conf))
    return out


def run_complement(
    calibration: Batch,
    targets: Sequence[TargetBatch],
    clf_config: ClassifierConfig,
    calibration_model: LogRegModel,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The full-complement chain that DRCA and LDSP share at ``components`` = D - 1.

    Covers every target whose mean differs from the calibration mean by more
    than ``deflation_threshold``: keeping the whole complement of the mean
    difference ``d = mu_s - mu_t`` is the calibration fit with its weights
    kept orthogonal to ``d``, whatever the method or its weights.  With
    ``u = d / |d|``, each target takes one classifier fit on ``X - (X u) uᵀ``,
    which has no component along ``u``: every gradient, and so every step,
    is orthogonal to ``u``, and a start orthogonal to ``u`` keeps the
    weights there.  Then ``W d = 0``, the target's shift leaves its logits
    alone, and the target is predicted as it is.  Returns
    ``{batch_id: (predicted, confidence)}``.

    The first fit starts from the calibration model, every later fit from
    the model before it, both as ``[W - (W u) uᵀ, b + (W u)(u · mu_s)]``,
    which keeps the logits at ``mu_s``.  The optimum does not depend on the
    start.
    """
    X, y = calibration.features, calibration.labels
    mu_s = X.mean(axis=0)
    out = {}
    model = calibration_model
    for t in targets:
        d = mu_s - t.features.mean(axis=0)
        norm = np.linalg.norm(d)
        if norm <= deflation_threshold(X.shape[1]):
            continue
        u = d / norm
        W, b = model.weights[:, :-1], model.weights[:, -1]
        Wu = W @ u
        init = np.hstack([W - np.outer(Wu, u), (b + Wu * (u @ mu_s))[:, None]])
        model = train_with_config(X - np.outer(X @ u, u), y, clf_config, init_weights=init)
        out[t.batch_id] = predict(model, t.features)
    return out


def run_subspace_method(
    calibration: Batch,
    targets: Sequence[TargetBatch],
    method: str,
    config: DrcaConfig | LdspConfig,
    clf_config: ClassifierConfig,
    calibration_model: LogRegModel,
    complement: dict[int, tuple[np.ndarray, np.ndarray]],
) -> list[PredictionSet]:
    """Fit one transform and one classifier per target batch.

    For each target, source and target are mapped into the shared subspace,
    the classifier is trained on the projected calibration data, and the
    projected target is predicted.  At ``components`` = D - 1 a target whose
    mean differs from the calibration mean (above ``deflation_threshold``)
    keeps the whole complement of the mean difference, so the method and its
    weights cannot move it: its predictions come from ``complement``,
    :func:`run_complement`'s chain, which DRCA and LDSP share.  An empty
    ``complement`` sends every target through the eigen path, as does every
    smaller ``components``, which ignores it.

    Each eigen fit (``drca_fit`` or ``ldsp_fit``, then a classifier fit)
    starts from one carried model ``(W_c, b_c)`` on source-centred features.
    It starts as the calibration model ``(W, b)`` shifted to ``(W, b + W
    mu_s)``.  A fit with projection matrix ``M`` starts from ``[W_c M,
    b_c]``, which keeps the carried logits where ``M Mᵀ`` keeps the
    features, since ``project`` centres each domain on its own mean; its
    model ``(W_new, b_new)`` is then carried on as ``(W_new Mᵀ, b_new)``.
    The optimum does not depend on the start.
    """
    if method not in ("drca", "ldsp"):
        raise ValueError(f"method must be 'drca' or 'ldsp', got '{method}'")
    X, y = calibration.features, calibration.labels
    if config.components != X.shape[1] - 1:
        complement = {}
    W, b = calibration_model.weights[:, :-1], calibration_model.weights[:, -1]
    carried = W, b + W @ X.mean(axis=0)
    out = []
    for t in targets:
        if t.batch_id in complement:
            out.append(PredictionSet(method, t.batch_id, *complement[t.batch_id]))
            continue
        if method == "drca":
            proj = drca_fit(X, t.features, config)
        else:
            proj = ldsp_fit(X, y, t.features, config)
        W, b = carried
        init = np.hstack([W @ proj.matrix, b[:, None]])
        model = train_with_config(project(proj, X, "source"), y, clf_config, init_weights=init)
        carried = model.weights[:, :-1] @ proj.matrix.T, model.weights[:, -1]
        pred, conf = predict(model, project(proj, t.features, "target"))
        out.append(PredictionSet(method, t.batch_id, pred, conf))
    return out


def run_self_training(
    calibration: Batch,
    targets: Sequence[TargetBatch],
    st_config: SelfTrainConfig,
    clf_config: ClassifierConfig,
    calibration_model: LogRegModel,
    trace: list | None = None,
) -> list[PredictionSet]:
    """Confidence-gated pseudo-labeling, batches processed in ascending order.

    Per batch, up to ``max_rounds`` times: predict the batch with the current
    model, and move not-yet-added points with confidence >= threshold into
    the pool under their predicted labels; stop early once a round adds
    nothing.  The last round's predictions are the recorded ones.  Added
    points keep their first pseudo-label permanently.  In cumulative mode
    the pool carries across batches; otherwise it resets to the calibration
    data for every batch, and the model to the calibration model, the fit on
    that pool.

    A round refits only when the pool has grown since the current model was
    fitted, so no fit repeats one on the same pool.  The pool is a list of
    blocks that only grows between resets, and ``fitted`` counts the blocks
    the current model was fitted on: the calibration model covers the first.
    Every refit starts from the weights of the model before it: the pool
    changes little between fits, and the optimum does not depend on the
    start.
    """
    ordered = sorted(targets, key=lambda t: t.batch_id)
    X0, y0 = calibration.features, calibration.labels
    pool_X, pool_y = [X0], [y0]
    model, fitted = calibration_model, 1
    out = []
    for t in ordered:
        if not st_config.cumulative:
            pool_X, pool_y = [X0], [y0]
            model, fitted = calibration_model, 1
        added = np.zeros(len(t), dtype=bool)
        rounds = 0
        for _ in range(st_config.max_rounds):
            if len(pool_y) > fitted:
                model = train_with_config(
                    np.vstack(pool_X),
                    np.concatenate(pool_y),
                    clf_config,
                    init_weights=model.weights,
                )
                fitted = len(pool_y)
            pred, conf = predict(model, t.features)
            rounds += 1
            gate = (conf >= st_config.threshold) & ~added
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
