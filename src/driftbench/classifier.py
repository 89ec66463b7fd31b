"""Multinomial logistic regression with L2 regularization.

Trained by deterministic full-batch L-BFGS (Liu & Nocedal, 1989) with
Armijo backtracking from a unit step: no stochastic seed enters the
benchmark, and identical inputs yield bit-identical weights.  One fit,
``train_with_config``, takes a ``ClassifierConfig``; on ``n`` training
samples its objective is

    mean cross-entropy(softmax(W x + b), y)  +  (reg_strength / n) * ||W||_F^2

with the bias column excluded from the penalty.  It is strictly convex in
``W``, and the biases enter only through their differences, so the fitted
probabilities do not depend on the optimizer or on the starting weights:
the paper's plain gradient descent reaches the same model, only in far
more iterations.

Three things make a fit cheap without moving its optimum.  L-BFGS runs on
centred features scaled to unit RMS, ``(X - mu) / s``, with weights
``V = s W`` and biases ``b' = b + W mu``: an exact change of variables
that leaves every logit as it was but removes the ill conditioning of
features far from the origin (min-max data sits around 0.5) and of
weights on another scale than the biases.  ``s`` is one scalar, so a
rotation of the features still rotates the whole path.  The logits are
computed from ``X`` itself, so a fit copies no feature matrix.  Every
evaluation computes class-major (C, n) logits from a transposed view of
``X``, so the softmax reductions run along rows of samples, not along rows
only C wide.  Callers that fit a sequence of related problems pass the
previous model as ``init_weights``: self-training passes the model before
it, and DRCA/LDSP pass the calibration model or the previous target's
model, moved onto the new target's subspace (see ``adaptation``).

A fit stops when the 2-norm of the gradient with respect to the caller's
``(W, b)`` drops to ``tol``.  That norm does not depend on the feature
basis, so a fit on ``X R`` (``R`` orthogonal) stops where the fit on ``X``
does, at weights ``W R``.  A fit whose loss has stopped moving at the
floating-point floor stops too, and reports that it did not converge.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .metrics import sorted_unique

logger = logging.getLogger(__name__)

ARMIJO_C = 1e-4
MIN_STEP = 1e-20
LBFGS_MEMORY = 10  # curvature pairs kept by the two-loop recursion
STALL_STEPS = 50  # accepted steps in a row that leave the loss unchanged end a fit


@dataclass(frozen=True)
class ClassifierConfig:
    """Training settings; ``reg_strength`` is scaled by 1/n_train at fit time."""

    reg_strength: float = 1.0
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if self.reg_strength <= 0:
            raise ValueError(f"reg_strength must be > 0, got {self.reg_strength}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class LogRegModel:
    """Fitted weights; last column of ``weights`` is the bias."""

    weights: np.ndarray
    class_ids: np.ndarray
    n_iter: int
    converged: bool

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        ids = np.asarray(self.class_ids, dtype=int)
        if w.ndim != 2 or w.shape[0] != ids.shape[0]:
            raise ValueError("weights must be (C, k+1) matching class_ids")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        ids.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "class_ids", ids)


def _label_picks(y_idx: np.ndarray, n: int) -> np.ndarray:
    """Flat indices of each sample's true-class entry in a (C, n) array."""
    return np.asarray(y_idx) * n + np.arange(n)


def _kernel(
    params: np.ndarray,
    X: np.ndarray,
    center: np.ndarray,
    scale: float,
    picks: np.ndarray,
    n_classes: int,
    reg_strength: float,
) -> tuple[float, np.ndarray]:
    """Objective and gradient at the flat scaled, centred parameters ``(V, b')``.

    ``V = scale W`` are the weights of the features ``(X - center) / scale``
    and ``b' = b + W center`` their biases.  The logits
    ``V (x - center) / scale + b'`` equal ``W x + b``, so they are computed
    from ``X`` itself, with no centred or scaled copy: the centring enters
    the gradient only as ``-g_b' centerᵀ`` on the weights, and the scale as
    ``g_V = g_W / scale``.  Logits are class-major, ``W @ X.T`` of shape
    (C, n) through a transposed view of ``X``, so the softmax reductions run
    over the short class axis 0 across whole rows of samples.
    """
    n = X.shape[0]
    P = params.reshape(n_classes, -1)
    W = P[:, :-1] / scale
    Zt = W @ X.T
    Zt += (P[:, -1] - W @ center)[:, None]
    Zt -= Zt.max(axis=0)
    # mean(lse - z_true) with both shifted by the column max m: lse - m = log(denom)
    z_true = float(Zt.ravel()[picks].sum())
    E = np.exp(Zt, out=Zt)
    denom = E.sum(axis=0)
    nll = (float(np.log(denom).sum()) - z_true) / n
    loss = nll + reg_strength * float(np.vdot(W, W))
    E /= denom
    E.ravel()[picks] -= 1.0
    E /= n
    g_b = E.sum(axis=1)
    g_W = E @ X
    g_W += (2.0 * reg_strength) * W - np.multiply.outer(g_b, center)
    g_W /= scale
    return loss, np.hstack([g_W, g_b[:, None]]).ravel()


def _uncentred_grad_norm(
    grad: np.ndarray, center: np.ndarray, scale: float, n_classes: int
) -> float:
    """2-norm of the gradient with respect to the caller's uncentred ``(W, b)``.

    With ``V = scale W`` and ``b' = b + W center``, the chain rule gives
    ``scale g_V + g_b' centerᵀ`` for the weights and ``g_b'`` for the
    biases.  A rotation of the features, ``X R`` for orthogonal ``R``,
    rotates the weight gradient to ``g_W R`` and keeps its 2-norm, so this
    norm, unlike the largest entry, does not depend on the feature basis.
    """
    G = grad.reshape(n_classes, -1)
    g_b = G[:, -1]
    g_W = scale * G[:, :-1] + np.multiply.outer(g_b, center)
    return float(np.sqrt(np.vdot(g_W, g_W) + np.vdot(g_b, g_b)))


def _lbfgs_direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """Two-loop recursion: minus the inverse-Hessian estimate times ``grad``."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.vdot(s, q))
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(np.vdot(s, y)) / float(np.vdot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(np.vdot(y, q))) * s
    return -q


def train_with_config(
    X: np.ndarray, y, config: ClassifierConfig, init_weights: np.ndarray | None = None
) -> LogRegModel:
    """Fit by L-BFGS until the gradient's 2-norm drops to ``config.tol``, the
    loss stalls, or ``config.max_iter`` steps elapse; a stop short of ``tol`` warns.

    The coefficient on ||W||_F^2 is ``config.reg_strength / n`` for ``n``
    training samples, beside a per-sample mean loss.  The fit starts from
    zero weights, or from ``init_weights`` (a (C, k+1) matrix, e.g. an
    earlier model's ``weights``) when given; the objective is strictly
    convex, so the start changes only the iterations spent.

    L-BFGS runs on the centred features scaled to unit RMS,
    ``(X - mu) / s`` (``mu`` the column means, ``s`` the RMS of the centred
    entries), with weights ``V = s W`` and biases ``b' = b + W mu``: the
    logits, and so every objective value, are the same as for ``(W, b)`` on
    ``X``, but the problem is far better conditioned when ``X`` sits away
    from the origin or its scale is far from the biases'.  The stop test,
    ``converged`` and the warning read the 2-norm of the gradient with
    respect to the uncentred ``(W, b)``, so ``tol`` keeps its meaning in the
    caller's terms and does not depend on the feature basis, and the
    returned weights are the uncentred ``(W, b)``.  A fit whose last
    ``STALL_STEPS`` accepted steps all left the loss where it was has
    reached the floating-point floor before ``tol`` and stops there.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D (n, k) matrix")
    if y.shape != (X.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {X.shape[0]} samples")
    if not np.all(np.isfinite(X)):
        raise ValueError("training features must be finite")
    class_ids = sorted_unique(y)
    n, k = X.shape
    C = class_ids.shape[0]
    if C < 2:
        raise ValueError("training data must contain at least 2 classes")
    if n < C:
        raise ValueError(f"need at least as many samples ({n}) as classes ({C})")
    y_idx = np.searchsorted(class_ids, y)
    reg_strength, tol = config.reg_strength / n, config.tol

    if init_weights is None:
        params = np.zeros((C, k + 1))
    else:
        params = np.array(init_weights, dtype=float)
        if params.shape != (C, k + 1):
            raise ValueError(f"init_weights shape {params.shape} does not match {(C, k + 1)}")
        if not np.all(np.isfinite(params)):
            raise ValueError("init_weights must be finite")
    mu = X.mean(axis=0)
    # s² = (mean of x·x - mu·mu) / k: the mean square of the centred entries, uncopied
    scale = float(np.sqrt(max(np.vdot(X, X) / n - mu @ mu, 0.0) / k)) or 1.0
    picks = _label_picks(y_idx, n)
    params[:, -1] += params[:, :-1] @ mu
    params[:, :-1] *= scale
    params = params.ravel()

    loss, grad = _kernel(params, X, mu, scale, picks, C, reg_strength)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    stalled = 0
    n_iter = 0
    while n_iter < config.max_iter and stalled < STALL_STEPS:
        if _uncentred_grad_norm(grad, mu, scale, C) <= tol:
            break
        direction = _lbfgs_direction(grad, pairs)
        slope = float(np.vdot(grad, direction))
        if not slope < 0:
            direction = -grad
            slope = -float(np.vdot(grad, grad))
        step = 1.0
        while step >= MIN_STEP:
            trial = params + step * direction
            trial_loss, trial_grad = _kernel(trial, X, mu, scale, picks, C, reg_strength)
            if trial_loss <= loss + ARMIJO_C * step * slope:
                break
            step *= 0.5
        if step < MIN_STEP:
            # no descent step exists at float precision; treat as stationary
            break
        s, g_diff = trial - params, trial_grad - grad
        sy = float(np.vdot(s, g_diff))
        if sy > 0:
            pairs.append((s, g_diff, 1.0 / sy))
        stalled = stalled + 1 if trial_loss >= loss else 0
        params, loss, grad = trial, trial_loss, trial_grad
        n_iter += 1
    grad_norm = _uncentred_grad_norm(grad, mu, scale, C)
    converged = grad_norm <= tol
    if not converged:
        logger.warning(
            "optimizer stopped after %d iteration(s) with gradient norm %.3e > tol %.1e%s",
            n_iter,
            grad_norm,
            tol,
            f": the loss stalled for {stalled} steps" if stalled >= STALL_STEPS else "",
        )
    weights = params.reshape(C, k + 1)
    weights[:, :-1] /= scale
    weights[:, -1] -= weights[:, :-1] @ mu
    return LogRegModel(
        weights=weights,
        class_ids=class_ids,
        n_iter=n_iter,
        converged=converged,
    )


def _class_major_proba(model: LogRegModel, X: np.ndarray) -> np.ndarray:
    """Softmax probabilities as a class-major (C, n) array; each column sums to 1.

    As in the training kernel, the logits ``W @ X.T`` come from a transposed
    view of ``X`` and the reductions run over the short class axis 0.
    """
    X = np.asarray(X, dtype=float)
    dim = model.weights.shape[1] - 1
    if X.ndim != 2 or X.shape[1] != dim:
        got = X.shape[-1] if X.ndim else "?"
        raise ValueError(f"input dim {got} does not match model ({dim})")
    W, b = model.weights[:, :-1], model.weights[:, -1]
    Zt = W @ X.T
    Zt += b[:, None]
    Zt -= Zt.max(axis=0)
    E = np.exp(Zt, out=Zt)
    E /= E.sum(axis=0)
    return E


def predict(model: LogRegModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most probable class per row and its probability; ties go to the lowest id."""
    P = _class_major_proba(model, X)
    idx = P.argmax(axis=0)
    return model.class_ids[idx], P[idx, np.arange(P.shape[1])]
