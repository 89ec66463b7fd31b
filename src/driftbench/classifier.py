"""Multinomial logistic regression with L2 regularization.

Trained by deterministic full-batch L-BFGS (Liu & Nocedal, 1989) with
Armijo backtracking from a unit step: no stochastic seed enters the
benchmark, and identical inputs yield bit-identical weights.  The objective
is

    mean cross-entropy(softmax(W x + b), y)  +  reg_strength * ||W||_F^2

with the bias column excluded from the penalty.  It is strictly convex in
``W``, and the biases enter only through their differences, so the fitted
probabilities do not depend on the optimizer or on the starting weights:
the paper's plain gradient descent reaches the same model, only in far
more iterations.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

ARMIJO_C = 1e-4
MIN_STEP = 1e-20
LBFGS_MEMORY = 10  # curvature pairs kept by the two-loop recursion


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
    reg_strength: float
    trained_on_dim: int
    n_iter: int
    converged: bool
    loss_trace: tuple[float, ...] = ()

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


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def objective(params: np.ndarray, X: np.ndarray, y_idx: np.ndarray, reg_strength: float) -> float:
    """Regularized mean cross-entropy at the given (C, k+1) parameter matrix."""
    W, b = params[:, :-1], params[:, -1]
    Z = X @ W.T + b
    m = Z.max(axis=1)
    lse = m + np.log(np.exp(Z - m[:, None]).sum(axis=1))
    nll = float(np.mean(lse - Z[np.arange(X.shape[0]), y_idx]))
    return nll + reg_strength * float((W * W).sum())


def objective_and_gradient(
    params: np.ndarray, X: np.ndarray, y_idx: np.ndarray, reg_strength: float
) -> tuple[float, np.ndarray]:
    """Objective value and its gradient with respect to the full parameter matrix."""
    n = X.shape[0]
    W, b = params[:, :-1], params[:, -1]
    Z = X @ W.T + b
    m = Z.max(axis=1)
    logp = Z - m[:, None]
    e = np.exp(logp)
    denom = e.sum(axis=1)
    lse = m + np.log(denom)
    nll = float(np.mean(lse - Z[np.arange(n), y_idx]))
    loss = nll + reg_strength * float((W * W).sum())
    P = e / denom[:, None]
    P[np.arange(n), y_idx] -= 1.0
    P /= n
    gW = P.T @ X + 2.0 * reg_strength * W
    gb = P.sum(axis=0)
    return loss, np.hstack([gW, gb[:, None]])


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


def train(
    X: np.ndarray,
    y,
    reg_strength: float,
    tol: float = 1e-6,
    max_iter: int = 1000,
    init_weights: np.ndarray | None = None,
) -> LogRegModel:
    """Fit by L-BFGS until the gradient infinity-norm drops to ``tol`` or
    ``max_iter`` steps elapse (then warns).

    The fit starts from zero weights, or from ``init_weights`` (a
    (C, k+1) matrix, e.g. an earlier model's ``weights``) when given; the
    objective is strictly convex, so the start changes only the iterations
    spent.  ``reg_strength`` is the literal coefficient on ||W||_F^2; the
    loss term is a per-sample mean, so duplicating the training set leaves
    the optimization problem unchanged.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D (n, k) matrix")
    if y.shape != (X.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {X.shape[0]} samples")
    if not np.all(np.isfinite(X)):
        raise ValueError("training features must be finite")
    if reg_strength <= 0:
        raise ValueError(f"reg_strength must be > 0, got {reg_strength}")
    class_ids = np.unique(y)
    n, k = X.shape
    C = class_ids.shape[0]
    if C < 2:
        raise ValueError("training data must contain at least 2 classes")
    if n < C:
        raise ValueError(f"need at least as many samples ({n}) as classes ({C})")
    y_idx = np.searchsorted(class_ids, y)

    if init_weights is None:
        params = np.zeros((C, k + 1))
    else:
        params = np.array(init_weights, dtype=float)
        if params.shape != (C, k + 1):
            raise ValueError(f"init_weights shape {params.shape} does not match {(C, k + 1)}")
        if not np.all(np.isfinite(params)):
            raise ValueError("init_weights must be finite")
    loss, grad = objective_and_gradient(params, X, y_idx, reg_strength)
    trace = [loss]
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    converged = False
    n_iter = 0
    while n_iter < max_iter:
        if np.abs(grad).max() <= tol:
            converged = True
            break
        direction = _lbfgs_direction(grad, pairs)
        slope = float(np.vdot(grad, direction))
        if not slope < 0:
            direction = -grad
            slope = -float(np.vdot(grad, grad))
        step = 1.0
        while step >= MIN_STEP:
            trial = params + step * direction
            trial_loss, trial_grad = objective_and_gradient(trial, X, y_idx, reg_strength)
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
        params, loss, grad = trial, trial_loss, trial_grad
        trace.append(loss)
        n_iter += 1
    if not converged and np.abs(grad).max() <= tol:
        converged = True
    if not converged:
        logger.warning(
            "optimizer stopped after %d iteration(s) with gradient norm %.3e > tol %.1e",
            n_iter,
            float(np.abs(grad).max()),
            tol,
        )
    return LogRegModel(
        weights=params,
        class_ids=class_ids,
        reg_strength=float(reg_strength),
        trained_on_dim=k,
        n_iter=n_iter,
        converged=converged,
        loss_trace=tuple(trace),
    )


def train_with_config(
    X: np.ndarray, y, config: ClassifierConfig, init_weights: np.ndarray | None = None
) -> LogRegModel:
    """Train with the config's per-sample regularization scale applied."""
    n = np.asarray(X).shape[0]
    if n < 1:
        raise ValueError("cannot train on an empty matrix")
    return train(
        X,
        y,
        config.reg_strength / n,
        tol=config.tol,
        max_iter=config.max_iter,
        init_weights=init_weights,
    )


def predict_proba(model: LogRegModel, X: np.ndarray) -> np.ndarray:
    """Per-class softmax probabilities; each row sums to 1."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.trained_on_dim:
        raise ValueError(
            f"input dim {X.shape[-1] if X.ndim else '?'} does not match "
            f"model ({model.trained_on_dim})"
        )
    W, b = model.weights[:, :-1], model.weights[:, -1]
    return _softmax(X @ W.T + b)


def predict(model: LogRegModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most probable class per row and its probability; ties go to the lowest id."""
    P = predict_proba(model, X)
    idx = P.argmax(axis=1)
    return model.class_ids[idx], P[np.arange(P.shape[0]), idx]

