"""Independent reference implementations used to check the library's results.

These deliberately avoid the code paths they verify: covariance by explicit
double loop, metrics by pure-Python confusion counting, the two-class
discriminant direction by closed form and by grid search, the classifier's
objective by row-major logits on the uncentred weights.
"""

import numpy as np


def brute_covariance(X):
    """(1/n) sum of outer products, element by element."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    mean = [sum(X[i, j] for i in range(n)) / n for j in range(d)]
    C = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            C[a, b] = sum((X[i, a] - mean[a]) * (X[i, b] - mean[b]) for i in range(n)) / n
    return C


def confusion_accuracy(predicted, actual):
    hits = sum(1 for p, a in zip(predicted, actual) if p == a)
    return hits / len(actual)


def confusion_macro_f1(predicted, actual):
    classes = sorted(set(actual) | set(predicted))
    scores = []
    for c in classes:
        tp = sum(1 for p, a in zip(predicted, actual) if p == c and a == c)
        fp = sum(1 for p, a in zip(predicted, actual) if p == c and a != c)
        fn = sum(1 for p, a in zip(predicted, actual) if p != c and a == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores)


def logreg_objective(params, X, y_idx, reg_strength):
    """Regularized mean cross-entropy at the given (C, k+1) parameter matrix."""
    W, b = params[:, :-1], params[:, -1]
    Z = X @ W.T + b
    m = Z.max(axis=1)
    lse = m + np.log(np.exp(Z - m[:, None]).sum(axis=1))
    nll = float(np.mean(lse - Z[np.arange(X.shape[0]), y_idx]))
    return nll + reg_strength * float((W * W).sum())


def two_class_discriminant_closed_form(X, y):
    """Closed-form top discriminant direction for exactly two classes."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    classes = np.unique(y)
    assert classes.shape[0] == 2
    d = X.shape[1]
    s_w = np.zeros((d, d))
    for c in classes:
        Xc = X[y == c]
        centered = Xc - Xc.mean(axis=0)
        s_w += centered.T @ centered
    s_w /= X.shape[0]
    eps = 1e-6 * np.trace(s_w) / d
    diff = X[y == classes[0]].mean(axis=0) - X[y == classes[1]].mean(axis=0)
    v = np.linalg.solve(s_w + eps * np.eye(d), diff)
    return v / np.linalg.norm(v)


def grid_search_discriminant_2d(s_w, s_b, eps, resolution=200_000):
    """Maximize the 2-D Fisher quotient over a dense angle grid."""
    theta = np.linspace(0.0, np.pi, resolution, endpoint=False)
    V = np.stack([np.cos(theta), np.sin(theta)])  # (2, resolution)
    num = np.einsum("ij,ik,kj->j", V, s_b, V)
    den = np.einsum("ij,ik,kj->j", V, s_w + eps * np.eye(2), V)
    best = np.argmax(num / den)
    return V[:, best]


def angle_between(u, v):
    """Angle between two directions, ignoring sign."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def fisher_ratio(v, s_w, s_b):
    return float(v @ s_b @ v) / float(v @ s_w @ v)


def full_space_objective_matrix(A, mean_diff, deflated):
    """The objective matrix whose eigenvectors a deflated fit must return.

    Restricting A to the complement of the mean difference and lifting back
    equals projecting A on both sides, so returned columns are eigenvectors
    of P A P in the original space.
    """
    if not deflated:
        return A
    d = np.asarray(mean_diff, dtype=float)
    P = np.eye(A.shape[0]) - np.outer(d, d) / float(d @ d)
    M = P @ A @ P
    return 0.5 * (M + M.T)
