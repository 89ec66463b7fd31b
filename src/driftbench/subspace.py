"""Linear projection machinery: covariance/scatter matrices, PCA, LDA, and the
drift-adaptation transforms DRCA and LDSP.

DRCA removes the source-target mean-difference direction from the feature
space (hard deflation onto its orthogonal complement) and then keeps the
top eigenvectors of the weighted joint covariance.  LDSP solves the same
deflated eigenproblem with Fisher-style scatter terms added so that the
retained directions also separate the labeled source classes.

When the mean difference is non-negligible and all D - 1 directions of its
complement are kept, the eigenproblem only picks a basis of that complement,
and a classifier trained on the projected data reaches the same optimum in
any basis: the calibration fit with its weights kept orthogonal to the mean
difference.  ``adaptation.run_complement`` fits that case for both methods
in feature space, with no basis and no projection.

All eigen fits are deterministic: eigenvalues are ordered descending with a
stable index tie-break, and every returned column is sign-fixed so its
largest-magnitude entry is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import sorted_unique


@dataclass(frozen=True)
class DrcaConfig:
    """Weighted-covariance deflation transform settings."""

    target_weight: float = 0.1
    components: int = 127

    def __post_init__(self):
        if self.target_weight < 0:
            raise ValueError(f"target_weight must be >= 0, got {self.target_weight}")
        if self.components < 1:
            raise ValueError(f"components must be >= 1, got {self.components}")


@dataclass(frozen=True)
class LdspConfig:
    """DRCA settings plus within/between-class scatter weights."""

    target_weight: float = 0.1
    within_weight: float = 10.0
    between_weight: float = 100.0
    components: int = 127

    def __post_init__(self):
        if self.target_weight < 0:
            raise ValueError(f"target_weight must be >= 0, got {self.target_weight}")
        if self.within_weight < 0:
            raise ValueError(f"within_weight must be >= 0, got {self.within_weight}")
        if self.between_weight < 0:
            raise ValueError(f"between_weight must be >= 0, got {self.between_weight}")
        if self.components < 1:
            raise ValueError(f"components must be >= 1, got {self.components}")


@dataclass(frozen=True)
class LinearProjection:
    """A fitted D-to-k linear map with per-domain centering offsets.

    Columns of ``matrix`` are the projection directions.  ``source_center``
    and ``target_center`` are the means subtracted before projecting data
    from the respective domain (equal for PCA/LDA, which have one domain).
    ``eigenvalues`` are the objective values of the retained directions.
    """

    matrix: np.ndarray
    source_center: np.ndarray
    target_center: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("projection matrix must be 2-D")
        for name in ("matrix", "source_center", "target_center", "eigenvalues"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[0]


def covariance(samples: np.ndarray) -> np.ndarray:
    """Population covariance (1/n) of row samples; symmetric PSD."""
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("covariance needs a non-empty (n, D) matrix")
    Xc = X - X.mean(axis=0)
    # numpy computes Xc.T @ Xc as a symmetric rank-k update: exactly symmetric.
    return (Xc.T @ Xc) / X.shape[0]


def scatter_matrices(samples: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Within- and between-class scatter, both normalized by total count.

    With this normalization S_w + S_b equals the population covariance
    (law of total variance), which the tests rely on.
    """
    X = np.asarray(samples, dtype=float)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("scatter_matrices needs a non-empty (n, D) matrix")
    if y.shape[0] != X.shape[0]:
        raise ValueError("labels length must match sample count")
    n, d = X.shape
    grand_mean = X.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for c in sorted_unique(y):
        Xc = X[y == c]
        mu_c = Xc.mean(axis=0)
        centered = Xc - mu_c
        s_w += centered.T @ centered
        diff = mu_c - grand_mean
        s_b += Xc.shape[0] * np.outer(diff, diff)
    # Each term, a symmetric rank-k update or an outer product, is exactly symmetric.
    return s_w / n, s_b / n


def _sorted_eig(M: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix, descending with stable ties."""
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(-vals, kind="stable")
    return vals[order[:k]], vecs[:, order[:k]]


def _fix_column_signs(W: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    W = W.copy()
    anchor = np.abs(W).argmax(axis=0)
    for j in range(W.shape[1]):
        if W[anchor[j], j] < 0:
            W[:, j] = -W[:, j]
    return W


def _complement_basis(d: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to d (Householder columns)."""
    dim = d.shape[0]
    v = d.astype(float).copy()
    norm = np.linalg.norm(v)
    v[0] += norm if v[0] >= 0 else -norm
    H = np.eye(dim) - (2.0 / (v @ v)) * np.outer(v, v)
    return H[:, 1:]


def deflation_threshold(dim: int) -> float:
    """Mean differences below this norm are treated as zero (no deflation)."""
    return 1e-12 * math.sqrt(dim)


def pca_fit(samples: np.ndarray, k: int) -> LinearProjection:
    """Top-k principal directions of the sample covariance."""
    X = np.asarray(samples, dtype=float)
    d = X.shape[1]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    C = covariance(X)
    vals, vecs = _sorted_eig(C, k)
    W = _fix_column_signs(vecs)
    mean = X.mean(axis=0)
    return LinearProjection(W, mean, mean, vals)


def lda_fit(samples: np.ndarray, labels, k: int) -> LinearProjection:
    """Fisher discriminant directions from a ridge-stabilized eigenproblem.

    Solves S_b v = eta (S_w + eps I) v with eps = 1e-6 * trace(S_w) / D and
    keeps the top-k unit-normalized eigenvectors.
    """
    X = np.asarray(samples, dtype=float)
    y = np.asarray(labels)
    classes = sorted_unique(y)
    if classes.shape[0] < 2:
        raise ValueError("LDA needs at least 2 classes")
    d = X.shape[1]
    k_max = min(d, classes.shape[0] - 1)
    if not 1 <= k <= k_max:
        raise ValueError(f"k must be in [1, {k_max}] for {classes.shape[0]} classes, got {k}")
    s_w, s_b = scatter_matrices(X, y)
    eps = 1e-6 * np.trace(s_w) / d
    if eps <= 0:
        # zero within-class scatter (one point per class) still needs an invertible B
        eps = 1e-12
    B = s_w + eps * np.eye(d)
    # Cholesky reduction to a standard symmetric problem: with B = L L^T,
    # S_b v = eta B v becomes (L^-1 S_b L^-T) u = eta u and v = L^-T u.
    L = np.linalg.cholesky(B)
    C = np.linalg.solve(L, np.linalg.solve(L, s_b).T)
    vals, vecs = _sorted_eig(0.5 * (C + C.T), k)
    vecs = np.linalg.solve(L.T, vecs)
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    W = _fix_column_signs(vecs)
    mean = X.mean(axis=0)
    return LinearProjection(W, mean, mean, vals)


def _deflated_fit(
    source: np.ndarray,
    target: np.ndarray,
    objective_extra: np.ndarray | None,
    target_weight: float,
    k: int,
) -> LinearProjection:
    """Shared DRCA/LDSP path: deflate the mean difference, eigendecompose."""
    Xs = np.asarray(source, dtype=float)
    Xt = np.asarray(target, dtype=float)
    if Xs.ndim != 2 or Xt.ndim != 2 or Xs.shape[0] < 1 or Xt.shape[0] < 1:
        raise ValueError("source and target must be non-empty (n, D) matrices")
    if Xs.shape[1] != Xt.shape[1]:
        raise ValueError(
            f"source dim {Xs.shape[1]} does not match target dim {Xt.shape[1]}"
        )
    d = Xs.shape[1]
    mu_s = Xs.mean(axis=0)
    mu_t = Xt.mean(axis=0)
    diff = mu_s - mu_t
    deflate = np.linalg.norm(diff) > deflation_threshold(d)
    k_max = d - 1 if deflate else d
    if k > k_max:
        raise ValueError(
            f"k={k} exceeds {k_max} available components"
            + (" (one dimension is removed by deflation)" if deflate else "")
        )
    A = covariance(Xs) + target_weight * covariance(Xt)
    if objective_extra is not None:
        A = A + objective_extra
    if deflate:
        Q = _complement_basis(diff)
        M = Q.T @ A @ Q
        # A, a sum of exactly symmetric covariance and scatter terms, is
        # exactly symmetric; Qᵀ A Q is not.
        M = 0.5 * (M + M.T)
        vals, vecs = _sorted_eig(M, k)
        W = Q @ vecs
    else:
        vals, W = _sorted_eig(A, k)
    W = _fix_column_signs(W)
    return LinearProjection(W, mu_s, mu_t, vals)


def drca_fit(source: np.ndarray, target: np.ndarray, config: DrcaConfig) -> LinearProjection:
    """Fit the mean-difference-deflated weighted-covariance transform.

    Steps: (1) compute the source-target mean difference; (2) if it is
    non-negligible, restrict to its orthogonal complement; (3) keep the top-k
    eigenvectors of cov(source) + target_weight * cov(target) there.  Every
    returned column is orthogonal to the mean difference, and projection
    centers each domain by its own mean.
    """
    return _deflated_fit(source, target, None, config.target_weight, config.components)


def ldsp_fit(
    source: np.ndarray,
    source_labels,
    target: np.ndarray,
    config: LdspConfig,
) -> LinearProjection:
    """DRCA objective with source-label scatter terms.

    The eigendecomposed matrix gains -within_weight * S_w + between_weight * S_b
    computed on the labeled source domain; it may be indefinite, and
    eigenvectors are still ranked by descending signed eigenvalue.
    """
    y = np.asarray(source_labels)
    if sorted_unique(y).shape[0] < 2:
        raise ValueError("LDSP needs at least 2 source classes")
    s_w, s_b = scatter_matrices(source, y)
    extra = -config.within_weight * s_w + config.between_weight * s_b
    return _deflated_fit(source, target, extra, config.target_weight, config.components)


def project(p: LinearProjection, samples: np.ndarray, domain: str) -> np.ndarray:
    """Apply the transform after subtracting the named domain's stored mean."""
    if domain not in ("source", "target"):
        raise ValueError(f"domain must be 'source' or 'target', got '{domain}'")
    X = np.asarray(samples, dtype=float)
    if X.shape[-1] != p.input_dim:
        raise ValueError(f"input dim {X.shape[-1]} does not match projection ({p.input_dim})")
    center = p.source_center if domain == "source" else p.target_center
    return (X - center) @ p.matrix
