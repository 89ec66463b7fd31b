from dataclasses import replace

import numpy as np
import pytest

from driftbench.classifier import (
    ClassifierConfig,
    LogRegModel,
    _class_major_proba,
    predict,
    train_with_config,
)
from driftbench.data_io import SyntheticConfig, generate_synthetic

from conftest import objective_and_gradient
from oracles import logreg_objective


def finite_difference_gradient(params, X, y_idx, reg, h=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        for j in range(params.shape[1]):
            up = params.copy()
            up[i, j] += h
            down = params.copy()
            down[i, j] -= h
            diff = logreg_objective(up, X, y_idx, reg) - logreg_objective(down, X, y_idx, reg)
            grad[i, j] = diff / (2 * h)
    return grad


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
        y = np.array([1, 1, 2, 2])
        config = ClassifierConfig(reg_strength=4e-3, tol=1e-8, max_iter=2000)
        model = train_with_config(X, y, config)
        pred, _ = predict(model, X)
        assert np.array_equal(pred, y)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 3))
        y_idx = np.array([0, 1, 2, 0, 1, 2])
        params = rng.normal(size=(3, 4)) * 0.5
        _, analytic = objective_and_gradient(params, X, y_idx, reg_strength=0.05)
        numeric = finite_difference_gradient(params, X, y_idx, reg=0.05)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-5

    @pytest.mark.parametrize("offset", [0.0, 50.0])
    def test_losses_match_the_reference_objective(self, offset):
        # The kernel computes every objective value as `logreg_objective`
        # does on the caller's (W, b), also far from the origin.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4)) + offset
        y_idx = np.arange(30) % 3
        params = rng.normal(size=(3, 5)) * 0.1
        loss, _ = objective_and_gradient(params, X, y_idx, reg_strength=0.05)
        assert loss == pytest.approx(logreg_objective(params, X, y_idx, 0.05), rel=1e-12)

    def test_duplicated_data_gives_same_model(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 4))
        y = rng.integers(1, 4, size=20)
        y[:3] = [1, 2, 3]
        # Twice the data with twice reg_strength: 2r / 2n == r / n exactly.
        a = train_with_config(X, y, ClassifierConfig(reg_strength=1.0, tol=1e-9, max_iter=3000))
        b = train_with_config(
            np.vstack([X, X]),
            np.concatenate([y, y]),
            ClassifierConfig(reg_strength=2.0, tol=1e-9, max_iter=3000),
        )
        assert np.allclose(a.weights, b.weights, atol=1e-6)

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        config = ClassifierConfig(reg_strength=0.4, tol=1e-10, max_iter=500)
        model = train_with_config(X, y, config)
        # Fits are deterministic, so the fit cut at m steps is the full fit's
        # m-th iterate, and the objective along the path is read from them;
        # the path starts at zero weights.
        path = [
            train_with_config(X, y, replace(config, max_iter=m))
            for m in range(1, model.n_iter + 1)
        ]
        assert np.array_equal(path[-1].weights, model.weights)
        reg = config.reg_strength / len(y)
        weights = [np.zeros_like(model.weights), *(m.weights for m in path)]
        losses = np.array([logreg_objective(w, X, y, reg) for w in weights])
        # A step the line search accepts never raises the loss; the reference
        # objective on the uncentred weights rounds differently by ~1e-16.
        assert np.all(np.diff(losses) <= 1e-14 * losses[:-1])

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        config = ClassifierConfig(reg_strength=3.0)
        a = train_with_config(X, y, config)
        b = train_with_config(X.copy(), y.copy(), config)
        assert np.array_equal(a.weights, b.weights)
        assert a.n_iter == b.n_iter

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            train_with_config(np.zeros((4, 2)), [1, 1, 1, 1], ClassifierConfig())

    def test_nan_features_rejected(self):
        X = np.array([[np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            train_with_config(X, [1, 2], ClassifierConfig())

    def test_nonconvergence_is_warning_not_error(self, caplog):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 6)) * 10
        y = rng.integers(0, 3, size=50)
        y[:3] = [0, 1, 2]
        with caplog.at_level("WARNING"):
            config = ClassifierConfig(reg_strength=5e-5, tol=1e-14, max_iter=3)
            model = train_with_config(X, y, config)
        assert not model.converged
        assert model.n_iter == 3
        assert any("optimizer" in rec.message for rec in caplog.records)

    def test_stalled_loss_ends_the_fit_unconverged(self, caplog):
        # Features 10 away from the origin put the floor of the uncentred
        # gradient far above tol 1e-14: the loss stops moving long before the
        # gradient gets there, and the fit stops instead of running on.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 6)) + 10.0
        y = rng.integers(0, 3, size=50)
        y[:3] = [0, 1, 2]
        with caplog.at_level("WARNING"):
            model = train_with_config(X, y, ClassifierConfig(reg_strength=0.5, tol=1e-14))
        assert not model.converged
        assert model.n_iter < 200
        assert any("loss stalled" in rec.message for rec in caplog.records)

    def test_stop_test_does_not_depend_on_the_feature_basis(self):
        # From zero, L-BFGS on X R (R orthogonal) takes the path of the fit
        # on X rotated by R, so a basis-free stop test ends both at the same
        # step.  The gradient's largest entry ends them a step apart on this
        # seed, in unscaled variables and in the unit-RMS ones alike.
        rng = np.random.default_rng(165)
        y = np.arange(120) % 3
        X = rng.normal(0.0, 1.0, (3, 8))[y] + rng.standard_normal((120, 8))
        R, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        config = ClassifierConfig(reg_strength=1.2)
        base = train_with_config(X, y, config)
        rotated = train_with_config(X @ R, y, config)
        assert base.converged and rotated.converged
        assert rotated.n_iter == base.n_iter
        np.testing.assert_allclose(
            rotated.weights, np.hstack([base.weights[:, :-1] @ R, base.weights[:, -1:]]),
            rtol=0, atol=1e-10,
        )

    def test_uncentred_minmax_fit_converges_under_default_config(self):
        # The shape of the `none` fit on canonical data: 445 samples, 128
        # features scaled into [0, 1] (so far from centred) and 6 classes.
        rng = np.random.default_rng(0)
        y = np.arange(445) % 6 + 1
        X = rng.normal(0.0, 0.35, (6, 128))[y - 1] + rng.standard_normal((445, 128))
        X = (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0))
        model = train_with_config(X, y, ClassifierConfig())
        assert model.converged
        assert model.n_iter < ClassifierConfig().max_iter

    @pytest.mark.parametrize("offset", [5.0, 50.0])
    def test_constant_offset_changes_neither_weights_nor_convergence(self, offset):
        # A shift of every feature is absorbed by the biases alone, so the
        # fit must reach tol, in about the same iterations, at the same W.
        batch = generate_synthetic(SyntheticConfig(dim=10, per_class=40)).batch(1)
        X, y = batch.features, batch.labels
        base = train_with_config(X, y, ClassifierConfig())
        shifted = train_with_config(X + offset, y, ClassifierConfig())
        assert base.converged and shifted.converged
        assert shifted.n_iter <= 2 * base.n_iter
        np.testing.assert_allclose(
            shifted.weights[:, :-1], base.weights[:, :-1], rtol=0, atol=1e-4
        )

    @pytest.mark.parametrize("offset", [0.0, 5.0])
    def test_converged_means_uncentred_gradient_within_tol(self, offset):
        # `converged` reads the gradient in the caller's (W, b), not in the
        # centred variables the optimizer works in; the two differ by the
        # bias gradient times the feature means, so the offset makes them
        # part (a stop test on the centred gradient fails at offset 5).
        rng = np.random.default_rng(3)
        y = np.arange(300) % 4 + 1
        X = rng.normal(0.0, 0.5, (4, 20))[y - 1] + rng.standard_normal((300, 20))
        X = (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0)) + offset
        config = ClassifierConfig()
        model = train_with_config(X, y, config)
        assert model.converged
        y_idx = np.searchsorted(model.class_ids, y)
        _, grad = objective_and_gradient(model.weights, X, y_idx, config.reg_strength / len(y))
        assert np.linalg.norm(grad) <= config.tol

    def test_start_from_converged_weights_takes_no_step(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        config = ClassifierConfig(reg_strength=0.4)
        cold = train_with_config(X, y, config)
        warm = train_with_config(X, y, config, init_weights=cold.weights)
        assert cold.converged and cold.n_iter > 0
        assert warm.converged and warm.n_iter == 0
        assert np.array_equal(warm.weights, cold.weights)

    def test_init_weights_shape_checked(self):
        X, y = np.zeros((4, 2)), [1, 1, 2, 2]
        with pytest.raises(ValueError, match="init_weights shape"):
            train_with_config(X, y, ClassifierConfig(), init_weights=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="init_weights must be finite"):
            train_with_config(X, y, ClassifierConfig(), init_weights=np.full((2, 3), np.nan))


class TestPredict:
    def model_with(self, weights, class_ids):
        weights = np.asarray(weights, dtype=float)
        return LogRegModel(
            weights=weights,
            class_ids=np.asarray(class_ids),
            n_iter=0,
            converged=True,
        )

    def test_zero_weights_give_uniform_rows(self):
        model = self.model_with(np.zeros((4, 3)), [1, 2, 3, 4])
        P = _class_major_proba(model, np.random.default_rng(0).normal(size=(6, 2))).T
        assert np.allclose(P, 0.25, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = self.model_with(rng.normal(size=(5, 8)) * 30, [1, 2, 3, 4, 5])
        P = _class_major_proba(model, rng.normal(size=(40, 7)) * 10).T
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
        assert P.min() >= 0

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(3, 4))
        shifted = W + np.array([[0.0, 0.0, 0.0, 7.5]])  # same constant added to all biases
        X = rng.normal(size=(10, 3))
        a = _class_major_proba(self.model_with(W, [1, 2, 3]), X).T
        b = _class_major_proba(self.model_with(shifted, [1, 2, 3]), X).T
        assert np.allclose(a, b, atol=1e-12)

    def test_tie_breaks_to_lowest_class_id(self):
        model = self.model_with(np.zeros((3, 3)), [2, 5, 9])
        labels, conf = predict(model, np.zeros((4, 2)))
        assert np.all(labels == 2)
        assert np.allclose(conf, 1 / 3)

    def test_weight_scaling_keeps_labels(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(4, 5))
        W[:, -1] = 0.0  # scaling acts on logits only when biases scale too
        X = rng.normal(size=(25, 4))
        a, _ = predict(self.model_with(W, [1, 2, 3, 4]), X)
        b, _ = predict(self.model_with(3.0 * W, [1, 2, 3, 4]), X)
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        model = self.model_with(np.zeros((2, 4)), [1, 2])
        with pytest.raises(ValueError, match="dim"):
            _class_major_proba(model, np.zeros((3, 5)))

