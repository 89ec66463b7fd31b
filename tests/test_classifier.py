import numpy as np
import pytest

from driftbench.classifier import (
    ClassifierConfig,
    LogRegModel,
    objective,
    objective_and_gradient,
    predict,
    predict_proba,
    train,
    train_with_config,
)


def finite_difference_gradient(params, X, y_idx, reg, h=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        for j in range(params.shape[1]):
            up = params.copy()
            up[i, j] += h
            down = params.copy()
            down[i, j] -= h
            grad[i, j] = (objective(up, X, y_idx, reg) - objective(down, X, y_idx, reg)) / (2 * h)
    return grad


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
        y = np.array([1, 1, 2, 2])
        model = train(X, y, reg_strength=1e-3, tol=1e-8, max_iter=2000)
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

    def test_duplicated_data_gives_same_model(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 4))
        y = rng.integers(1, 4, size=20)
        y[:3] = [1, 2, 3]
        a = train(X, y, reg_strength=0.05, tol=1e-9, max_iter=3000)
        b = train(np.vstack([X, X]), np.concatenate([y, y]), reg_strength=0.05, tol=1e-9, max_iter=3000)
        assert np.allclose(a.weights, b.weights, atol=1e-6)

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        model = train(X, y, reg_strength=0.01, tol=1e-10, max_iter=500)
        trace = np.array(model.loss_trace)
        assert np.all(np.diff(trace) <= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        a = train(X, y, reg_strength=0.1)
        b = train(X.copy(), y.copy(), reg_strength=0.1)
        assert np.array_equal(a.weights, b.weights)
        assert a.n_iter == b.n_iter

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            train(np.zeros((4, 2)), [1, 1, 1, 1], reg_strength=0.1)

    def test_nan_features_rejected(self):
        X = np.array([[np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            train(X, [1, 2], reg_strength=0.1)

    def test_nonconvergence_is_warning_not_error(self, caplog):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 6)) * 10
        y = rng.integers(0, 3, size=50)
        y[:3] = [0, 1, 2]
        with caplog.at_level("WARNING"):
            model = train(X, y, reg_strength=1e-6, tol=1e-14, max_iter=3)
        assert not model.converged
        assert model.n_iter == 3
        assert any("optimizer" in rec.message for rec in caplog.records)

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

    def test_start_from_converged_weights_takes_no_step(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        cold = train(X, y, reg_strength=0.01)
        warm = train(X, y, reg_strength=0.01, init_weights=cold.weights)
        assert cold.converged and cold.n_iter > 0
        assert warm.converged and warm.n_iter == 0
        assert np.array_equal(warm.weights, cold.weights)

    def test_init_weights_shape_checked(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="init_weights"):
            train(X, [1, 1, 2, 2], reg_strength=0.1, init_weights=np.zeros((2, 2)))

    def test_config_scales_regularization_per_sample(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(25, 3))
        y = rng.integers(0, 2, size=25)
        y[:2] = [0, 1]
        via_config = train_with_config(X, y, ClassifierConfig(reg_strength=2.0, max_iter=50))
        direct = train(X, y, reg_strength=2.0 / 25, max_iter=50)
        assert np.array_equal(via_config.weights, direct.weights)


class TestPredict:
    def model_with(self, weights, class_ids):
        weights = np.asarray(weights, dtype=float)
        return LogRegModel(
            weights=weights,
            class_ids=np.asarray(class_ids),
            reg_strength=0.1,
            trained_on_dim=weights.shape[1] - 1,
            n_iter=0,
            converged=True,
        )

    def test_zero_weights_give_uniform_rows(self):
        model = self.model_with(np.zeros((4, 3)), [1, 2, 3, 4])
        P = predict_proba(model, np.random.default_rng(0).normal(size=(6, 2)))
        assert np.allclose(P, 0.25, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = self.model_with(rng.normal(size=(5, 8)) * 30, [1, 2, 3, 4, 5])
        P = predict_proba(model, rng.normal(size=(40, 7)) * 10)
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
        assert P.min() >= 0

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(3, 4))
        shifted = W + np.array([[0.0, 0.0, 0.0, 7.5]])  # same constant added to all biases
        X = rng.normal(size=(10, 3))
        a = predict_proba(self.model_with(W, [1, 2, 3]), X)
        b = predict_proba(self.model_with(shifted, [1, 2, 3]), X)
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
            predict_proba(model, np.zeros((3, 5)))

