from dataclasses import replace

import numpy as np
import pytest

import driftbench.adaptation as adaptation
from driftbench.adaptation import (
    SelfTrainConfig,
    run_complement,
    run_means_correction,
    run_no_adaptation,
    run_self_training,
    run_subspace_method,
    split_calibration,
    strip_labels,
    train_calibration_model,
)
from driftbench.classifier import ClassifierConfig, predict, train_with_config
from driftbench.data_io import SyntheticConfig, generate_synthetic
from driftbench.harness import run_experiment
from driftbench.metrics import accuracy
from driftbench.preprocess import normalize_dataset
from driftbench.subspace import DrcaConfig, LdspConfig, drca_fit, ldsp_fit
from test_harness import synth_config

CLF = ClassifierConfig(max_iter=500, tol=1e-7)


def batch_accuracies(prediction_sets, store):
    return [accuracy(p.predicted, store.labels_for(p.batch_id)) for p in prediction_sets]


class TestGuard:
    def test_target_batches_carry_no_labels(self, small_synth):
        _, targets, _ = split_calibration(small_synth)
        for t in targets:
            assert not hasattr(t, "label")
            assert not hasattr(t, "labels")
            assert not hasattr(t, "label_vector")

    def test_store_covers_all_batches(self, small_synth):
        _, _, store = split_calibration(small_synth)
        for b in small_synth.batch_ids:
            assert np.array_equal(store.labels_for(b), small_synth.batch(b).labels)

    def test_features_read_only(self, small_synth):
        _, targets, _ = split_calibration(small_synth)
        with pytest.raises(ValueError):
            targets[0].features[0, 0] = 1.0


class TestNoAdaptation:
    def test_calibration_as_target_equals_training_accuracy(self, small_synth):
        cal, _, store = split_calibration(small_synth)
        model = train_with_config(cal.features, cal.labels, CLF)
        ps = run_no_adaptation([strip_labels(cal)], train_calibration_model(cal, CLF))
        direct, _ = predict(model, cal.features)
        assert np.array_equal(ps[0].predicted, direct)
        assert batch_accuracies(ps, store)[0] == accuracy(direct, cal.labels)

    def test_zero_drift_accuracy_is_flat(self):
        ds = generate_synthetic(
            SyntheticConfig(n_classes=4, dim=10, per_class=40, n_batches=5, drift_step=0.0, seed=17)
        )
        cal, targets, store = split_calibration(ds)
        accs = batch_accuracies(
            run_no_adaptation(targets, train_calibration_model(cal, CLF)), store
        )
        assert max(accs) - min(accs) <= 0.05

    def test_drift_degrades_late_batches(self):
        ds = generate_synthetic(
            SyntheticConfig(n_classes=4, dim=10, per_class=40, n_batches=6, drift_step=1.5, seed=17)
        )
        cal, targets, store = split_calibration(ds)
        accs = batch_accuracies(
            run_no_adaptation(targets, train_calibration_model(cal, CLF)), store
        )
        assert accs[-1] < accs[0] - 0.1


class TestMeansCorrection:
    def test_calibration_as_target_matches_centered_no_adaptation(self, small_synth):
        cal, _, store = split_calibration(small_synth)
        centered_cal = replace(cal, features=cal.features - cal.features.mean(axis=0))
        via_means = run_means_correction(
            cal, [strip_labels(cal)], train_calibration_model(cal, CLF)
        )
        via_none = run_no_adaptation(
            [strip_labels(centered_cal)], train_calibration_model(centered_cal, CLF)
        )
        assert np.array_equal(via_means[0].predicted, via_none[0].predicted)

    def test_pure_translation_drift_fully_recovered(self):
        base = dict(n_classes=4, dim=8, per_class=30, n_batches=4, seed=29)
        drifted = generate_synthetic(SyntheticConfig(drift_step=2.5, **base))
        still = generate_synthetic(SyntheticConfig(drift_step=0.0, **base))
        cal_d, targets_d, store_d = split_calibration(drifted)
        cal_s, targets_s, store_s = split_calibration(still)
        model_d = train_calibration_model(cal_d, CLF)
        model_s = train_calibration_model(cal_s, CLF)
        acc_drifted = batch_accuracies(run_means_correction(cal_d, targets_d, model_d), store_d)
        acc_still = batch_accuracies(run_means_correction(cal_s, targets_s, model_s), store_s)
        assert np.allclose(acc_drifted, acc_still, atol=1e-12)
        # and centering restores what no-adaptation achieves without drift
        acc_none_still = batch_accuracies(run_no_adaptation(targets_s, model_s), store_s)
        assert np.abs(np.array(acc_drifted) - np.array(acc_none_still)).max() <= 0.01


class TestSubspaceRuns:
    def test_calibration_as_target_close_to_training_accuracy(self, small_synth):
        cal, _, store = split_calibration(small_synth)
        dim = small_synth.feature_dim
        model = train_calibration_model(cal, CLF)
        ps = run_subspace_method(
            cal, [strip_labels(cal)], "drca", DrcaConfig(components=dim - 1), CLF, model, {}
        )
        none = run_no_adaptation([strip_labels(cal)], model)
        acc_drca = batch_accuracies(ps, store)[0]
        acc_none = batch_accuracies(none, store)[0]
        assert abs(acc_drca - acc_none) <= 0.05

    def test_ldsp_zero_weights_predicts_identically_to_drca(self, small_synth):
        # An empty chain sends every target through each method's own eigen fit.
        cal, targets, _ = split_calibration(small_synth)
        dim = small_synth.feature_dim
        model = train_calibration_model(cal, CLF)
        drca = run_subspace_method(
            cal, targets, "drca", DrcaConfig(0.1, dim - 1), CLF, model, {}
        )
        ldsp = run_subspace_method(
            cal, targets, "ldsp", LdspConfig(0.1, 0.0, 0.0, dim - 1), CLF, model, {}
        )
        for a, b in zip(drca, ldsp):
            assert np.array_equal(a.predicted, b.predicted)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drca_equals_ldsp_at_full_rank_for_any_weights(self, seed):
        # At k = D - 1 every drifted target keeps the whole deflated
        # complement, and both methods take one shared chain of fits, so
        # neither the weights nor the method's own batch-1 reference row can
        # move b2..bN.  The loose tol lets a fit's start show in the grid.
        rng = np.random.default_rng(seed)
        w_target, w_within, w_between = rng.uniform(0.0, [5.0, 50.0, 500.0])
        keys = {
            "classifier.tol": 1e-4,
            "drca.target_weight": w_target,
            "ldsp.target_weight": w_target,
            "ldsp.within_weight": w_within,
            "ldsp.between_weight": w_between,
        }
        both = run_experiment(synth_config(**keys, methods="drca,ldsp")).grid
        alone = run_experiment(synth_config(**keys, methods="ldsp")).grid
        assert sorted(alone) == [("ldsp", b) for b in range(1, 6)]
        for b in range(2, 6):
            assert both[("ldsp", b)] == both[("drca", b)] == alone[("ldsp", b)]

    def test_drca_and_ldsp_differ_below_full_rank(self, small_synth):
        cal, targets, _ = split_calibration(normalize_dataset(small_synth))
        model = train_calibration_model(cal, CLF)
        drca = run_subspace_method(cal, targets, "drca", DrcaConfig(0.1, 2), CLF, model, {})
        ldsp = run_subspace_method(
            cal, targets, "ldsp", LdspConfig(0.1, 10.0, 100.0, 2), CLF, model, {}
        )
        assert any(not np.array_equal(a.predicted, b.predicted) for a, b in zip(drca, ldsp))

    def test_unknown_method_rejected(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        model = train_calibration_model(cal, CLF)
        with pytest.raises(ValueError, match="method"):
            run_subspace_method(cal, targets, "pca", DrcaConfig(components=2), CLF, model, {})

    @pytest.mark.parametrize("method", ["drca", "ldsp"])
    def test_warm_start_keeps_predictions_and_saves_iterations(
        self, small_synth, monkeypatch, method
    ):
        # The chain's first fit starts from the calibration model, each later
        # one from the fit before it, with the new direction projected out.
        cal, targets, _ = split_calibration(normalize_dataset(small_synth))
        k = small_synth.feature_dim - 1
        proj_config = DrcaConfig(components=k) if method == "drca" else LdspConfig(components=k)

        def run(cold):
            iters = []

            def counted(X, y, config, init_weights=None):
                model = train_with_config(X, y, config, None if cold else init_weights)
                iters.append(model.n_iter)
                return model

            monkeypatch.setattr(adaptation, "train_with_config", counted)
            model = train_calibration_model(cal, CLF)
            chain = run_complement(cal, targets, CLF, model)
            return run_subspace_method(cal, targets, method, proj_config, CLF, model, chain), iters

        warm, warm_iters = run(cold=False)
        cold, cold_iters = run(cold=True)
        # the calibration fit, which always starts from zero, then one per target
        assert len(warm_iters) == len(cold_iters) == 1 + len(targets) > 2
        assert warm_iters[0] == cold_iters[0]
        for w, c in zip(warm, cold):
            assert np.array_equal(w.predicted, c.predicted)
            np.testing.assert_allclose(w.confidence, c.confidence, rtol=0, atol=1e-5)
        assert warm_iters[1] < cold_iters[1]
        assert sum(warm_iters) < sum(cold_iters)

    @pytest.mark.parametrize("method", ["drca", "ldsp"])
    @pytest.mark.parametrize("below_full", [0, 1], ids=["k=D-1", "k=D-2"])
    def test_eigen_fits_only_where_the_complement_is_not_taken(
        self, small_synth, monkeypatch, method, below_full
    ):
        # batch 1 as its own target has no mean difference, so it still needs
        # the eigenproblem; drifted targets skip it only at k = D - 1, and a
        # smaller k ignores the chain
        cal, targets, _ = split_calibration(normalize_dataset(small_synth))
        scored = [strip_labels(cal)] + targets
        k = small_synth.feature_dim - 1 - below_full
        proj_config = DrcaConfig(components=k) if method == "drca" else LdspConfig(components=k)
        model = train_calibration_model(cal, CLF)
        chain = run_complement(cal, targets, CLF, model)
        calls = {"drca": 0, "ldsp": 0}

        def counted(name, fit):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fit(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(adaptation, "drca_fit", counted("drca", drca_fit))
        monkeypatch.setattr(adaptation, "ldsp_fit", counted("ldsp", ldsp_fit))
        run_subspace_method(cal, scored, method, proj_config, CLF, model, chain)
        other = "ldsp" if method == "drca" else "drca"
        assert calls[other] == 0
        assert calls[method] == (len(scored) if below_full else 1)

    @pytest.mark.parametrize("method", ["drca", "ldsp"])
    def test_complement_path_predicts_like_the_eigen_path(self, small_synth, method):
        # An empty chain sends every target through drca_fit or ldsp_fit.
        cal, targets, _ = split_calibration(normalize_dataset(small_synth))
        k = small_synth.feature_dim - 1
        proj_config = DrcaConfig(components=k) if method == "drca" else LdspConfig(components=k)
        model = train_calibration_model(cal, CLF)
        chain = run_complement(cal, targets, CLF, model)
        complement = run_subspace_method(cal, targets, method, proj_config, CLF, model, chain)
        eigen_path = run_subspace_method(cal, targets, method, proj_config, CLF, model, {})
        assert len(complement) == len(eigen_path) == len(targets)
        for a, b in zip(complement, eigen_path):
            assert a.batch_id == b.batch_id
            assert np.array_equal(a.predicted, b.predicted)
            np.testing.assert_allclose(a.confidence, b.confidence, rtol=0, atol=1e-5)

    def test_chain_weights_stay_orthogonal_to_the_mean_difference(self, small_synth, monkeypatch):
        cal, targets, _ = split_calibration(normalize_dataset(small_synth))
        mu_s = cal.features.mean(axis=0)
        model = train_calibration_model(cal, CLF)
        models = []

        def spying(X, y, config, init_weights=None):
            model = train_with_config(X, y, config, init_weights=init_weights)
            models.append(model)
            return model

        monkeypatch.setattr(adaptation, "train_with_config", spying)
        chain = run_complement(cal, targets, CLF, model)
        # one fit per target
        assert sorted(chain) == [t.batch_id for t in targets]
        assert len(models) == len(targets)
        for t, model in zip(targets, models):
            d = mu_s - t.features.mean(axis=0)
            W = model.weights[:, :-1]
            assert np.linalg.norm(W @ (d / np.linalg.norm(d))) <= 1e-12 * np.linalg.norm(W)


class TestSelfTraining:
    def test_unreachable_threshold_equals_no_adaptation(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        heavy_reg = ClassifierConfig(reg_strength=5.0, max_iter=500, tol=1e-7)
        trace = []
        model = train_calibration_model(cal, heavy_reg)
        st = run_self_training(
            cal, targets, SelfTrainConfig(threshold=1.0, max_rounds=5), heavy_reg, model,
            trace=trace,
        )
        none = run_no_adaptation(targets, model)
        assert all(p.confidence.max() < 1.0 for p in st)
        assert all(t["n_added"] == 0 and t["rounds"] == 1 for t in trace)
        for a, b in zip(st, none):
            assert np.array_equal(a.predicted, b.predicted)

    def test_single_round_non_cumulative_equals_no_adaptation(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        model = train_calibration_model(cal, CLF)
        trace = []
        st = run_self_training(
            cal,
            targets,
            SelfTrainConfig(threshold=0.9, max_rounds=1, cumulative=False),
            CLF,
            model,
            trace=trace,
        )
        none = run_no_adaptation(targets, model)
        assert all(t["rounds"] == 1 for t in trace)
        for a, b in zip(st, none):
            assert np.array_equal(a.predicted, b.predicted)
            assert np.array_equal(a.confidence, b.confidence)

    def test_pool_accounting_no_duplicates(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        trace = []
        run_self_training(
            cal,
            targets,
            SelfTrainConfig(threshold=0.8, max_rounds=6, cumulative=True),
            CLF,
            train_calibration_model(cal, CLF),
            trace=trace,
        )
        pool = len(cal)
        for entry, target in zip(trace, sorted(targets, key=lambda t: t.batch_id)):
            assert 0 <= entry["n_added"] <= len(target)
            pool += entry["n_added"]
            assert entry["pool_size"] == pool

    def test_non_cumulative_pool_resets(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        trace = []
        run_self_training(
            cal,
            targets,
            SelfTrainConfig(threshold=0.8, max_rounds=6, cumulative=False),
            CLF,
            train_calibration_model(cal, CLF),
            trace=trace,
        )
        for entry, target in zip(trace, sorted(targets, key=lambda t: t.batch_id)):
            assert entry["pool_size"] == len(cal) + entry["n_added"]

    @staticmethod
    def fit_rows(small_synth, monkeypatch, cumulative):
        """Rows and iterations of each self-training fit, in call order."""
        cal, targets, _ = split_calibration(small_synth)
        model = train_calibration_model(cal, CLF)
        fits = []
        train = adaptation.train_with_config

        def spy(X, y, config, init_weights=None):
            fitted = train(X, y, config, init_weights)
            fits.append((X.shape[0], fitted.n_iter))
            return fitted

        monkeypatch.setattr(adaptation, "train_with_config", spy)
        st = SelfTrainConfig(threshold=0.8, max_rounds=6, cumulative=cumulative)
        run_self_training(cal, targets, st, CLF, model)
        return len(cal), fits

    def test_cumulative_refits_only_a_grown_pool(self, small_synth, monkeypatch):
        # A batch whose last round added nothing leaves the pool as its model
        # was fitted on, so the next batch's first round predicts with it.
        _, fits = self.fit_rows(small_synth, monkeypatch, cumulative=True)
        rows = [n for n, _ in fits]
        assert len(rows) > 1
        assert all(a < b for a, b in zip(rows, rows[1:])), fits

    def test_reset_pool_takes_the_calibration_model(self, small_synth, monkeypatch):
        n_calibration, fits = self.fit_rows(small_synth, monkeypatch, cumulative=False)
        assert fits
        assert all(n > n_calibration for n, _ in fits), fits

    def test_deterministic(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        cfg = SelfTrainConfig(threshold=0.95, max_rounds=4)
        model = train_calibration_model(cal, CLF)
        a = run_self_training(cal, targets, cfg, CLF, model)
        b = run_self_training(cal, targets, cfg, CLF, model)
        for x, y in zip(a, b):
            assert np.array_equal(x.predicted, y.predicted)
            assert np.array_equal(x.confidence, y.confidence)

    def test_warm_start_keeps_predictions_and_saves_iterations(self, small_synth, monkeypatch):
        cal, targets, _ = split_calibration(small_synth)
        st = SelfTrainConfig(threshold=0.9, max_rounds=4)
        model = train_calibration_model(cal, CLF)

        def run(cold):
            iters = []

            def counted(X, y, config, init_weights=None):
                model = train_with_config(X, y, config, None if cold else init_weights)
                iters.append(model.n_iter)
                return model

            monkeypatch.setattr(adaptation, "train_with_config", counted)
            return run_self_training(cal, targets, st, CLF, model), iters

        warm, warm_iters = run(cold=False)
        cold, cold_iters = run(cold=True)
        assert len(warm_iters) == len(cold_iters) > 1
        for w, c in zip(warm, cold):
            assert np.array_equal(w.predicted, c.predicted)
        assert sum(warm_iters) < sum(cold_iters)
