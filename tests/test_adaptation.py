from dataclasses import replace

import numpy as np
import pytest

import driftbench.adaptation as adaptation
from driftbench.adaptation import (
    SelfTrainConfig,
    run_means_correction,
    run_no_adaptation,
    run_self_training,
    run_subspace_method,
    split_calibration,
    strip_labels,
)
from driftbench.classifier import ClassifierConfig, predict, train_with_config
from driftbench.data_io import SyntheticConfig, generate_synthetic
from driftbench.metrics import accuracy
from driftbench.preprocess import center_matrix, normalize_dataset
from driftbench.subspace import DrcaConfig, LdspConfig

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
        assert store.batch_ids() == small_synth.batch_ids

    def test_features_read_only(self, small_synth):
        _, targets, _ = split_calibration(small_synth)
        with pytest.raises(ValueError):
            targets[0].features[0, 0] = 1.0


class TestNoAdaptation:
    def test_calibration_as_target_equals_training_accuracy(self, small_synth):
        cal, _, store = split_calibration(small_synth)
        ps = run_no_adaptation(cal, [strip_labels(cal)], CLF)
        model = train_with_config(cal.feature_matrix(), cal.label_vector(), CLF)
        direct, _ = predict(model, cal.feature_matrix())
        assert np.array_equal(ps[0].predicted, direct)
        assert batch_accuracies(ps, store)[0] == accuracy(direct, cal.label_vector())

    def test_zero_drift_accuracy_is_flat(self):
        ds = generate_synthetic(
            SyntheticConfig(n_classes=4, dim=10, per_class=40, n_batches=5, drift_step=0.0, seed=17)
        )
        cal, targets, store = split_calibration(ds)
        accs = batch_accuracies(run_no_adaptation(cal, targets, CLF), store)
        assert max(accs) - min(accs) <= 0.05

    def test_drift_degrades_late_batches(self):
        ds = generate_synthetic(
            SyntheticConfig(n_classes=4, dim=10, per_class=40, n_batches=6, drift_step=1.5, seed=17)
        )
        cal, targets, store = split_calibration(ds)
        accs = batch_accuracies(run_no_adaptation(cal, targets, CLF), store)
        assert accs[-1] < accs[0] - 0.1


class TestMeansCorrection:
    def test_calibration_as_target_matches_centered_no_adaptation(self, small_synth):
        cal, _, store = split_calibration(small_synth)
        centered_cal = replace(cal, features=center_matrix(cal.features)[0])
        via_means = run_means_correction(cal, [strip_labels(cal)], CLF)
        via_none = run_no_adaptation(centered_cal, [strip_labels(centered_cal)], CLF)
        assert np.array_equal(via_means[0].predicted, via_none[0].predicted)

    def test_pure_translation_drift_fully_recovered(self):
        base = dict(n_classes=4, dim=8, per_class=30, n_batches=4, seed=29)
        drifted = generate_synthetic(SyntheticConfig(drift_step=2.5, **base))
        still = generate_synthetic(SyntheticConfig(drift_step=0.0, **base))
        cal_d, targets_d, store_d = split_calibration(drifted)
        cal_s, targets_s, store_s = split_calibration(still)
        acc_drifted = batch_accuracies(run_means_correction(cal_d, targets_d, CLF), store_d)
        acc_still = batch_accuracies(run_means_correction(cal_s, targets_s, CLF), store_s)
        assert np.allclose(acc_drifted, acc_still, atol=1e-12)
        # and centering restores what no-adaptation achieves without drift
        acc_none_still = batch_accuracies(run_no_adaptation(cal_s, targets_s, CLF), store_s)
        assert np.abs(np.array(acc_drifted) - np.array(acc_none_still)).max() <= 0.01


class TestSubspaceRuns:
    def test_calibration_as_target_close_to_training_accuracy(self, small_synth):
        cal, _, store = split_calibration(small_synth)
        dim = small_synth.feature_dim
        ps = run_subspace_method(
            cal, [strip_labels(cal)], "drca", DrcaConfig(n_components=dim - 1), CLF
        )
        none = run_no_adaptation(cal, [strip_labels(cal)], CLF)
        acc_drca = batch_accuracies(ps, store)[0]
        acc_none = batch_accuracies(none, store)[0]
        assert abs(acc_drca - acc_none) <= 0.05

    def test_ldsp_zero_weights_predicts_identically_to_drca(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        dim = small_synth.feature_dim
        drca = run_subspace_method(
            cal, targets, "drca", DrcaConfig(0.1, dim - 1), CLF
        )
        ldsp = run_subspace_method(
            cal, targets, "ldsp", LdspConfig(0.1, 0.0, 0.0, dim - 1), CLF
        )
        for a, b in zip(drca, ldsp):
            assert np.array_equal(a.predicted, b.predicted)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drca_equals_ldsp_at_full_rank_for_any_weights(self, small_synth, seed):
        # At k = D - 1 both keep the whole deflated complement, in bases that
        # differ by a rotation the L2-penalised classifier does not see.
        cal, targets, _ = split_calibration(normalize_dataset(small_synth))
        k = small_synth.feature_dim - 1
        rng = np.random.default_rng(seed)
        w_target, w_within, w_between = rng.uniform(0.0, [5.0, 50.0, 500.0])
        drca = run_subspace_method(cal, targets, "drca", DrcaConfig(w_target, k), CLF)
        ldsp = run_subspace_method(
            cal, targets, "ldsp", LdspConfig(w_target, w_within, w_between, k), CLF
        )
        for a, b in zip(drca, ldsp):
            assert np.array_equal(a.predicted, b.predicted)
            np.testing.assert_allclose(a.confidence, b.confidence, rtol=0, atol=1e-12)

    def test_drca_and_ldsp_differ_below_full_rank(self, small_synth):
        cal, targets, _ = split_calibration(normalize_dataset(small_synth))
        drca = run_subspace_method(cal, targets, "drca", DrcaConfig(0.1, 2), CLF)
        ldsp = run_subspace_method(cal, targets, "ldsp", LdspConfig(0.1, 10.0, 100.0, 2), CLF)
        assert any(not np.array_equal(a.predicted, b.predicted) for a, b in zip(drca, ldsp))

    def test_unknown_method_rejected(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        with pytest.raises(ValueError, match="method"):
            run_subspace_method(cal, targets, "pca", DrcaConfig(n_components=2), CLF)


class TestSelfTraining:
    def test_unreachable_threshold_equals_no_adaptation(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        heavy_reg = ClassifierConfig(reg_strength=5.0, max_iter=500, tol=1e-7)
        trace = []
        st = run_self_training(
            cal, targets, SelfTrainConfig(confidence_threshold=1.0, max_rounds=5), heavy_reg,
            trace=trace,
        )
        none = run_no_adaptation(cal, targets, heavy_reg)
        assert all(p.confidence.max() < 1.0 for p in st)
        assert all(t["n_added"] == 0 and t["rounds"] == 1 for t in trace)
        for a, b in zip(st, none):
            assert np.array_equal(a.predicted, b.predicted)

    def test_single_round_non_cumulative_equals_no_adaptation(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        trace = []
        st = run_self_training(
            cal,
            targets,
            SelfTrainConfig(confidence_threshold=0.9, max_rounds=1, cumulative=False),
            CLF,
            trace=trace,
        )
        none = run_no_adaptation(cal, targets, CLF)
        assert all(t["rounds"] == 1 for t in trace)
        for a, b in zip(st, none):
            assert np.array_equal(a.predicted, b.predicted)

    def test_pool_accounting_no_duplicates(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        trace = []
        run_self_training(
            cal,
            targets,
            SelfTrainConfig(confidence_threshold=0.8, max_rounds=6, cumulative=True),
            CLF,
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
            SelfTrainConfig(confidence_threshold=0.8, max_rounds=6, cumulative=False),
            CLF,
            trace=trace,
        )
        for entry, target in zip(trace, sorted(targets, key=lambda t: t.batch_id)):
            assert entry["pool_size"] == len(cal) + entry["n_added"]

    def test_deterministic(self, small_synth):
        cal, targets, _ = split_calibration(small_synth)
        cfg = SelfTrainConfig(confidence_threshold=0.95, max_rounds=4)
        a = run_self_training(cal, targets, cfg, CLF)
        b = run_self_training(cal, targets, cfg, CLF)
        for x, y in zip(a, b):
            assert np.array_equal(x.predicted, y.predicted)
            assert np.array_equal(x.confidence, y.confidence)

    def test_warm_start_keeps_predictions_and_saves_iterations(self, small_synth, monkeypatch):
        cal, targets, _ = split_calibration(small_synth)
        st = SelfTrainConfig(confidence_threshold=0.9, max_rounds=4)

        def run(cold):
            iters = []

            def counted(X, y, config, init_weights=None):
                model = train_with_config(X, y, config, None if cold else init_weights)
                iters.append(model.n_iter)
                return model

            monkeypatch.setattr(adaptation, "train_with_config", counted)
            return run_self_training(cal, targets, st, CLF), iters

        warm, warm_iters = run(cold=False)
        cold, cold_iters = run(cold=True)
        assert len(warm_iters) == len(cold_iters) > 1
        for w, c in zip(warm, cold):
            assert np.array_equal(w.predicted, c.predicted)
        assert sum(warm_iters) < sum(cold_iters)

    @pytest.mark.parametrize("cumulative", [True, False])
    def test_shared_calibration_model_changes_nothing(self, small_synth, monkeypatch, cumulative):
        cal, targets, _ = split_calibration(small_synth)
        st = SelfTrainConfig(confidence_threshold=0.9, max_rounds=4, cumulative=cumulative)
        shared = adaptation.train_calibration_model(cal, CLF)
        fits = []

        def counted(*args, **kwargs):
            fits.append(1)
            return train_with_config(*args, **kwargs)

        monkeypatch.setattr(adaptation, "train_with_config", counted)
        own_trace, given_trace = [], []
        own = run_self_training(cal, targets, st, CLF, trace=own_trace)
        own_fits = len(fits)
        given = run_self_training(
            cal, targets, st, CLF, trace=given_trace, calibration_model=shared
        )
        assert len(fits) - own_fits == own_fits - 1
        assert given_trace == own_trace
        for a, b in zip(own, given):
            assert np.array_equal(a.predicted, b.predicted)
            assert np.array_equal(a.confidence, b.confidence)

