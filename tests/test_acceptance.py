"""Acceptance criteria, one test per criterion.

Criteria 1-6 need the real gas-sensor batch files; point DRIFTBENCH_DATA_DIR
at the directory holding batch1.dat .. batch10.dat to enable them.  Criteria
7 (property suites) and 8 (determinism) are hermetic and always run.

Each criterion prints a single `ACCEPTANCE <id>: PASS` line on success; run
with ``pytest tests/test_acceptance.py -v -rA`` to see them.
"""

import time

import numpy as np
import pytest

from driftbench import adaptation
from driftbench.adaptation import (
    run_means_correction,
    run_no_adaptation,
    run_subspace_method,
    split_calibration,
    train_calibration_model,
)
from driftbench.classifier import ClassifierConfig
from driftbench.config import resolve_config
from driftbench.data_io import SyntheticConfig, generate_synthetic, load_dataset
from driftbench.harness import export_report, run_experiment
from driftbench.metrics import accuracy, f1_score
from driftbench.preprocess import apply_minmax_matrix, fit_minmax
from driftbench.subspace import (
    DrcaConfig,
    LdspConfig,
    covariance,
    deflation_threshold,
    drca_fit,
    ldsp_fit,
    scatter_matrices,
)

from conftest import objective_and_gradient
from oracles import (
    confusion_accuracy,
    confusion_macro_f1,
    full_space_objective_matrix,
    logreg_objective,
)

CANONICAL_BATCH_COUNTS = [445, 1244, 1586, 161, 197, 2300, 3613, 294, 470, 3600]
TOTAL_COUNT = 13910

_c7_elapsed = 0.0


def report_pass(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="session")
def canonical_dataset(canonical_dir):
    start = time.perf_counter()
    dataset = load_dataset(canonical_dir)
    return dataset, time.perf_counter() - start


@pytest.fixture(scope="session")
def canonical_grid(canonical_dir):
    """One full five-method run at the published hyperparameter values."""
    cfg = resolve_config({"data.dir": str(canonical_dir)})
    start = time.perf_counter()
    report = run_experiment(cfg)
    return report.grid, time.perf_counter() - start


def mean_acc(grid, method, batch_ids):
    return float(np.mean([grid[(method, b)].accuracy for b in batch_ids]))


class TestCanonical:
    def test_c1_ingestion_exactness(self, canonical_dataset):
        dataset, elapsed = canonical_dataset
        counts = [len(dataset.batch(b)) for b in range(1, 11)]
        assert counts == CANONICAL_BATCH_COUNTS
        assert dataset.n_samples == TOTAL_COUNT
        for b in dataset.batch_ids:
            labels = dataset.batch(b).labels
            assert set(np.unique(labels)) <= {1, 2, 3, 4, 5, 6}
        assert elapsed < 5.0, f"load took {elapsed:.2f}s"
        report_pass(1, f"counts match, total {TOTAL_COUNT}, load {elapsed:.2f}s")

    def test_c2_normalization_ranges(self, canonical_dataset):
        dataset, _ = canonical_dataset
        start = time.perf_counter()
        params = fit_minmax(dataset.batch(1))
        b1 = apply_minmax_matrix(params, dataset.batch(1).features)
        b2 = apply_minmax_matrix(params, dataset.batch(2).features)
        elapsed = time.perf_counter() - start
        assert b1.min() >= 0.0 and b1.max() <= 1.0
        assert b2.min() <= -57.0, f"batch-2 minimum {b2.min():.1f}"
        assert b2.max() >= 2600.0, f"batch-2 maximum {b2.max():.1f}"
        assert elapsed < 5.0
        report_pass(2, f"batch1 in [0,1]; batch2 extremes [{b2.min():.1f}, {b2.max():.1f}]")

    def test_c3_drift_decay_without_adaptation(self, canonical_grid):
        grid, _ = canonical_grid
        early = mean_acc(grid, "none", [2, 3])
        late = mean_acc(grid, "none", [8, 9, 10])
        assert late <= early - 0.15, f"early {early:.3f} late {late:.3f}"
        report_pass(3, f"no-adaptation mean acc {early:.3f} (b2-3) vs {late:.3f} (b8-10)")

    def test_c4_subspace_methods_beat_no_adaptation(self, canonical_grid):
        grid, elapsed = canonical_grid
        batches = list(range(2, 11))
        base = mean_acc(grid, "none", batches)
        for method in ("drca", "ldsp"):
            gain = mean_acc(grid, method, batches) - base
            assert gain >= 0.05, f"{method} gain {gain:.3f}"
            for b in (5, 6, 7):
                assert grid[(method, b)].accuracy > grid[("none", b)].accuracy
        assert elapsed < 300.0, f"five-method run took {elapsed:.1f}s"
        report_pass(4, f"drca/ldsp exceed no-adaptation by >=5 pts; run {elapsed:.1f}s")

    def test_c5_self_training_pathology(self, canonical_grid):
        grid, _ = canonical_grid
        batches = list(range(2, 11))
        st = mean_acc(grid, "selftrain", batches)
        base = mean_acc(grid, "none", batches)
        assert st <= base, f"selftrain {st:.3f} vs none {base:.3f}"
        report_pass(5, f"selftrain mean acc {st:.3f} <= no-adaptation {base:.3f}")

    def test_c6_means_correction_band(self, canonical_grid):
        grid, _ = canonical_grid
        for b in range(2, 7):
            acc = grid[("means", b)].accuracy
            assert 0.65 <= acc <= 0.80, f"batch {b} accuracy {acc:.3f}"
        late_means = mean_acc(grid, "means", [8, 9, 10])
        late_drca = mean_acc(grid, "drca", [8, 9, 10])
        assert late_means < late_drca
        report_pass(6, f"means in band on b2-6; late means {late_means:.3f} < drca {late_drca:.3f}")


@pytest.fixture(autouse=True)
def _time_c7(request):
    """Accumulate wall time of the criterion-7 property suites."""
    if "TestProperties" not in request.node.nodeid:
        yield
        return
    global _c7_elapsed
    start = time.perf_counter()
    yield
    _c7_elapsed += time.perf_counter() - start


class TestProperties:
    def test_c7a_subspace_fit_invariants_100_random(self):
        rng = np.random.default_rng(101)
        for trial in range(100):
            d = int(rng.integers(3, 10))
            n_s = int(rng.integers(6, 40))
            n_t = int(rng.integers(6, 40))
            src = rng.normal(size=(n_s, d)) * rng.uniform(0.5, 3)
            shift = rng.normal(size=d) * rng.uniform(0, 3)
            tgt = rng.normal(size=(n_t, d)) + shift
            tw = float(rng.uniform(0, 2))
            k = int(rng.integers(1, d))
            if trial % 2 == 0:
                cfg = DrcaConfig(tw, k)
                proj = drca_fit(src, tgt, cfg)
                A = covariance(src) + tw * covariance(tgt)
            else:
                y = rng.integers(1, 4, size=n_s)
                y[:3] = [1, 2, 3]
                ww = float(rng.uniform(0, 5))
                bw = float(rng.uniform(0, 20))
                cfg = LdspConfig(tw, ww, bw, k)
                proj = ldsp_fit(src, y, tgt, cfg)
                s_w, s_b = scatter_matrices(src, y)
                A = covariance(src) + tw * covariance(tgt) - ww * s_w + bw * s_b
            W = proj.matrix
            assert np.linalg.norm(W.T @ W - np.eye(k)) <= 1e-8
            diff = proj.source_center - proj.target_center
            deflated = np.linalg.norm(diff) > deflation_threshold(d)
            if deflated:
                assert np.linalg.norm(W.T @ diff) <= 1e-8 * np.linalg.norm(diff)
            M = full_space_objective_matrix(0.5 * (A + A.T), diff, deflated)
            residual = np.linalg.norm(M @ W - W * proj.eigenvalues, axis=0).max()
            assert residual <= 1e-8 * (1.0 + np.linalg.norm(M))
        report_pass("7a", "eigen residual/orthonormality/deflation on 100 random fits")

    def test_c7b_gradient_check_20_instances(self):
        rng = np.random.default_rng(102)
        h = 1e-6
        for _ in range(20):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(2, 5))
            C = int(rng.integers(2, 5))
            X = rng.normal(size=(n, k))
            y_idx = rng.integers(0, C, size=n)
            y_idx[:C] = np.arange(C)
            reg = float(rng.uniform(0.01, 0.5))
            params = rng.normal(size=(C, k + 1)) * 0.5
            _, analytic = objective_and_gradient(params, X, y_idx, reg)
            numeric = np.zeros_like(params)
            for i in range(C):
                for j in range(k + 1):
                    up = params.copy()
                    up[i, j] += h
                    dn = params.copy()
                    dn[i, j] -= h
                    numeric[i, j] = (
                        logreg_objective(up, X, y_idx, reg) - logreg_objective(dn, X, y_idx, reg)
                    ) / (2 * h)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert rel.max() <= 1e-5
        report_pass("7b", "analytic gradient matches central differences on 20 instances")

    def test_c7c_scatter_identity_50_instances(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(4, 50))
            d = int(rng.integers(2, 8))
            X = rng.normal(size=(n, d)) * rng.uniform(0.2, 5)
            y = rng.integers(0, 4, size=n)
            s_w, s_b = scatter_matrices(X, y)
            C = covariance(X)
            scale = max(np.abs(C).max(), 1.0)
            assert np.abs(s_w + s_b - C).max() <= 1e-12 * scale
        report_pass("7c", "S_w + S_b equals covariance on 50 random instances")

    def test_c7d_metric_oracle_1000_pairs(self):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(2, 8))
            p = rng.integers(1, k + 1, size=n)
            a = rng.integers(1, k + 1, size=n)
            assert accuracy(p, a) == confusion_accuracy(list(p), list(a))
            assert abs(f1_score(p, a) - confusion_macro_f1(list(p), list(a))) <= 1e-12
        report_pass("7d", "accuracy/macro-F1 match the confusion-matrix oracle on 1000 pairs")

    def test_c7e_ldsp_degenerates_to_drca_10_datasets(self, monkeypatch):
        # An empty chain sends every target through each method's own eigen
        # fit, so the two methods are compared, not the chain they share.
        clf = ClassifierConfig(max_iter=200, tol=1e-5)
        fits = []

        def counted(fit):
            def wrapper(*args):
                fits.append(fit.__name__)
                return fit(*args)

            return wrapper

        monkeypatch.setattr(adaptation, "drca_fit", counted(drca_fit))
        monkeypatch.setattr(adaptation, "ldsp_fit", counted(ldsp_fit))
        for seed in range(10):
            ds = generate_synthetic(
                SyntheticConfig(
                    n_classes=3, dim=8, per_class=10, n_batches=3, drift_step=0.8, seed=seed
                )
            )
            cal, targets, _ = split_calibration(ds)
            model = train_calibration_model(cal, clf)
            drca = run_subspace_method(cal, targets, "drca", DrcaConfig(0.1, 7), clf, model, {})
            ldsp = run_subspace_method(
                cal, targets, "ldsp", LdspConfig(0.1, 0.0, 0.0, 7), clf, model, {}
            )
            for x, z in zip(drca, ldsp):
                assert np.array_equal(x.predicted, z.predicted)
        assert fits.count("drca_fit") == fits.count("ldsp_fit") == 10 * 2
        report_pass("7e", "LDSP with zero scatter weights predicts identically to DRCA")

    def test_c7f_means_correction_restores_translation_drift(self):
        clf = ClassifierConfig(max_iter=500, tol=1e-7)
        base = dict(n_classes=4, dim=8, per_class=30, n_batches=4, seed=29)
        drifted = generate_synthetic(SyntheticConfig(drift_step=2.5, **base))
        still = generate_synthetic(SyntheticConfig(drift_step=0.0, **base))
        cal_d, targets_d, store_d = split_calibration(drifted)
        cal_s, targets_s, store_s = split_calibration(still)
        corrected = [
            accuracy(p.predicted, store_d.labels_for(p.batch_id))
            for p in run_means_correction(cal_d, targets_d, train_calibration_model(cal_d, clf))
        ]
        reference = [
            accuracy(p.predicted, store_s.labels_for(p.batch_id))
            for p in run_no_adaptation(targets_s, train_calibration_model(cal_s, clf))
        ]
        gap = np.abs(np.array(corrected) - np.array(reference)).max()
        assert gap <= 0.01, f"worst per-batch gap {gap:.4f}"
        report_pass("7f", f"means correction within {gap:.4f} of zero-drift accuracy")

    def test_c7_runtime_budget(self):
        assert _c7_elapsed < 60.0, f"property suites took {_c7_elapsed:.1f}s"
        report_pass("7", f"property suites completed in {_c7_elapsed:.1f}s")


class TestDeterminism:
    def test_c8_reruns_byte_identical(self, tmp_path):
        cfg = resolve_config(
            {
                "synthetic.enabled": True,
                "synthetic.n_classes": 4,
                "synthetic.dim": 12,
                "synthetic.per_class": 25,
                "synthetic.n_batches": 5,
                "synthetic.drift_step": 0.8,
                "synthetic.seed": 11,
                "drca.components": 11,
                "ldsp.components": 11,
                "classifier.max_iter": 300,
                "classifier.tol": 1e-5,
            }
        )
        a, b = (export_report(run_experiment(cfg), tmp_path / name) for name in ("a", "b"))
        for path_a, path_b in zip(a, b):
            assert path_a.read_bytes() == path_b.read_bytes()
        report_pass(8, "full five-method rerun writes byte-identical report.csv and report.json")
