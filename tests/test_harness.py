import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import driftbench
from driftbench import adaptation, harness
from driftbench.config import ConfigError, resolve_config
from driftbench.data_io import Batch, DataFormatError, Dataset, write_batch_file
from driftbench.harness import (
    PROJECTION_PLOT_LIMIT,
    export_projections,
    export_report,
    load_input_dataset,
    projection_rows,
    report_from_json_dict,
    report_to_csv,
    report_to_json_dict,
    run_experiment,
)
from driftbench.preprocess import normalize_dataset

from run import SYNTHETIC  # perfbench/run.py: the adapt-synthetic workload's config

SYNTH_KEYS = {
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


def synth_config(**extra):
    return resolve_config({**SYNTH_KEYS, **extra})


def fit_iterations(monkeypatch) -> list:
    """A list that gains the iteration count of each classifier fit in a run."""
    iters = []
    train = adaptation.train_with_config

    def counting(*args, **kwargs):
        model = train(*args, **kwargs)
        iters.append(model.n_iter)
        return model

    monkeypatch.setattr(adaptation, "train_with_config", counting)
    return iters


class TestRunExperiment:
    def test_zero_drift_single_method_is_flat(self):
        cfg = synth_config(**{"methods": "none", "synthetic.drift_step": 0.0})
        report = run_experiment(cfg)
        accs = [report.grid[("none", b)].accuracy for b in range(2, 6)]
        assert max(accs) - min(accs) <= 0.08

    def test_grid_covers_reference_and_targets_for_all_methods(self):
        cfg = synth_config()
        report = run_experiment(cfg)
        for m in cfg.methods:
            for b in range(1, 6):
                assert (m, b) in report.grid
                cell = report.grid[(m, b)]
                assert 0.0 <= cell.accuracy <= 1.0
                assert 0.0 <= cell.macro_f1 <= 1.0
                assert cell.n == 100
        assert report.provenance["reference_batch_id"] == 1
        assert len(report.provenance["dataset_checksum"]) == 64

    def test_deterministic(self, tmp_path):
        cfg = synth_config()
        a = export_report(run_experiment(cfg), tmp_path / "a")
        b = export_report(run_experiment(cfg), tmp_path / "b")
        for path_a, path_b in zip(a, b):
            assert path_a.read_bytes() == path_b.read_bytes()

    @pytest.mark.parametrize(
        "method, fits",
        [("none", 1), ("means", 1), ("drca", 6), ("drca,ldsp", 7), ("none,drca", 6)],
    )
    def test_calibration_model_trained_once_per_target_set(self, monkeypatch, method, fits):
        # batch 1's reference row shares the call that scores batches 2..N.
        # DRCA and LDSP each fit their own reference row, and share one
        # calibration fit and one chain fit per drifted target.
        calls = []
        train = adaptation.train_with_config

        def counting(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(adaptation, "train_with_config", counting)
        report = run_experiment(synth_config(methods=method))
        assert len(calls) == fits
        assert sorted({b for _, b in report.grid}) == [1, 2, 3, 4, 5]

    def test_adapt_synthetic_iterations_stay_low(self, monkeypatch):
        # The benchmark's adapt-synthetic config at drift step 0.5 takes 166
        # L-BFGS iterations over its 12 fits.  Unscaled weights, cold batch-1
        # eigen fits and the largest-entry stop test together took 263.
        iters = []
        train = adaptation.train_with_config

        def counting(*args, **kwargs):
            model = train(*args, **kwargs)
            iters.append(model.n_iter)
            return model

        monkeypatch.setattr(adaptation, "train_with_config", counting)
        run_experiment(resolve_config({**SYNTHETIC, "synthetic.drift_step": 0.5}))
        assert len(iters) == 12
        assert sum(iters) <= 180

    def test_five_method_run_fits_no_pool_twice(self, monkeypatch):
        # A self-training round whose pool has not grown since its model was
        # fitted predicts with that model; a refit would stop at 0 iterations.
        iters = fit_iterations(monkeypatch)
        methods = ",".join(adaptation.METHOD_NAMES)
        run_experiment(
            resolve_config({**SYNTHETIC, "synthetic.drift_step": 0.5, "methods": methods})
        )
        assert len(iters) == 22
        assert 0 not in iters

    def test_raw_batches_are_freed_before_the_split(self, monkeypatch):
        # The run rescales the loaded batches in place, so no raw batch
        # outlives its rescaled copy: the run holds one copy of the data.
        raw, alive = [], []
        load, split = harness.load_input_dataset, harness.split_calibration

        def loading(cfg):
            dataset = load(cfg)
            raw.extend(weakref.ref(b) for b in dataset.batches.values())
            return dataset

        def splitting(dataset):
            alive.extend(ref for ref in raw if ref() is not None)
            return split(dataset)

        monkeypatch.setattr(harness, "load_input_dataset", loading)
        monkeypatch.setattr(harness, "split_calibration", splitting)
        run_experiment(synth_config(methods="none"))
        assert len(raw) == 5
        assert alive == []

    def test_none_and_selftrain_share_one_calibration_fit(self, monkeypatch):
        cfg = synth_config(methods="none,selftrain")
        n_calibration = len(load_input_dataset(cfg).batch(1))
        zero_start = []
        real = adaptation.train_with_config

        def counting(X, y, config, init_weights=None):
            if init_weights is None and X.shape[0] == n_calibration:
                zero_start.append(1)
            return real(X, y, config, init_weights)

        monkeypatch.setattr(adaptation, "train_with_config", counting)
        report = run_experiment(cfg)
        assert len(zero_start) == 1
        assert sorted(report.grid) == [(m, b) for m in ("none", "selftrain") for b in range(1, 6)]

    def test_impossible_components_fail_before_any_fit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(adaptation, "train_with_config", lambda *a, **k: calls.append(1))
        with pytest.raises(ConfigError, match=r"drca\.components=127.*D=16"):
            run_experiment(resolve_config({"synthetic.enabled": True}))
        assert calls == []
        with pytest.raises(ConfigError, match=r"ldsp\.components=12.*D=12"):
            run_experiment(synth_config(**{"methods": "none,ldsp", "ldsp.components": 12}))
        assert calls == []

    def test_reference_row_components_fail_before_any_fit(self, monkeypatch):
        # With batch 1 alone there is no target to deflate, and the reference
        # row's eigen fit keeps at most the D features.
        fits = fit_iterations(monkeypatch)
        with pytest.raises(ConfigError, match=r"drca\.components=127 exceeds the D=16"):
            run_experiment(resolve_config({"synthetic.enabled": True, "synthetic.n_batches": 1}))
        assert fits == []

    def test_single_class_calibration_batch_fails_before_any_fit(self, monkeypatch, tmp_path):
        ds = load_input_dataset(synth_config())
        for bid in ds.batch_ids:
            batch = ds.batch(bid)
            labels = np.ones_like(batch.labels) if bid == 1 else batch.labels
            write_batch_file(tmp_path / f"batch{bid}.dat", Batch(bid, batch.features, labels))
        fits = fit_iterations(monkeypatch)
        with pytest.raises(DataFormatError, match=r"batch 1 holds 1 class"):
            run_experiment(resolve_config({"data.dir": str(tmp_path), "methods": "none"}))
        assert fits == []

    def test_components_unchecked_without_drifted_targets(self):
        cfg = synth_config(
            **{"synthetic.n_batches": 1, "methods": "drca", "drca.components": 12}
        )
        assert sorted(run_experiment(cfg).grid) == [("drca", 1)]

    def test_input_source_must_be_unambiguous(self):
        with pytest.raises(ConfigError, match="not both"):
            load_input_dataset(synth_config(**{"data.dir": "/nope"}))
        with pytest.raises(ConfigError, match="no input data"):
            load_input_dataset(resolve_config({}))


class TestReportSerialization:
    def test_csv_shape_and_precision(self):
        cfg = synth_config(methods="none,means")
        report = run_experiment(cfg)
        csv = report_to_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "method,batch_id,n,accuracy,macro_f1"
        assert len(lines) == 1 + 2 * 5  # 2 methods x 5 batches
        for line in lines[1:]:
            cells = line.split(",")
            assert re.fullmatch(r"\d+\.\d{6,}", cells[3]), cells[3]
            assert re.fullmatch(r"\d+\.\d{6,}", cells[4]), cells[4]
        # sorted by (method, batch_id)
        keys = [(c.split(",")[0], int(c.split(",")[1])) for c in lines[1:]]
        assert keys == sorted(keys)

    def test_json_round_trip(self):
        cfg = synth_config(methods="none")
        report = run_experiment(cfg)
        back = report_from_json_dict(report_to_json_dict(report))
        assert back == report

    def test_export_writes_both_files(self, tmp_path):
        cfg = synth_config(methods="none")
        report = run_experiment(cfg)
        csv_path, json_path = export_report(report, tmp_path / "out")
        assert csv_path.read_text() == report_to_csv(report)
        doc = json.loads(json_path.read_text())
        assert doc["config"]["methods"] == "none"
        assert report_from_json_dict(doc) == report

    def test_json_holds_no_clock_and_an_older_stamped_report_still_reads(self, tmp_path):
        report = run_experiment(synth_config(methods="none"))
        doc = report_to_json_dict(report)
        assert set(doc) == {"grid", "config", "provenance"}
        # Reports written before the stamp was dropped carry a top-level created_at.
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**doc, "created_at": "2026-01-01T00:00:00+00:00"}))
        assert report_from_json_dict(json.loads(path.read_text())) == report

    def test_code_version_is_the_project_version(self):
        # report.json's code_version is driftbench.__version__; pyproject.toml
        # holds the version that gets installed.  Python 3.10 has no tomllib.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        version = re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
        assert version == driftbench.__version__
        report = run_experiment(synth_config(methods="none"))
        assert report_to_json_dict(report)["provenance"]["code_version"] == version


def tiny_projection_dataset():
    """Batch 1 dominated by axis 0 with extreme values; small second batch."""
    def mk(rows, labels, bid):
        return Batch(bid, np.array(rows, float), labels)

    b1 = mk(
        [[500.0, 0.0, 0.1], [-500.0, 0.0, -0.1], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
        [1, 1, 2, 2],
        1,
    )
    b2 = mk([[10.0, 0.5, 0.0], [-10.0, -0.5, 0.0]], [1, 2], 2)
    return Dataset({1: b1, 2: b2})


class TestProjections:
    def test_pca_rows_and_clipped_flag(self):
        rows = projection_rows(tiny_projection_dataset(), "pca")
        assert len(rows) == 6
        by_batch = {}
        for bid, label, x, y, clipped in rows:
            by_batch.setdefault(bid, []).append((label, x, y, clipped))
        # extreme axis-0 points exceed the plot limit, small ones do not
        flags = [r[3] for r in by_batch[1]]
        assert flags == [1, 1, 0, 0]
        assert all(r[3] == 0 for r in by_batch[2])
        xs = [abs(r[1]) for r in by_batch[1][:2]]
        assert min(xs) >= PROJECTION_PLOT_LIMIT

    def test_all_points_emitted_even_when_clipped(self):
        rows = projection_rows(tiny_projection_dataset(), "pca")
        assert len(rows) == sum(len(b) for b in tiny_projection_dataset().batches.values())

    def test_per_batch_lda_matches_batch1_fit_on_batch1(self, small_synth):
        ds = normalize_dataset(small_synth)
        fixed = projection_rows(ds, "lda")
        per_batch = projection_rows(ds, "lda-per-batch")
        fixed_b1 = [r for r in fixed if r[0] == 1]
        per_b1 = [r for r in per_batch if r[0] == 1]
        assert fixed_b1 == per_b1

    def test_export_writes_csv(self, tmp_path, small_synth):
        ds = normalize_dataset(small_synth)
        path = export_projections(ds, "lda", tmp_path / "proj.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "batch_id,label,x,y,clipped"
        assert len(lines) == 1 + ds.n_samples

    @pytest.mark.parametrize(
        "which, classes, batch", [("lda", (2, 3), 1), ("lda-per-batch", (3, 2), 2)]
    )
    def test_discriminant_views_need_three_classes_in_each_fitted_batch(
        self, monkeypatch, which, classes, batch
    ):
        rng = np.random.default_rng(0)
        ds = Dataset({
            b: Batch(b, rng.normal(size=(6, 4)), np.arange(6) % c + 1)
            for b, c in zip((1, 2), classes)
        })
        fits = []
        monkeypatch.setattr(harness, "lda_fit", lambda *a: fits.append(1))
        with pytest.raises(DataFormatError, match=rf"batch {batch} holds 2 class.*{which}"):
            projection_rows(ds, which)
        assert fits == []

    def test_unknown_view_rejected(self, small_synth):
        with pytest.raises(ValueError, match="view"):
            projection_rows(small_synth, "tsne")
