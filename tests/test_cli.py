import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import driftbench
from driftbench.cli import _format_grid, main
from driftbench.data_io import SyntheticConfig, generate_synthetic, load_dataset, write_batch_file

SYNTH_CFG = {
    "synthetic.enabled": True,
    "synthetic.n_classes": 3,
    "synthetic.dim": 8,
    "synthetic.per_class": 15,
    "synthetic.n_batches": 3,
    "synthetic.drift_step": 0.7,
    "synthetic.seed": 4,
    "drca.components": 7,
    "ldsp.components": 7,
    "classifier.max_iter": 200,
    "classifier.tol": 1e-4,
}


@pytest.fixture
def data_dir(tmp_path):
    """Canonical-format files written from a 128-dim synthetic dataset."""
    ds = generate_synthetic(
        SyntheticConfig(n_classes=3, dim=128, per_class=4, n_batches=2, drift_step=1.0, seed=2)
    )
    d = tmp_path / "data"
    d.mkdir()
    for bid in ds.batch_ids:
        write_batch_file(d / f"batch{bid}.dat", ds.batch(bid))
    return d


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SYNTH_CFG))
    return path


class TestIngest:
    def test_counts_table(self, data_dir, capsys):
        assert main(["ingest", "--data-dir", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert "batch" in out and "total" in out
        assert "12" in out  # 3 classes x 4 per class
        assert "24" in out  # total

    def test_missing_dir_fails(self, tmp_path, capsys):
        assert main(["ingest", "--data-dir", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err


class TestNormalize:
    def test_writes_unit_interval_batch1(self, data_dir, tmp_path, capsys):
        out_dir = tmp_path / "norm"
        assert main(["normalize", "--data-dir", str(data_dir), "--out", str(out_dir), "--stats"]) == 0
        ds = load_dataset(out_dir)
        X1 = ds.batch(1).feature_matrix()
        assert X1.min() >= 0.0 and X1.max() <= 1.0
        stats_out = capsys.readouterr().out
        assert "min" in stats_out and "max" in stats_out


class TestProject:
    def test_pca_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "proj.csv"
        code = main(["project", "--method", "pca", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "batch_id,label,x,y,clipped"
        assert len(lines) == 1 + 3 * 15 * 3

    def test_requires_out(self, config_file, capsys):
        assert main(["project", "--method", "pca", "--config", str(config_file)]) == 2


class TestRun:
    def test_writes_reports_and_prints_grid(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "report.json").exists()
        printed = capsys.readouterr().out
        assert "none" in printed and "accuracy" in printed

    def test_rerun_is_byte_identical_modulo_timestamp(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_file), "--out", str(a)]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(b)]) == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        da = json.loads((a / "report.json").read_text())
        db = json.loads((b / "report.json").read_text())
        da.pop("created_at")
        db.pop("created_at")
        assert da == db

    def test_method_takes_a_comma_list(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--method", "means,drca", "--out", str(out_dir)])
        assert code == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert {row["method"] for row in doc["grid"]} == {"means", "drca"}
        assert doc["config"]["methods"] == "means,drca"

    def test_unknown_method_fails(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file), "--method", "bogus", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown method 'bogus'" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"classifier.regstrength": 2.0}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_seed_override_changes_data(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(a)])
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(b), "--seed", "99"])
        da = json.loads((a / "report.json").read_text())
        db = json.loads((b / "report.json").read_text())
        assert da["provenance"]["dataset_checksum"] != db["provenance"]["dataset_checksum"]


class TestReport:
    def test_table_from_saved_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SYNTH_CFG, "methods": "none,means"}))
        out_dir = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out_dir)])
        capsys.readouterr()
        code = main(["report", "--report-file", str(out_dir / "report.json")])
        assert code == 0
        table = capsys.readouterr().out
        assert "none" in table and "means" in table

    def test_table_columns_line_up(self, capsys):
        rows = [
            {"method": m, "batch_id": b, "accuracy": 0.84}
            for m in ("means", "none", "selftrain")
            for b in range(1, 11)
            if (m, b) != ("none", 4)
        ]
        lines = _format_grid(rows).splitlines()
        assert lines[0].startswith("accuracy ")
        selftrain = next(line for line in lines if line.startswith("selftrain"))
        assert selftrain.startswith("selftrain 0.8400")
        columns = [m.start() for m in re.finditer(r"b\d+", lines[0])]
        assert len(columns) == 10
        for line in lines[1:]:
            assert line[: columns[0]].endswith(" "), line
            cells = [line[c : c + 7].strip() for c in columns]
            assert all(re.fullmatch(r"0\.8400|-", cell) for cell in cells), line
            assert len(re.findall(r"0\.8400|-", line)) == 10, line

    def test_csv_format_round_trip(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        capsys.readouterr()
        code = main(["report", "--report-file", str(out_dir / "report.json"), "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == (out_dir / "report.csv").read_text()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # No scipy module at all: scipy.linalg alone was most of the import time,
    # and scipy.optimize pulls in some 240 modules and ~20 MiB at start-up.
    src = str(Path(driftbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys, driftbench.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
