import argparse
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import driftbench
from driftbench import cli, data_io, harness
from driftbench.adaptation import METHOD_NAMES
from driftbench.cli import _format_grid, main
from driftbench.config import resolve_config
from driftbench.data_io import SyntheticConfig, generate_synthetic, load_dataset, write_batch_file
from driftbench.harness import Cell

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
        X1 = ds.batch(1).features
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

    def test_pca_of_unnormalized_data_when_normalize_is_disabled(self, tmp_path):
        raw_cfg = tmp_path / "raw.json"
        raw_cfg.write_text(json.dumps({**SYNTH_CFG, "normalize.enabled": False}))
        scaled_cfg = tmp_path / "scaled.json"
        scaled_cfg.write_text(json.dumps(SYNTH_CFG))
        raw, scaled, expected = tmp_path / "raw.csv", tmp_path / "scaled.csv", tmp_path / "e.csv"
        for cfg, out in ((raw_cfg, raw), (scaled_cfg, scaled)):
            assert main(["project", "--method", "pca", "--config", str(cfg), "--out", str(out)]) == 0
        dataset = generate_synthetic(resolve_config(SYNTH_CFG).synthetic)
        harness.export_projections(dataset, "pca", expected)
        assert raw.read_bytes() == expected.read_bytes()
        assert raw.read_bytes() != scaled.read_bytes()

    def test_requires_out(self, config_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["project", "--method", "pca", "--config", str(config_file)])
        assert info.value.code == 2
        assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--report", "counts"],
        ["project", "--method", "pca", "--components", "2", "--out", "p.csv"],
        ["ingest", "--out", "x.txt"],
        ["report", "--report-file", "r.json", "--config", "c.json"],
        ["report", "--report-file", "r.json", "--data-dir", "d"],
        ["report", "--report-file", "r.json", "--seed", "3"],
    ],
    ids=[
        "ingest-report",
        "project-components",
        "ingest-out",
        "report-config",
        "report-data-dir",
        "report-seed",
    ],
)
def test_removed_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("driftbench ")]
    assert {shlex.split(line)[1] for line in lines} == set(cli._COMMANDS)
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_readme_run_config_runs(tmp_path, monkeypatch):
    # The CLI section's run.json and its `driftbench run` line, run as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    run_line = next(line for line in block.splitlines() if line.startswith("driftbench run "))
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(config)
    argv = shlex.split(run_line)[1:]
    assert main(argv) == 0
    out_dir = Path(argv[argv.index("--out") + 1])
    assert (out_dir / "report.csv").exists()
    doc = json.loads((out_dir / "report.json").read_text())
    assert {row["method"] for row in doc["grid"]} == set(METHOD_NAMES)
    # The config's selftrain.threshold is low enough that self-training adds points.
    scores = {(r["method"], r["batch_id"]): (r["accuracy"], r["macro_f1"]) for r in doc["grid"]}
    batches = sorted({b for _, b in scores})
    assert [scores[("selftrain", b)] for b in batches] != [scores[("none", b)] for b in batches]


def test_readme_library_block_runs(standin_dir, tmp_path):
    # The Library section's example, run as written on the stand-in data.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert block.count('"/data/gas"') == 1
    script = tmp_path / "library.py"
    script.write_text(block.replace('"/data/gas"', repr(str(standin_dir))))
    src = str(Path(driftbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    assert [int(bid) for bid, _ in rows] == load_dataset(standin_dir).batch_ids[1:]
    assert all(0.0 <= float(acc) <= 1.0 for _, acc in rows)


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")
        if line.startswith("| `") and len(cells) == 4:
            table[cells[1].strip().strip("`")] = re.findall(r"`(--[a-z-]+)`", cells[2])
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {
        verb: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for verb, p in sub.choices.items()
    }
    assert table == parsers


class TestRun:
    def test_writes_reports_and_prints_grid(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "report.json").exists()
        printed = capsys.readouterr().out
        assert "none" in printed and "accuracy" in printed

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_file), "--out", str(a)]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(b)]) == 0
        for name in ("report.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_normalize_disabled_runs_on_unnormalized_data(self, config_file, tmp_path):
        raw_cfg = tmp_path / "raw.json"
        raw_cfg.write_text(json.dumps({**SYNTH_CFG, "normalize.enabled": False}))
        raw, scaled = tmp_path / "raw", tmp_path / "scaled"
        assert main(["run", "--config", str(raw_cfg), "--out", str(raw)]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(scaled)]) == 0
        assert json.loads((raw / "report.json").read_text())["config"]["normalize.enabled"] is False
        assert (raw / "report.csv").read_text() != (scaled / "report.csv").read_text()

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

    def test_removed_f1_average_key_fails_before_any_data_is_read(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("data was read")

        monkeypatch.setattr(harness, "generate_synthetic", no_data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SYNTH_CFG, "metrics.f1_average": "macro"}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: unknown config key(s): metrics.f1_average\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"classifier.regstrength": 2.0}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_seed_without_synthetic_data_fails_before_any_data_is_read(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("data was read")

        monkeypatch.setattr(harness, "load_dataset", no_data)
        out_dir = tmp_path / "o"
        argv = ["run", "--data-dir", str(data_dir), "--seed", "9", "--out", str(out_dir)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --seed ")
        assert not out_dir.exists()

    def test_empty_method_override_fails_before_any_data_is_read(
        self, config_file, tmp_path, capsys, monkeypatch
    ):
        # An explicitly empty --method overrides the file's methods as an
        # empty "methods" value in the file would, and fails the same way.
        def no_data(*args, **kwargs):
            raise AssertionError("data was read")

        monkeypatch.setattr(harness, "load_input_dataset", no_data)
        argv = ["run", "--config", str(config_file), "--method", "", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: methods must name at least one strategy\n"
        assert not (tmp_path / "o").exists()

    def test_empty_data_dir_override_clears_the_config_source(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("data was read")

        monkeypatch.setattr(harness, "load_dataset", no_data)
        cfg = tmp_path / "dir.json"
        cfg.write_text(json.dumps({"data.dir": str(data_dir)}))
        argv = ["run", "--config", str(cfg), "--data-dir", "", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "no input data" in capsys.readouterr().err

    def test_seed_override_changes_data(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(a)])
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(b), "--seed", "99"])
        da = json.loads((a / "report.json").read_text())
        db = json.loads((b / "report.json").read_text())
        assert da["provenance"]["dataset_checksum"] != db["provenance"]["dataset_checksum"]


def test_warm_cache_run_parses_nothing_and_reports_the_same(standin_dir, tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(standin_dir, data, ignore=shutil.ignore_patterns(data_io.CACHE_DIR))
    calls = []
    parse = data_io._parse_lines

    def spy(name, lines, stats):
        calls.append(name)
        return parse(name, lines, stats)

    monkeypatch.setattr(data_io, "_parse_lines", spy)
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    assert main(["run", "--data-dir", str(data), "--out", str(cold)]) == 0
    assert calls == [f"batch{n}.dat" for n in range(1, 11)]
    calls.clear()
    assert main(["run", "--data-dir", str(data), "--out", str(warm)]) == 0
    assert calls == []
    for name in ("report.csv", "report.json"):
        assert (cold / name).read_bytes() == (warm / name).read_bytes()


def one_row_report(**row):
    """A report.json document with one grid row, its fields overridden by ``row``."""
    cell = {"method": "none", "batch_id": 2, "n": 3, "accuracy": 1.0, "macro_f1": 1.0}
    return {"grid": [{**cell, **row}], "config": {}, "provenance": {}}


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
        grid = {
            (m, b): Cell(accuracy=0.84, macro_f1=0.8, n=10)
            for m in ("means", "none", "selftrain")
            for b in range(1, 11)
            if (m, b) != ("none", 4)
        }
        lines = _format_grid(grid).splitlines()
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

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"config": {}}, "'grid'"),
            ([1, 2], "not a JSON object"),
            (
                {
                    "grid": [{"method": "none", "n": 3, "accuracy": 1.0, "macro_f1": 1.0}],
                    "config": {},
                    "provenance": {},
                },
                "'batch_id'",
            ),
            ({"grid": [1], "config": {}, "provenance": {}}, "malformed grid row"),
            (one_row_report(method=5), "grid row 0: 'method'"),
            (one_row_report(batch_id=2.7), "grid row 0: 'batch_id'"),
            (one_row_report(batch_id="3"), "grid row 0: 'batch_id'"),
            (one_row_report(n=True), "grid row 0: 'n'"),
            (one_row_report(accuracy="0.9"), "grid row 0: 'accuracy'"),
            (one_row_report(accuracy=7.0), "grid row 0: 'accuracy'"),
            (one_row_report(accuracy=math.nan), "grid row 0: 'accuracy'"),
            (one_row_report(macro_f1=False), "grid row 0: 'macro_f1'"),
            (
                {**one_row_report(), "grid": one_row_report()["grid"] * 2},
                "grid row 1: 'method' and 'batch_id'",
            ),
            # dict() would read ["ab"] as {"a": "b"} and a list of pairs as a mapping
            ({**one_row_report(), "provenance": ["ab"]}, "'provenance' is not a JSON object"),
            ({**one_row_report(), "provenance": "ab"}, "'provenance' is not a JSON object"),
            (
                {**one_row_report(), "config": [["methods", "none"]]},
                "'config' is not a JSON object",
            ),
        ],
        ids=[
            "no-grid", "not-an-object", "row-without-batch-id", "row-not-an-object",
            "method-not-a-string", "batch-id-a-float", "batch-id-a-string", "n-a-bool",
            "accuracy-a-string", "accuracy-above-one", "accuracy-nan", "macro-f1-a-bool",
            "repeated-cell", "provenance-a-list", "provenance-a-string", "config-a-list-of-pairs",
        ],
    )
    def test_malformed_report_is_one_error_line(self, tmp_path, capsys, doc, named):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--report-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]

    def test_unreadable_report_file_is_one_error_line(self, tmp_path, capsys):
        assert main(["report", "--report-file", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_csv_format_round_trip(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        capsys.readouterr()
        code = main(["report", "--report-file", str(out_dir / "report.json"), "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == (out_dir / "report.csv").read_text()

    def test_csv_out_is_written_atomically(self, config_file, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        written = []
        write = cli.atomic_write_text

        def recording(path, text):
            written.append(str(path))
            write(path, text)

        monkeypatch.setattr(cli, "atomic_write_text", recording)
        target = tmp_path / "copy.csv"
        argv = ["report", "--report-file", str(out_dir / "report.json"), "--format", "csv"]
        assert main([*argv, "--out", str(target)]) == 0
        assert written == [str(target)]
        assert target.read_text() == (out_dir / "report.csv").read_text()

    def test_table_out_is_written_atomically(self, config_file, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        argv = ["report", "--report-file", str(out_dir / "report.json")]
        capsys.readouterr()
        assert main(argv) == 0
        table = capsys.readouterr().out
        written = []
        write = cli.atomic_write_text

        def recording(path, text):
            written.append(str(path))
            write(path, text)

        monkeypatch.setattr(cli, "atomic_write_text", recording)
        target = tmp_path / "t.txt"
        assert main([*argv, "--out", str(target)]) == 0
        assert written == [str(target)]
        assert target.read_text() == table
        assert capsys.readouterr().out == f"wrote {target}\n"

    def test_out_makes_a_missing_directory(self, config_file, tmp_path):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        target = tmp_path / "missing" / "dir" / "r.csv"
        argv = ["report", "--report-file", str(out_dir / "report.json"), "--format", "csv"]
        assert main([*argv, "--out", str(target)]) == 0
        assert target.read_text() == (out_dir / "report.csv").read_text()

    def test_closed_stdout_pipe_is_not_an_error(self, config_file, tmp_path):
        # The child's import takes far longer than closing the pipe, so its
        # first write always meets a reader that has gone (as under `| head`).
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        src = str(Path(driftbench.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        argv = ["-m", "driftbench.cli", "report", "--report-file", str(out_dir / "report.json")]
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with subprocess.Popen([sys.executable, *argv], env=env, **pipes) as child:
            child.stdout.close()
            err = child.stderr.read()
        assert child.returncode == 0
        assert err == b""

    def test_report_that_still_names_f1_average_renders(self, config_file, tmp_path, capsys):
        # Reports written before metrics.f1_average was removed echo it in "config".
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--method", "none", "--out", str(out_dir)])
        path = out_dir / "report.json"
        doc = json.loads(path.read_text())
        doc["config"]["metrics.f1_average"] = "macro"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--report-file", str(path)]) == 0
        assert capsys.readouterr().out.startswith("accuracy ")
        assert main(["report", "--report-file", str(path), "--format", "csv"]) == 0
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


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_projections_do_not_depend_on_the_blas_thread_count(standin_dir, tmp_path):
    # The command pins one BLAS thread unless the caller sets a count.  With
    # the variables unset, BLAS would take one thread per core, and on 2 or
    # more cores the LDA projections differed in their last digits.  conftest
    # and cli set the variables in this process too, so each child's
    # environment is built here.
    src = str(Path(driftbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    envs = {
        "unset": dict(unset, PYTHONPATH=path),
        "one": dict(unset, PYTHONPATH=path, **dict.fromkeys(BLAS_THREAD_VARS, "1")),
    }
    for method in ("lda", "lda-per-batch"):
        outs = {}
        for name, env in envs.items():
            outs[name] = tmp_path / f"{method}-{name}.csv"
            argv = ["project", "--method", method, "--data-dir", str(standin_dir)]
            subprocess.run(
                [sys.executable, "-m", "driftbench.cli", *argv, "--out", str(outs[name])],
                env=env,
                check=True,
            )
        assert outs["unset"].read_bytes() == outs["one"].read_bytes(), method


def test_run_leaves_numpy_ma_unloaded(config_file, tmp_path):
    # np.unique imports numpy.ma on its first call (numpy 2.4), which a run
    # pays for in import time and memory and does not need.  numpy 1.x
    # imports it with numpy itself, and then there is nothing to save.
    src = str(Path(driftbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["run", "--config", str(config_file), "--method", "all", "--out", str(tmp_path / "out")]
    probe = (
        "import sys, driftbench.cli; "
        "loaded = 'numpy.ma' in sys.modules; "
        f"code = driftbench.cli.main({argv!r}); "
        "print(code, not loaded and 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 False"
