"""Tests of the benchmark's own checks: tampered outputs must be caught.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py

The outputs come from the real ``driftbench`` command on a small stand-in
(ten batches of 60 samples), so a passing check is shown to pass on genuine
output before a tampered copy is shown to fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from standin import make_standin, standin_checksum, write_standin  # noqa: E402

SIZES = (60,) * 10


def driftbench(*args: str) -> None:
    env = dict(os.environ, **run.CHILD_ENV)
    subprocess.run([sys.executable, "-c", run.DRIFTBENCH, *args], cwd=ROOT, env=env,
                   check=True, capture_output=True)


@pytest.fixture(scope="module")
def standin():
    return make_standin(3, SIZES)


@pytest.fixture(scope="module")
def data_dir(standin, tmp_path_factory):
    path = tmp_path_factory.mktemp("input")
    write_standin(standin, path)
    return path


@pytest.fixture(scope="module")
def normalized(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("normalized")
    driftbench("normalize", "--data-dir", str(data_dir), "--out", str(out))
    return out


@pytest.fixture(scope="module")
def report(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    driftbench("run", "--data-dir", str(data_dir), "--out", str(out))
    return out


@pytest.fixture
def copy(tmp_path):
    def make(src: Path) -> Path:
        dst = tmp_path / src.name
        shutil.copytree(src, dst)
        return dst
    return make


def edit_line(path: Path, line_no: int, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[line_no] = edit(lines[line_no])
    path.write_text("".join(lines))


def test_standin_checksum_matches_the_program(data_dir, standin):
    from driftbench.data_io import dataset_checksum, load_dataset

    assert dataset_checksum(load_dataset(data_dir)) == standin_checksum(standin)


def test_genuine_outputs_pass(normalized, report, standin):
    checks.check_normalize(normalized, standin)
    checks.check_run_all(report, standin, standin_checksum(standin))


def test_tampered_normalized_value_is_caught(normalized, standin, copy):
    out = copy(normalized)

    def nudge(line):
        head, first, rest = line.split(" ", 2)
        index, value = first.split(":")
        return f"{head} {index}:{float(value) + 1e-9!r} {rest}"

    edit_line(out / "batch3.dat", 5, nudge)
    with pytest.raises(checks.CheckFailed, match="batch3.dat: line 6 feature 1"):
        checks.check_normalize(out, standin)


def test_tampered_normalized_label_is_caught(normalized, standin, copy):
    out = copy(normalized)
    edit_line(out / "batch7.dat", 0, lambda line: str(int(line[0]) % 6 + 1) + line[1:])
    with pytest.raises(checks.CheckFailed, match="labels differ"):
        checks.check_normalize(out, standin)


def test_dropped_normalized_line_is_caught(normalized, standin, copy):
    out = copy(normalized)
    path = out / "batch10.dat"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(checks.CheckFailed, match="59 lines, expected 60"):
        checks.check_normalize(out, standin)


def test_tampered_report_size_is_caught(report, standin, copy):
    out = copy(report)
    edit_line(out / "report.csv", 12, lambda line: line.replace(",60,", ",61,"))
    with pytest.raises(checks.CheckFailed, match="has n=61"):
        checks.check_run_all(out, standin, standin_checksum(standin))


def test_missing_report_row_is_caught(report, standin, copy):
    out = copy(report)
    edit_line(out / "report.csv", 30, lambda line: "")
    with pytest.raises(checks.CheckFailed, match="49 rows, expected 50"):
        checks.check_run_all(out, standin, standin_checksum(standin))


def test_tampered_report_accuracy_is_caught(report, standin, copy):
    out = copy(report)
    path = out / "report.csv"
    row = next(i for i, line in enumerate(path.read_text().splitlines()) if line.startswith("none,10,"))
    edit_line(path, row, lambda line: "none,10,60,1.0000000000,1.0000000000\n")
    with pytest.raises(checks.CheckFailed, match="none scores 1.0000 on the last batch"):
        checks.check_run_all(out, standin, standin_checksum(standin))


def test_tampered_report_checksum_is_caught(report, standin, copy):
    out = copy(report)
    path = out / "report.json"
    doc = json.loads(path.read_text())
    doc["provenance"]["dataset_checksum"] = "0" * 64
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="dataset_checksum"):
        checks.check_run_all(out, standin, standin_checksum(standin))


def test_missing_wrapped_function_fails_loudly(monkeypatch):
    import driftbench.cli  # noqa: F401

    monkeypatch.setattr(traced, "WRAPPED", (("data_io", "no_such_function", "x", None),))
    with pytest.raises(SystemExit) as exc:
        traced.install(traced.Tracer())
    assert exc.value.code == traced.MISSING_FUNCTION


DONE = run.Run(code=0, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, log=Path("-"))


def test_layer_that_never_ran_fails_loudly():
    trace = {"spans": [{"name": "cli.import", "start": 0.0, "end": 0.5, "parent": None}],
             "counters": dict.fromkeys(traced.COUNTERS, 0)}
    with pytest.raises(run.BenchError, match="no call into .*data_io.load"):
        run.layer_metrics(trace, DONE, DONE, run.WORKLOADS["normalize-write"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counter_that_stayed_zero_fails_loudly(workload):
    w = run.WORKLOADS[workload]
    spans = [{"name": name, "start": 0.0, "end": 0.1, "parent": None} for name in w.layers]
    for counter in w.counters:
        counters = dict.fromkeys(traced.COUNTERS, 1)
        counters[counter] = 0
        with pytest.raises(run.BenchError, match=f"counted nothing for {counter}"):
            run.layer_metrics({"spans": spans, "counters": counters}, DONE, DONE, w)
    run.layer_metrics({"spans": spans, "counters": dict.fromkeys(traced.COUNTERS, 1)}, DONE, DONE, w)
