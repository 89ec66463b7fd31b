"""Correctness checks on each workload's outputs, made apart from the program.

Every check re-reads what a ``driftbench`` process wrote with this file's
own reader and compares it with values the benchmark computed itself.  A
failed check raises :class:`CheckFailed`, naming the file and what differs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from standin import N_FEATURES, StandIn

RUN_ALL_METHODS = ("drca", "ldsp", "means", "none", "selftrain")
ADAPT_METHODS = ("drca", "ldsp", "means")
REPORT_HEADER = ["method", "batch_id", "n", "accuracy", "macro_f1"]

# "Well above chance" for 6 classes: three times the 1/6 a guess scores.
MIN_BATCH2_ACCURACY = 0.5
# Centering undoes a pure translation, so `means` keeps its accuracy up to
# sampling noise: about 0.012 between two batches of 1392 at accuracy 0.88.
MEANS_FLATNESS = 0.05
# Normalized values agree with the benchmark's own arithmetic to this share.
NORMALIZED_RTOL = 1e-12


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_report(out_dir: Path) -> dict[tuple[str, int], dict]:
    """Rows of ``report.csv`` keyed by (method, batch id)."""
    path = out_dir / "report.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == REPORT_HEADER, f"{path}: header is {rows[:1]}")
    grid = {}
    for row in rows[1:]:
        _require(len(row) == len(REPORT_HEADER), f"{path}: malformed row {row}")
        key = (row[0], int(row[1]))
        _require(key not in grid, f"{path}: duplicate row {key}")
        grid[key] = {"n": int(row[2]), "accuracy": float(row[3]), "macro_f1": float(row[4])}
    return grid


def _check_grid(grid, methods, sizes, where: str) -> None:
    expected = {(m, b) for m in methods for b in range(1, len(sizes) + 1)}
    _require(
        set(grid) == expected,
        f"{where}: {len(grid)} rows, expected {len(expected)} "
        f"(missing {sorted(expected - set(grid))[:3]}, extra {sorted(set(grid) - expected)[:3]})",
    )
    for (method, b), cell in grid.items():
        _require(cell["n"] == sizes[b - 1], f"{where}: {method} batch {b} has n={cell['n']}, "
                 f"expected {sizes[b - 1]}")
        for metric in ("accuracy", "macro_f1"):
            _require(0.0 <= cell[metric] <= 1.0, f"{where}: {method} batch {b} {metric} "
                     f"{cell[metric]} outside [0, 1]")


def check_run_all(out_dir: Path, standin: StandIn, checksum: str) -> None:
    """``driftbench run`` with all five methods on the stand-in whose checksum is given."""
    grid = read_report(out_dir)
    _check_grid(grid, RUN_ALL_METHODS, standin.sizes, f"{out_dir}/report.csv")
    doc = json.loads((out_dir / "report.json").read_text())
    got = doc.get("provenance", {}).get("dataset_checksum")
    _require(got == checksum, f"{out_dir}/report.json: dataset_checksum {got}, expected {checksum}")
    for method in RUN_ALL_METHODS:
        acc = grid[(method, 2)]["accuracy"]
        _require(acc >= MIN_BATCH2_ACCURACY,
                 f"{out_dir}: {method} scores {acc:.4f} on batch 2, not well above chance")
    first, last = grid[("none", 2)]["accuracy"], grid[("none", len(standin.sizes))]["accuracy"]
    _require(last < first, f"{out_dir}: none scores {last:.4f} on the last batch, "
             f"not below its {first:.4f} on batch 2")


def check_adapt_synthetic(out_dir: Path, per_class: int, n_classes: int, n_batches: int) -> None:
    """``driftbench run`` with means, drca and ldsp on generated translation drift."""
    grid = read_report(out_dir)
    sizes = (per_class * n_classes,) * n_batches
    _check_grid(grid, ADAPT_METHODS, sizes, f"{out_dir}/report.csv")
    for method in ADAPT_METHODS:
        acc = grid[(method, 2)]["accuracy"]
        _require(acc >= MIN_BATCH2_ACCURACY,
                 f"{out_dir}: {method} scores {acc:.4f} on batch 2, not well above chance")
    first, last = grid[("means", 2)]["accuracy"], grid[("means", n_batches)]["accuracy"]
    _require(abs(last - first) <= MEANS_FLATNESS,
             f"{out_dir}: means scores {first:.4f} on batch 2 and {last:.4f} on the last "
             f"batch; centering should undo a translation")


def read_batch_file(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, concentrations, features) of a dense ``label;conc i:v ...`` file."""
    labels, concentrations, rows = [], [], []
    index = np.arange(1, N_FEATURES + 1)
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            head, _, rest = line.partition(" ")
            label, sep, conc = head.partition(";")
            _require(bool(sep), f"{path}:{line_no}: no concentration in '{head}'")
            pairs = np.array(rest.replace(":", " ").split(), dtype=float).reshape(-1, 2)
            _require(pairs.shape[0] == N_FEATURES and np.array_equal(pairs[:, 0], index),
                     f"{path}:{line_no}: feature indices are not 1..{N_FEATURES}")
            labels.append(int(label))
            concentrations.append(float(conc))
            rows.append(pairs[:, 1])
    return np.array(labels), np.array(concentrations), np.array(rows).reshape(-1, N_FEATURES)


def check_normalize(out_dir: Path, standin: StandIn) -> None:
    """``driftbench normalize --out``: batch-1 min-max scaling of every batch."""
    lo = standin.features[0].min(axis=0)
    span = standin.features[0].max(axis=0) - lo
    _require(bool(np.all(span > 0)), "stand-in has a constant feature in batch 1")
    written = sorted(p.name for p in out_dir.glob("batch*.dat"))
    expected_names = sorted(f"batch{b}.dat" for b in range(1, len(standin.sizes) + 1))
    _require(written == expected_names, f"{out_dir}: wrote {written}")
    for b, (X, y, conc) in enumerate(
        zip(standin.features, standin.labels, standin.concentrations), start=1
    ):
        path = out_dir / f"batch{b}.dat"
        labels, concentrations, values = read_batch_file(path)
        _require(len(labels) == len(y), f"{path}: {len(labels)} lines, expected {len(y)}")
        _require(np.array_equal(labels, y), f"{path}: labels differ from the input")
        _require(np.array_equal(concentrations, conc), f"{path}: concentrations differ")
        expected = (X - lo) / span
        err = np.abs(values - expected) / np.maximum(np.abs(expected), 1.0)
        worst = np.unravel_index(err.argmax(), err.shape)
        _require(float(err.max()) <= NORMALIZED_RTOL,
                 f"{path}: line {worst[0] + 1} feature {worst[1] + 1} is {values[worst]!r}, "
                 f"expected {expected[worst]!r}")
        if b == 1:
            _require(bool(values.min() >= 0.0 and values.max() <= 1.0),
                     f"{path}: batch 1 leaves [0, 1]: {values.min()!r}..{values.max()!r}")
