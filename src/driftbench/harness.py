"""Experiment runner and report/projection exporters.

``run_experiment`` evaluates each requested strategy on batches 2..N with
labels drawn only from batch 1, and reports batch 1 itself as a marked
training-reference row.  Reports serialize to CSV (one row per method/batch
cell) and JSON (grid plus the resolved config and dataset provenance); both
are written atomically and are byte-stable across reruns, except for the
JSON ``created_at`` stamp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from . import __version__
from .adaptation import (
    LabelStore,
    PredictionSet,
    run_means_correction,
    run_no_adaptation,
    run_self_training,
    run_subspace_method,
    split_calibration,
    strip_labels,
    train_calibration_model,
)
from .config import ConfigError, RunConfig
from .data_io import (
    Dataset,
    atomic_write_text,
    dataset_checksum,
    generate_synthetic,
    load_dataset,
)
from .metrics import accuracy, f1_score
from .preprocess import normalize_dataset
from .subspace import lda_fit, pca_fit, project

# Points past this absolute projection value get the `clipped` flag in exports.
PROJECTION_PLOT_LIMIT = 200.0

PROJECTION_VIEWS = ("pca", "lda", "lda-per-batch")

REFERENCE_BATCH_ID = 1


@dataclass(frozen=True)
class Cell:
    """Metrics for one (method, batch) grid cell."""

    accuracy: float
    macro_f1: float
    n: int


@dataclass
class EvalReport:
    """Per-(method, batch) metric grid plus config echo and provenance."""

    grid: dict[tuple[str, int], Cell]
    config_echo: dict
    provenance: dict
    created_at: str | None = None


def evaluate_predictions(
    predictions: Iterable[PredictionSet],
    labels: LabelStore,
    f1_average: str = "macro",
) -> dict[tuple[str, int], Cell]:
    """Score prediction sets against ground truth; the only label consumer."""
    cells = {}
    for ps in predictions:
        actual = labels.labels_for(ps.batch_id)
        if actual.shape[0] != ps.predicted.shape[0]:
            raise ValueError(
                f"batch {ps.batch_id}: {ps.predicted.shape[0]} predictions "
                f"for {actual.shape[0]} labels"
            )
        cells[(ps.method, ps.batch_id)] = Cell(
            accuracy=accuracy(ps.predicted, actual),
            macro_f1=f1_score(ps.predicted, actual, f1_average),
            n=int(actual.shape[0]),
        )
    return cells


def load_input_dataset(cfg: RunConfig) -> Dataset:
    """Load the canonical directory or generate synthetic data, never both."""
    if cfg.data_dir and cfg.synthetic_enabled:
        raise ConfigError("set either data.dir or synthetic.enabled, not both")
    if cfg.data_dir:
        return load_dataset(cfg.data_dir)
    if cfg.synthetic_enabled:
        return generate_synthetic(cfg.synthetic)
    raise ConfigError("no input data: set data.dir or synthetic.enabled")


def check_components(cfg: RunConfig, dataset: Dataset) -> None:
    """Reject a DRCA/LDSP component count that no drifted target can supply.

    Each target after batch 1 has its mean difference from batch 1 deflated
    away, which leaves D - 1 components; catching this here fails the run
    before any model is trained.
    """
    if len(dataset.batch_ids) < 2:
        return
    d = dataset.feature_dim
    for key, method, k in (
        ("drca.components", "drca", cfg.drca.n_components),
        ("ldsp.components", "ldsp", cfg.ldsp.n_components),
    ):
        if method in cfg.methods and k > d - 1:
            raise ConfigError(
                f"{key}={k} exceeds the {d - 1} components left after deflation "
                f"of the D={d} features"
            )


def run_experiment(cfg: RunConfig, out_dir: Path | str | None = None) -> EvalReport:
    """Execute the requested strategies and assemble the metric grid.

    Batch 1 is scored as a training-reference row beside batches 2..N.  When
    ``out_dir`` is given the CSV and JSON reports are written there as well.
    """
    raw = load_input_dataset(cfg)
    check_components(cfg, raw)
    checksum = dataset_checksum(raw)
    dataset = normalize_dataset(raw) if cfg.normalize else raw
    calibration, targets, labels = split_calibration(dataset)
    reference = strip_labels(dataset.batch(REFERENCE_BATCH_ID))

    # `none` and `selftrain` both start from the plain calibration fit; it is
    # deterministic, so one fit serves both.
    shared = None
    if {"none", "selftrain"} & set(cfg.methods):
        shared = train_calibration_model(calibration, cfg.classifier)
    scored = [reference] + targets
    clf, st = cfg.classifier, cfg.selftrain
    # The lambdas look each strategy up by its module-global name when they
    # run, so a tracer that swaps module attributes (perfbench/traced.py)
    # sees every call.
    strategies = {
        "none": lambda: run_no_adaptation(calibration, scored, clf, shared),
        "means": lambda: run_means_correction(calibration, scored, clf),
        "drca": lambda: run_subspace_method(calibration, scored, "drca", cfg.drca, clf),
        "ldsp": lambda: run_subspace_method(calibration, scored, "ldsp", cfg.ldsp, clf),
        # A separate call for batch 1, so its pseudo-labels never enter the
        # pool that batches 2..N grow.
        "selftrain": lambda: (
            run_self_training(calibration, [reference], st, clf, calibration_model=shared)
            + run_self_training(calibration, targets, st, clf, calibration_model=shared)
        ),
    }
    grid = {}
    for name in cfg.methods:
        grid.update(evaluate_predictions(strategies[name](), labels, cfg.f1_average))
    report = EvalReport(
        grid=grid,
        config_echo=cfg.echo(),
        provenance={
            "dataset_checksum": checksum,
            "code_version": __version__,
            "reference_batch_id": REFERENCE_BATCH_ID,
        },
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    if out_dir is not None:
        export_report(report, out_dir)
    return report


def report_to_csv(report: EvalReport) -> str:
    lines = ["method,batch_id,n,accuracy,macro_f1"]
    for (method, batch_id) in sorted(report.grid):
        cell = report.grid[(method, batch_id)]
        lines.append(
            f"{method},{batch_id},{cell.n},{cell.accuracy:.10f},{cell.macro_f1:.10f}"
        )
    return "\n".join(lines) + "\n"


def report_to_json_dict(report: EvalReport) -> dict:
    rows = []
    for method, batch_id in sorted(report.grid):
        cell = report.grid[(method, batch_id)]
        rows.append(
            {
                "method": method,
                "batch_id": batch_id,
                "n": cell.n,
                "accuracy": cell.accuracy,
                "macro_f1": cell.macro_f1,
            }
        )
    doc = {
        "grid": rows,
        "config": report.config_echo,
        "provenance": report.provenance,
    }
    if report.created_at is not None:
        doc["created_at"] = report.created_at
    return doc


def report_from_json_dict(doc) -> EvalReport:
    """Rebuild a report from its JSON form; a ValueError names what is missing."""
    if not isinstance(doc, dict):
        raise ValueError("report is not a JSON object")
    try:
        grid = {
            (row["method"], int(row["batch_id"])): Cell(
                accuracy=float(row["accuracy"]),
                macro_f1=float(row["macro_f1"]),
                n=int(row["n"]),
            )
            for row in doc["grid"]
        }
        config_echo, provenance = dict(doc["config"]), dict(doc["provenance"])
    except KeyError as exc:
        raise ValueError(f"report has no key {exc.args[0]!r}") from None
    except TypeError:
        raise ValueError("report has a malformed grid row, config or provenance") from None
    return EvalReport(grid, config_echo, provenance, created_at=doc.get("created_at"))


def export_report(report: EvalReport, out_dir: Path | str) -> tuple[Path, Path]:
    """Write report.csv and report.json into out_dir; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"
    atomic_write_text(csv_path, report_to_csv(report))
    atomic_write_text(
        json_path, json.dumps(report_to_json_dict(report), sort_keys=True, indent=2) + "\n"
    )
    return csv_path, json_path


def projection_rows(dataset: Dataset, which: str, components: int = 2) -> list[tuple]:
    """2-D projection of every sample: (batch_id, label, x, y, clipped).

    ``pca`` and ``lda`` fit on batch 1 and apply one map to all batches;
    ``lda-per-batch`` refits on each batch's own labels.  Points are
    never dropped; those past the plot limit only carry the flag.
    """
    if which not in PROJECTION_VIEWS:
        raise ValueError(f"unknown projection view '{which}' (choose from {PROJECTION_VIEWS})")
    if components < 2:
        raise ValueError("projection export needs at least 2 components")
    rows = []
    fixed = None
    if which == "pca":
        fixed = pca_fit(dataset.batch(1).feature_matrix(), components)
    elif which == "lda":
        b1 = dataset.batch(1)
        fixed = lda_fit(b1.feature_matrix(), b1.label_vector(), components)
    for bid in dataset.batch_ids:
        batch = dataset.batch(bid)
        proj = fixed
        if proj is None:
            proj = lda_fit(batch.feature_matrix(), batch.label_vector(), components)
        XY = project(proj, batch.feature_matrix(), "source")
        for label, point in zip(batch.labels.tolist(), XY):
            x, y = float(point[0]), float(point[1])
            clipped = int(abs(x) >= PROJECTION_PLOT_LIMIT or abs(y) >= PROJECTION_PLOT_LIMIT)
            rows.append((bid, label, x, y, clipped))
    return rows


def export_projections(
    dataset: Dataset, which: str, out_path: Path | str, components: int = 2
) -> Path:
    """Write the projection CSV (header batch_id,label,x,y,clipped)."""
    rows = projection_rows(dataset, which, components)
    lines = ["batch_id,label,x,y,clipped"]
    lines += [f"{b},{lab},{x:.10g},{y:.10g},{c}" for b, lab, x, y, c in rows]
    out_path = Path(out_path)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_path, "\n".join(lines) + "\n")
    return out_path
