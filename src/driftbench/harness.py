"""Experiment runner and report/projection exporters.

``run_experiment`` evaluates each requested strategy on batches 2..N with
labels drawn only from batch 1, and reports batch 1 itself as a marked
training-reference row.  Reports serialize to CSV (one row per method/batch
cell) and JSON (grid plus the resolved config and dataset provenance).
``run_experiment`` only computes; its caller writes the report with
``export_report``.  Both files are written atomically, and a rerun of one
config writes them byte for byte the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import __version__
from .adaptation import (
    LabelStore,
    PredictionSet,
    run_complement,
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
    CALIBRATION_BATCH_ID,
    DataFormatError,
    Dataset,
    atomic_write_text,
    dataset_checksum,
    generate_synthetic,
    load_dataset,
)
from .metrics import accuracy, f1_score, sorted_unique
from .preprocess import normalize_batches
from .subspace import lda_fit, pca_fit, project

# Points past this absolute projection value get the `clipped` flag in exports.
PROJECTION_PLOT_LIMIT = 200.0

PROJECTION_VIEWS = ("pca", "lda", "lda-per-batch")


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


def evaluate_predictions(
    predictions: Iterable[PredictionSet], labels: LabelStore
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
            macro_f1=f1_score(ps.predicted, actual),
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


def check_config_against_data(cfg: RunConfig, dataset: Dataset) -> None:
    """Reject a config that the loaded data cannot run, before any model is trained.

    Every model is fitted on batch 1, which therefore needs at least 2
    classes (each class brings a sample, so there are as many samples as
    classes).  A DRCA/LDSP eigen fit keeps ``components`` of the D
    features: all D for batch 1's reference row, and D - 1 for each target
    after it, whose mean difference from batch 1 is deflated away.
    """
    n_classes = sorted_unique(dataset.batch(CALIBRATION_BATCH_ID).labels).shape[0]
    if n_classes < 2:
        raise DataFormatError(
            f"batch {CALIBRATION_BATCH_ID} holds {n_classes} class(es); "
            "the calibration batch needs at least 2"
        )
    d = dataset.feature_dim
    if len(dataset.batch_ids) > 1:
        k_max, what = d - 1, f"the {d - 1} components left after deflation of the D={d} features"
    else:
        k_max, what = d, f"the D={d} features of batch {CALIBRATION_BATCH_ID}'s reference row"
    for method in ("drca", "ldsp"):
        k = getattr(cfg, method).components
        if method in cfg.methods and k > k_max:
            raise ConfigError(f"{method}.components={k} exceeds {what}")


def run_experiment(cfg: RunConfig) -> EvalReport:
    """Execute the requested strategies and assemble the metric grid.

    Batch 1 is scored as a training-reference row beside batches 2..N.
    """
    dataset = load_input_dataset(cfg)
    check_config_against_data(cfg, dataset)
    checksum = dataset_checksum(dataset)
    # The run owns what it loaded: it rescales the batches in place in the
    # dataset's dict, under the same keys and ids, so each raw batch is freed as
    # soon as its rescaled copy exists and the run never holds two copies of the data.
    if cfg.normalize:
        normalize_batches(dataset.batches)
    calibration, targets, labels = split_calibration(dataset)
    reference = strip_labels(dataset.batch(CALIBRATION_BATCH_ID))

    clf, st = cfg.classifier, cfg.selftrain
    # Every strategy takes the plain calibration fit; it is deterministic,
    # so one fit serves all of them and the chain that `drca` and `ldsp` share.
    shared = train_calibration_model(calibration, clf)
    full = any(m in cfg.methods and getattr(cfg, m).components == dataset.feature_dim - 1
               for m in ("drca", "ldsp"))
    complement = run_complement(calibration, targets, clf, shared) if full else {}
    scored = [reference] + targets
    # The lambdas look each strategy up by its module-global name when they
    # run, so a tracer that swaps module attributes (perfbench/traced.py)
    # sees every call.
    strategies = {
        "none": lambda: run_no_adaptation(scored, shared),
        "means": lambda: run_means_correction(calibration, scored, shared),
        "drca": lambda: run_subspace_method(
            calibration, scored, "drca", cfg.drca, clf, shared, complement
        ),
        "ldsp": lambda: run_subspace_method(
            calibration, scored, "ldsp", cfg.ldsp, clf, shared, complement
        ),
        # A separate call for batch 1, so its pseudo-labels never enter the
        # pool that batches 2..N grow.
        "selftrain": lambda: (
            run_self_training(calibration, [reference], st, clf, shared)
            + run_self_training(calibration, targets, st, clf, shared)
        ),
    }
    grid = {}
    for name in cfg.methods:
        grid.update(evaluate_predictions(strategies[name](), labels))
    return EvalReport(
        grid=grid,
        config_echo=cfg.echo(),
        provenance={
            "dataset_checksum": checksum,
            "code_version": __version__,
            "reference_batch_id": CALIBRATION_BATCH_ID,
        },
    )


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
    return {
        "grid": rows,
        "config": report.config_echo,
        "provenance": report.provenance,
    }


def report_from_json_dict(doc) -> EvalReport:
    """Rebuild a report from its JSON form; a ValueError names what is missing
    or, for a bad grid row, the row's index and key."""
    if not isinstance(doc, dict):
        raise ValueError("report is not a JSON object")
    try:
        grid = {}
        for i, row in enumerate(doc["grid"]):
            method, batch_id, n = row["method"], row["batch_id"], row["n"]
            scores = {key: row[key] for key in ("accuracy", "macro_f1")}
            if not isinstance(method, str):
                raise ValueError(f"grid row {i}: 'method' must be a string, got {method!r}")
            for key, value in (("batch_id", batch_id), ("n", n)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"grid row {i}: {key!r} must be an integer, got {value!r}")
            for key, value in scores.items():
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not (number and 0 <= value <= 1):
                    raise ValueError(f"grid row {i}: {key!r} must be in [0, 1], got {value!r}")
            if (method, batch_id) in grid:
                raise ValueError(f"grid row {i}: 'method' and 'batch_id' repeat an earlier row")
            grid[(method, batch_id)] = Cell(
                accuracy=float(scores["accuracy"]), macro_f1=float(scores["macro_f1"]), n=n
            )
        config_echo, provenance = dict(doc["config"]), dict(doc["provenance"])
    except KeyError as exc:
        raise ValueError(f"report has no key {exc.args[0]!r}") from None
    except TypeError:
        raise ValueError("report has a malformed grid row, config or provenance") from None
    return EvalReport(grid, config_echo, provenance)


def export_report(report: EvalReport, out_dir: Path | str) -> tuple[Path, Path]:
    """Write report.csv and report.json into out_dir; returns both paths."""
    out_dir = Path(out_dir)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"
    atomic_write_text(csv_path, report_to_csv(report))
    atomic_write_text(
        json_path, json.dumps(report_to_json_dict(report), sort_keys=True, indent=2) + "\n"
    )
    return csv_path, json_path


def projection_rows(dataset: Dataset, which: str) -> list[tuple]:
    """2-D projection of every sample: (batch_id, label, x, y, clipped).

    ``pca`` and ``lda`` fit on batch 1 and apply one map to all batches;
    ``lda-per-batch`` refits on each batch's own labels.  Points are
    never dropped; those past the plot limit only carry the flag.
    """
    if which not in PROJECTION_VIEWS:
        raise ValueError(f"unknown projection view '{which}' (choose from {PROJECTION_VIEWS})")
    if which != "pca":
        # A 2-D discriminant projection needs 2 directions, and C classes give C - 1.
        fitted = dataset.batch_ids if which == "lda-per-batch" else [CALIBRATION_BATCH_ID]
        for bid in fitted:
            n_classes = sorted_unique(dataset.batch(bid).labels).shape[0]
            if n_classes < 3:
                raise DataFormatError(
                    f"batch {bid} holds {n_classes} class(es); --method {which} fits a 2-D "
                    "discriminant projection on it, which needs at least 3"
                )
    rows = []
    fixed = None
    if which == "pca":
        fixed = pca_fit(dataset.batch(CALIBRATION_BATCH_ID).features, 2)
    elif which == "lda":
        b1 = dataset.batch(CALIBRATION_BATCH_ID)
        fixed = lda_fit(b1.features, b1.labels, 2)
    for bid in dataset.batch_ids:
        batch = dataset.batch(bid)
        proj = fixed
        if proj is None:
            proj = lda_fit(batch.features, batch.labels, 2)
        XY = project(proj, batch.features, "source")
        for label, point in zip(batch.labels.tolist(), XY):
            x, y = float(point[0]), float(point[1])
            clipped = int(abs(x) >= PROJECTION_PLOT_LIMIT or abs(y) >= PROJECTION_PLOT_LIMIT)
            rows.append((bid, label, x, y, clipped))
    return rows


def export_projections(dataset: Dataset, which: str, out_path: Path | str) -> Path:
    """Write the projection CSV (header batch_id,label,x,y,clipped)."""
    rows = projection_rows(dataset, which)
    lines = ["batch_id,label,x,y,clipped"]
    lines += [f"{b},{lab},{x:.10g},{y:.10g},{c}" for b, lab, x, y, c in rows]
    out_path = Path(out_path)
    atomic_write_text(out_path, "\n".join(lines) + "\n")
    return out_path
