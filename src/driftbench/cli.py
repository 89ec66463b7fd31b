"""Command-line surface: ingest, normalize, project, run, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads, so the output bytes do not depend
# on the core count; a value the user sets still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .config import ConfigError, load_run_config
from .data_io import DataFormatError, atomic_write_text, write_batch_file
from .harness import (
    PROJECTION_VIEWS,
    export_projections,
    export_report,
    load_input_dataset,
    report_from_json_dict,
    report_to_csv,
    run_experiment,
)
from .preprocess import normalize_dataset


def build_parser() -> argparse.ArgumentParser:
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--config", help="JSON config file of flat key-value settings")
    data.add_argument(
        "--data-dir", dest="data.dir", help="directory holding batch1.dat .. batchN.dat"
    )
    data.add_argument(
        "--seed", dest="synthetic.seed", type=int, help="override the synthetic-data seed"
    )

    parser = argparse.ArgumentParser(
        prog="driftbench",
        description="Benchmark drift-handling strategies on batched sensor data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", parents=[data], help="load data and report batch counts")

    p = sub.add_parser("normalize", parents=[data], help="write batch-1 min-max scaled data")
    p.add_argument("--out", help="directory to write the scaled batch files into")
    p.add_argument("--stats", action="store_true", help="print per-batch normalized extrema")

    p = sub.add_parser("project", parents=[data], help="export 2-D projection coordinates")
    p.add_argument("--method", choices=PROJECTION_VIEWS, required=True)
    p.add_argument("--out", required=True, help="CSV file to write the coordinates to")

    p = sub.add_parser("run", parents=[data], help="run the benchmark and write reports")
    p.add_argument(
        "--method", dest="methods", help="'all' or a comma list of methods (overrides 'methods')"
    )
    p.add_argument(
        "--out", default="driftbench-out", help="directory for report.csv and report.json"
    )

    p = sub.add_parser("report", help="render a saved JSON report")
    p.add_argument("--report-file", required=True, help="path to a report.json")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--out", help="file to write the rendered report to instead of stdout")
    return parser


# Flags that override a config key take the key as their dest. A flag not given
# reads None, which load_run_config drops; a given one wins, even when empty.
_OVERRIDE_KEYS = ("data.dir", "synthetic.seed", "methods")


def _config(args):
    overrides = {key: getattr(args, key, None) for key in _OVERRIDE_KEYS}
    cfg = load_run_config(args.config, overrides)
    if overrides["synthetic.seed"] is not None and not cfg.synthetic_enabled:
        raise ConfigError("--seed applies only to synthetic data (synthetic.enabled is false)")
    return cfg


def _cmd_ingest(args) -> int:
    cfg = _config(args)
    dataset = load_input_dataset(cfg)
    print(f"{'batch':>5}  {'samples':>8}  months")
    for bid in dataset.batch_ids:
        batch = dataset.batch(bid)
        months = ",".join(str(m) for m in batch.month_ids) or "-"
        print(f"{bid:>5}  {len(batch):>8}  {months}")
    print(f"{'total':>5}  {dataset.n_samples:>8}")
    return 0


def _cmd_normalize(args) -> int:
    cfg = _config(args)
    dataset = load_input_dataset(cfg)
    normalized = normalize_dataset(dataset)
    if args.out:
        out_dir = Path(args.out)
        for bid in normalized.batch_ids:
            write_batch_file(out_dir / f"batch{bid}.dat", normalized.batch(bid))
        print(f"wrote {len(normalized.batch_ids)} batch file(s) to {out_dir}")
    if args.stats or not args.out:
        print(f"{'batch':>5}  {'min':>14}  {'max':>14}")
        for bid in normalized.batch_ids:
            X = normalized.batch(bid).features
            print(f"{bid:>5}  {X.min():>14.4f}  {X.max():>14.4f}")
    return 0


def _cmd_project(args) -> int:
    cfg = _config(args)
    dataset = load_input_dataset(cfg)
    if cfg.normalize:
        dataset = normalize_dataset(dataset)
    path = export_projections(dataset, args.method, args.out)
    print(f"wrote {path}")
    return 0


def _format_grid(grid) -> str:
    methods = sorted({m for m, _ in grid})
    batches = sorted({b for _, b in grid})
    width = max(len(name) for name in ["accuracy", *methods]) + 1
    header = f"{'accuracy':<{width}}" + " ".join(f"b{b:<6}" for b in batches)
    lines = [header]
    for m in methods:
        cells = " ".join(
            f"{grid[(m, b)].accuracy:.4f} " if (m, b) in grid else "   -   " for b in batches
        )
        lines.append(f"{m:<{width}}{cells}")
    return "\n".join(lines)


def _cmd_run(args) -> int:
    report = run_experiment(_config(args))
    csv_path, json_path = export_report(report, args.out)
    print(_format_grid(report.grid))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_report(args) -> int:
    report = report_from_json_dict(json.loads(Path(args.report_file).read_text()))
    text = report_to_csv(report) if args.format == "csv" else _format_grid(report.grid) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "normalize": _cmd_normalize,
    "project": _cmd_project,
    "run": _cmd_run,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``); that is not a failure.
        # Point stdout at devnull so the interpreter's final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ConfigError, DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
