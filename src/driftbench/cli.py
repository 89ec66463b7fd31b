"""Command-line surface: ingest, normalize, project, run, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_run_config
from .data_io import DataFormatError, write_batch_file
from .harness import (
    PROJECTION_VIEWS,
    export_projections,
    load_input_dataset,
    report_from_json_dict,
    report_to_csv,
    run_experiment,
)
from .preprocess import fit_minmax, normalize_dataset


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file of flat key-value settings")
    common.add_argument("--data-dir", help="directory holding batch1.dat .. batchN.dat")
    common.add_argument("--out", help="output file or directory (verb-dependent)")
    common.add_argument("--seed", type=int, help="override the synthetic-data seed")

    parser = argparse.ArgumentParser(
        prog="driftbench",
        description="Benchmark drift-handling strategies on batched sensor data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="load data and report batch counts")
    p.add_argument("--report", choices=["counts"], default="counts")

    p = sub.add_parser("normalize", parents=[common], help="write batch-1 min-max scaled data")
    p.add_argument("--stats", action="store_true", help="print per-batch normalized extrema")

    p = sub.add_parser("project", parents=[common], help="export 2-D projection coordinates")
    p.add_argument("--method", choices=PROJECTION_VIEWS, required=True)
    p.add_argument("--components", type=int, default=2)

    p = sub.add_parser("run", parents=[common], help="run the benchmark and write reports")
    p.add_argument("--method", help="'all' or a comma list of methods (overrides 'methods')")

    p = sub.add_parser("report", parents=[common], help="render a saved JSON report")
    p.add_argument("--report-file", required=True, help="path to a report.json")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    return parser


def _overrides(args) -> dict:
    out = {}
    if args.data_dir:
        out["data.dir"] = args.data_dir
    if args.seed is not None:
        out["synthetic.seed"] = args.seed
    if getattr(args, "method", None) and args.command == "run":
        out["methods"] = args.method
    return out


def _config(args):
    return load_run_config(args.config, _overrides(args))


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
    params = fit_minmax(dataset.batch(1))
    normalized = normalize_dataset(dataset, params)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for bid in normalized.batch_ids:
            write_batch_file(out_dir / f"batch{bid}.dat", normalized.batch(bid))
        print(f"wrote {len(normalized.batch_ids)} batch file(s) to {out_dir}")
    if args.stats or not args.out:
        print(f"{'batch':>5}  {'min':>14}  {'max':>14}")
        for bid in normalized.batch_ids:
            X = normalized.batch(bid).feature_matrix()
            print(f"{bid:>5}  {X.min():>14.4f}  {X.max():>14.4f}")
    return 0


def _cmd_project(args) -> int:
    if not args.out:
        print("error: project requires --out <csv>", file=sys.stderr)
        return 2
    cfg = _config(args)
    dataset = load_input_dataset(cfg)
    if cfg.normalize:
        dataset = normalize_dataset(dataset)
    path = export_projections(dataset, args.method, args.out, args.components)
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
    cfg = _config(args)
    out_dir = Path(args.out) if args.out else Path("driftbench-out")
    report = run_experiment(cfg, out_dir=out_dir)
    csv_path, json_path = out_dir / "report.csv", out_dir / "report.json"
    print(_format_grid(report.grid))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_report(args) -> int:
    report = report_from_json_dict(json.loads(Path(args.report_file).read_text()))
    if args.format == "csv":
        text = report_to_csv(report)
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
    else:
        print(_format_grid(report.grid))
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
        return _COMMANDS[args.command](args)
    except (ConfigError, DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
