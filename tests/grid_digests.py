"""Digests of the guarded report grids, to check that a change keeps them byte-identical.

Run from the root of a checkout at the parent commit, save the output, and
compare the change against it::

    PYTHONPATH=src python tests/grid_digests.py > digests.txt
    PYTHONPATH=src python tests/grid_digests.py --against digests.txt

With ``--against`` it prints each line that differs from the saved run, as a
``-`` saved line and a ``+`` current line, and exits 1 on any difference and
0 when every line matches.

It writes the benchmark's stand-in (``perfbench/standin.py``, seed 1) to a
temporary directory and runs 12 configs:

- the stand-in with the default config
- ``perfbench/run.py``'s ``SYNTHETIC`` at drift steps 0.3, 0.4, 0.5 and 0.6,
  with its own methods (``means,drca,ldsp``) and with all five
- ``SYNTHETIC`` at drift step 0.5 with ``drca``, ``ldsp`` and ``drca,ldsp``
  at ``components`` 60, where every target takes an eigen fit

Each line holds a config's name, the SHA-256 of its ``report.csv``, the
SHA-256 of its ``report.json`` without the temporary ``data.dir``, and its
classifier fits and L-BFGS iterations.  Three more lines hold the SHA-256 of
the stand-in's ``pca``, ``lda`` and ``lda-per-batch`` projection CSVs.  BLAS
runs on one thread unless the environment sets it, because the thread count
can move the last digits of the projections.  The file name keeps pytest
from collecting it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

if __name__ == "__main__":
    # Before numpy loads BLAS; a test that imports this module keeps its own.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from driftbench import adaptation  # noqa: E402
from driftbench.adaptation import METHOD_NAMES  # noqa: E402
from driftbench.config import resolve_config  # noqa: E402
from driftbench.harness import (  # noqa: E402
    PROJECTION_VIEWS,
    export_projections,
    load_input_dataset,
    report_to_csv,
    report_to_json_dict,
    run_experiment,
)
from driftbench.preprocess import normalize_dataset  # noqa: E402
from run import SYNTHETIC  # noqa: E402  (the adapt-synthetic workload's config)
from standin import make_standin, write_standin  # noqa: E402


def configs(standin_dir: Path) -> dict[str, dict]:
    """The 12 guarded configs by name."""
    out = {"standin": {"data.dir": str(standin_dir)}}
    for drift in (0.3, 0.4, 0.5, 0.6):
        keys = {**SYNTHETIC, "synthetic.drift_step": drift}
        out[f"synthetic-{drift}"] = keys
        out[f"synthetic-{drift}-all"] = {**keys, "methods": ",".join(METHOD_NAMES)}
    for methods in ("drca", "ldsp", "drca,ldsp"):
        out[f"synthetic-0.5-{methods.replace(',', '+')}-k60"] = {
            **SYNTHETIC,
            "synthetic.drift_step": 0.5,
            "methods": methods,
            "drca.components": 60,
            "ldsp.components": 60,
        }
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_counted(keys: dict) -> tuple[str, str, int, int]:
    """Digests of one run's report.csv and report.json, its fits and iterations."""
    iters = []
    train = adaptation.train_with_config

    def counted(*args, **kwargs):
        model = train(*args, **kwargs)
        iters.append(model.n_iter)
        return model

    adaptation.train_with_config = counted
    try:
        report = run_experiment(resolve_config(keys))
    finally:
        adaptation.train_with_config = train
    doc = report_to_json_dict(report)
    doc["config"].pop("data.dir", None)  # the stand-in's temporary directory
    as_json = json.dumps(doc, sort_keys=True, indent=2)
    return sha256(report_to_csv(report)), sha256(as_json), len(iters), sum(iters)


def digest_lines():
    """The output's lines, one per config and one per projection view."""
    with tempfile.TemporaryDirectory() as tmp:
        standin_dir = Path(tmp) / "standin"
        write_standin(make_standin(1), standin_dir)
        for name, keys in configs(standin_dir).items():
            csv_digest, json_digest, fits, iters = run_counted(keys)
            yield f"{name:<28} csv {csv_digest} json {json_digest} fits {fits:>3} iters {iters:>4}"
        cfg = resolve_config({"data.dir": str(standin_dir)})
        dataset = normalize_dataset(load_input_dataset(cfg))
        for which in PROJECTION_VIEWS:
            path = export_projections(dataset, which, Path(tmp) / f"{which}.csv")
            yield f"{'project-' + which:<28} csv {sha256(path.read_text())}"


def differences(saved: str, current: str) -> list[str]:
    """Each line where ``current`` differs from ``saved``: the saved line
    after ``-`` and the current one after ``+``, either left out where that
    side has no such line."""
    out = []
    for old, new in zip_longest(saved.splitlines(), current.splitlines()):
        if old != new:
            if old is not None:
                out.append(f"- {old}")
            if new is not None:
                out.append(f"+ {new}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--against", type=Path, help="a saved output to compare with; exit 1 on any difference"
    )
    args = parser.parse_args(argv)
    if args.against is None:
        for line in digest_lines():
            print(line, flush=True)
        return 0
    saved = args.against.read_text()
    lines = list(digest_lines())
    diff = differences(saved, "\n".join(lines) + "\n")
    print("\n".join(diff) if diff else f"all {len(lines)} lines match the saved run")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
