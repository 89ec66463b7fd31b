"""What every ``driftbench`` invocation pays before its verb's own work.

Usage::

    python3 perfbench/setup_probe.py --data-dir <dir>
    python3 perfbench/setup_probe.py --config <file>

Imports ``driftbench.cli``, loads (or generates) the configured input and
normalizes it with batch-1 min-max scaling, then exits.  ``run.py`` times
this process from spawn to exit as ``setup_s``.
"""

from __future__ import annotations

import argparse

import driftbench.cli  # noqa: F401  (the import is part of what is measured)
from driftbench.config import load_run_config
from driftbench.harness import load_input_dataset
from driftbench.preprocess import normalize_dataset


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-dir")
    parser.add_argument("--config")
    args = parser.parse_args()
    dataset = load_input_dataset(load_run_config(args.config, {"data.dir": args.data_dir}))
    normalize_dataset(dataset)


if __name__ == "__main__":
    main()
