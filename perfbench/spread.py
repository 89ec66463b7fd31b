"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--workload run-all,...,all]

Runs ``run.py`` once per seed and workload (``--trace 0``, ``run_seconds``
from ``BENCHMARK.json``), one after the other, and prints per metric the
median of the runs, their quartiles, the interquartile range as a share of
the median and that share against the metric's bound.  A share above a
third of its bound is flagged: such a metric is too noisy to hold its bound
between two sets of runs.  ``all`` measures the three workloads interleaved
in one ``run.py`` process, as the bare command runs them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload.split(","):
        values: dict[str, list[float]] = {}
        failed = []
        for seed in args.seeds:
            began = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed.append(f"{result['failed']}/{result['attempted']}")
            ok &= result["correct"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{key}={v[-1]:.4f}" for key, v in values.items())
                + f" ({time.monotonic() - began:.0f} s)", flush=True)
        print(f"{workload}: failed/attempted per run {' '.join(failed)}")
        for key, v in values.items():
            bound = bounds[key.rpartition("/")[2]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / median
            flag = "" if share < bound / 3 else "  <-- above a third of the bound"
            ok &= share < bound / 3
            print(f"  {key:<28} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"iqr/median {share:.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
