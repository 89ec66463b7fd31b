"""The traced run of ``perfbench/traced.py`` still sees every strategy.

The tracer swaps module attributes for wrappers and keeps them swapped, so
it runs in a subprocess.  A strategy that the harness reached through an
object bound before the swap would record no span, and a traced benchmark
run would fail on it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STRATEGY_SPANS = {f"adaptation.{m}" for m in ("none", "means", "drca", "ldsp", "selftrain")}


def test_traced_run_records_a_span_for_every_strategy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "synthetic.enabled": True,
                "synthetic.n_classes": 3,
                "synthetic.dim": 8,
                "synthetic.per_class": 15,
                "synthetic.n_batches": 3,
                "synthetic.drift_step": 0.7,
                "methods": "all",
                "drca.components": 7,
                "ldsp.components": 7,
            }
        )
    )
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace),
        "run", "--config", str(cfg), "--out", str(tmp_path / "out"),
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    doc = json.loads(trace.read_text())
    assert STRATEGY_SPANS <= {span["name"] for span in doc["spans"]}
    assert doc["counters"]["classifier.fits"] > 0
