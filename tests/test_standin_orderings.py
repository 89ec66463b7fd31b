"""Method orderings on the benchmark's stand-in data, beside C1-C6.

C1-C6 need the real batch files and skip without them.  The stand-in
(``perfbench/standin.py``, seed 1) has the canonical batch sizes and a gain
drift that separates the methods, so the orderings it shows with a clear
margin are pinned here.  The stand-in is used as it is, never retuned.
"""

import sys
from pathlib import Path

import pytest

from driftbench.config import resolve_config
from driftbench.harness import run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from standin import make_standin, write_standin  # noqa: E402

LATE = (8, 9, 10)
MARGIN = 0.05


@pytest.fixture(scope="module")
def accuracy(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("standin")
    write_standin(make_standin(1), data_dir)
    grid = run_experiment(resolve_config({"data.dir": str(data_dir)})).grid
    return {key: cell.accuracy for key, cell in grid.items()}


def test_none_decays_from_batch2_to_late_batches(accuracy):
    for b in LATE:
        assert accuracy[("none", 2)] - accuracy[("none", b)] >= MARGIN, b


def test_drca_beats_none_on_late_batches(accuracy):
    for b in LATE:
        assert accuracy[("drca", b)] - accuracy[("none", b)] >= MARGIN, b


def test_means_stays_within_a_band(accuracy):
    means = [accuracy[("means", b)] for b in range(2, 11)]
    assert max(means) - min(means) <= 0.03
